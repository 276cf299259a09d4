"""Structural performance guard, with no timing in it.

The relational engine charges its accountant and bumps its telemetry
counters once per operator call. If per-row accounting creeps back into
a scan, a join or a checkout, the number of those calls grows with the
table — which is what this compares at 10 and at 10,000 rows.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.relational.arrays import rid_array
from repro.relational.database import Database
from repro.relational.joins import hash_join
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT


class CountingAccountant:
    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        if not name.startswith("charge_"):
            raise AttributeError(name)

        def charge(*args):
            self.calls += 1

        return charge


def accounting_calls(n_rows: int, monkeypatch) -> dict[str, tuple[int, int]]:
    """(charge_* calls, telemetry.count calls) of three read operators
    over ``n_rows`` rows; loading the rows is not counted."""
    accountant = CountingAccountant()
    database = Database()
    database.accountant = accountant
    model = SplitByRlistModel(database, "guard", Schema([ColumnDef("a", INT)]))
    records = {rid: (rid * rid,) for rid in range(1, n_rows + 1)}
    model.commit_version(1, (), rid_array(records), records, {}, records)
    table = model.data_table

    counted = [0]

    def count_call(name, amount=1):
        counted[0] += 1

    calls = {}
    with monkeypatch.context() as patch:
        patch.setattr(telemetry, "count", count_call)
        for name, operator in {
            "scan": lambda: list(table.scan()),
            "hash_join": lambda: hash_join(range(1, n_rows + 1, 2), table, "rid"),
            "split_by_rlist.checkout": lambda: model.checkout_columns(1)[0],
        }.items():
            accountant.calls = counted[0] = 0
            assert len(operator()) >= n_rows // 2
            calls[name] = (accountant.calls, counted[0])
    return calls


def test_accounting_calls_do_not_depend_on_the_row_count(monkeypatch):
    small = accounting_calls(10, monkeypatch)
    assert small == accounting_calls(10_000, monkeypatch)
    assert small["scan"] == (1, 0)
