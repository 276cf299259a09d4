"""Batched accounting is the per-row accounting, summed.

The engine charges the accountant once per operator call. The reference
here is the per-row version it replaced, kept as a test-only oracle: for
every data model, every version's checkout must produce the same
``CostSnapshot`` delta and the same ``storage.io.*`` telemetry as the
oracle does on the very same store. (That the *number* of charges no
longer grows with the rows is ``test_accounting_call_counts.py``.)
"""

from __future__ import annotations

import pickle
from itertools import islice

import pytest

from repro import telemetry
from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.core.models import DATA_MODELS
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.pagestore.store import paged_save
from repro.relational.arrays import RangeEncodedArray
from repro.relational.database import Database
from repro.relational.errors import DuplicateKeyError, SchemaError
from repro.relational.expressions import col, lit
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import ClusterOrder, Table
from repro.relational.types import BOOL, FLOAT, INT, INT_ARRAY, TEXT
from repro.resilience.statestore import StateStore


# ----------------------------------------------------------------------
# The oracle: one charge per row, as the engine did before batching.
# ----------------------------------------------------------------------
def naive_scan(table):
    table._fault_all(index=True)
    for row in table._rows:
        if row is not None:
            table.accountant.charge_seq_scan(1, table.schema.row_bytes(row))
            yield row


def naive_lookup_many(table, column, keys):
    table._fault_all(index=True)
    index = table._index_for(column)
    if index is None:
        position = table.schema.position(column)
        return [r for k in keys for r in naive_scan(table) if r[position] == k]
    clustered = table._is_clustered_on(column)
    found = []
    for key in keys:
        table.accountant.charge_index_probe(1)
        for row in filter(None, (table._rows[s] for s in index.lookup(key))):
            size = table.schema.row_bytes(row)
            if clustered:
                table.accountant.charge_seq_scan(1, size)
            else:
                table.accountant.charge_random_read(1, size)
            found.append(row)
    return found


def naive_insert_many(table, rows):
    """One validation, one key check and one write charge per row."""
    table._fault_all(index=True)
    count = 0
    for row in rows:
        table.schema.validate_row(row)
        stored = tuple(row)
        if table._pk_index is not None:
            key = table.schema.key_of(stored)
            if table._pk_index.contains(key):
                raise DuplicateKeyError(f"duplicate primary key {key!r}")
            table._pk_index.add(key, len(table._rows))
        for indexes in (table._secondary, table._ordered):
            for column, index in indexes.items():
                index.add(stored[table.schema.position(column)], len(table._rows))
        table._rows.append(stored)
        table._live_count += 1
        size = table.schema.row_bytes(stored)
        table._bytes += size
        table.accountant.charge_write(1, size)
        count += 1
    return count


@pytest.fixture
def oracle(monkeypatch):
    """Swap the per-row oracle in under every access path (``lookup``,
    ``scan_where`` and the joins all funnel into these two)."""

    def install():
        monkeypatch.setattr(Table, "scan", naive_scan)
        monkeypatch.setattr(Table, "lookup_many", naive_lookup_many)
        monkeypatch.setattr(Table, "insert_many", naive_insert_many)

    return install


@pytest.fixture
def metered():
    """Telemetry on and empty for the test, restored afterwards."""
    was_enabled = telemetry.is_enabled()
    telemetry.enable()
    telemetry.reset()
    yield
    telemetry.reset()
    if not was_enabled:
        telemetry.disable()


def measure(accountant, operation):
    """(result, CostSnapshot delta, storage.io.* counters) of one call."""
    telemetry.reset()
    before = accountant.snapshot()
    result = operation()
    delta = accountant.snapshot() - before
    io = {
        name: value
        for name, value in telemetry.snapshot().counters.items()
        if name.startswith("storage.io.")
    }
    return result, delta, io


# ----------------------------------------------------------------------
# Golden equivalence over every physical design
# ----------------------------------------------------------------------
def _schema(history) -> Schema:
    return Schema(
        [ColumnDef(f"a{i}", INT) for i in range(history.num_attributes)]
    )


DESIGNS = sorted(DATA_MODELS) + [
    "partitioned_rlist",
    "split_by_rlist/merge",
    "split_by_rlist/index_nested_loop",
]


def _model(design: str, database: Database, schema: Schema):
    name, _, join_algorithm = design.partition("/")
    if not join_algorithm:
        return name
    return SplitByRlistModel(
        database, "golden", schema, join_algorithm=join_algorithm
    )


def _leave_tombstones(database: Database) -> None:
    """Delete every row and insert it again in heap order: contents and
    clustering survive, every heap now begins with tombstoned slots."""
    for table in database:
        rows = table.rows_snapshot()
        for slot, _row in list(table._iter_slots()):
            table.delete_at(slot)
        table.insert_many(rows)
        assert len(table._rows) == 2 * len(table)


@pytest.mark.parametrize("design", DESIGNS)
def test_every_checkout_charges_what_the_per_row_oracle_charges(
    design, sci_tiny, metered, oracle
):
    database = Database()
    cvd = CVD.from_history(
        database,
        sci_tiny,
        name="golden",
        model=_model(design, database, _schema(sci_tiny)),
        schema=_schema(sci_tiny),
    )
    if design == "partitioned_rlist":
        cvd.model.optimize(storage_threshold_factor=1.5)
    _leave_tombstones(database)
    vids = [commit.vid for commit in sci_tiny.commits]

    def checkouts():
        return [
            measure(database.accountant, lambda: sorted(cvd.checkout(vid).rows))
            for vid in vids
        ]

    def charges(measured):
        return [(delta, io) for _rows, delta, io in measured]

    def rows(measured):
        return [version_rows for version_rows, _delta, _io in measured]

    batched = checkouts()
    for table in database:
        table.vacuum()
    batched_vacuumed = checkouts()
    oracle()
    expected = checkouts()
    assert any(delta.total_rows_read() for delta, _io in charges(expected))
    # Tombstoned slots cost nothing, so the vacuum changes no charge.
    assert charges(batched) == charges(batched_vacuumed) == charges(expected)
    assert rows(batched) == rows(batched_vacuumed) == rows(expected)


# ----------------------------------------------------------------------
# Operator-level cases the checkouts above do not reach
# ----------------------------------------------------------------------
def _people(n: int, accountant=None, **kwargs) -> Table:
    table = Table(
        "people",
        Schema(
            [ColumnDef("id", INT), ColumnDef("name", TEXT), ColumnDef("n", INT)],
            primary_key=("id",),
        ),
        accountant=accountant,
        **kwargs,
    )
    for i in range(n):
        table.insert((i, "x" * (i % 7), i * i))
    return table


def test_first_where_charges_the_rows_up_to_the_hit(metered):
    table = _people(50)
    table.delete_at(3)  # tombstones are never charged
    sizes = [table.schema.row_bytes(r) for r in table.rows_snapshot()]
    for k in (1, 10, 49):
        hit = table.rows_snapshot()[k - 1]
        row, delta, io = measure(
            table.accountant, lambda: table.first_where(col("id") == lit(hit[0]))
        )
        assert row == hit
        assert (delta.seq_rows, delta.bytes_read) == (k, sum(sizes[:k]))
        assert io == {
            "storage.io.seq_rows": k,
            "storage.io.bytes_read": sum(sizes[:k]),
        }


def test_a_scan_dropped_after_one_row_charges_one_row(metered):
    table = _people(50)
    first, delta, _ = measure(table.accountant, lambda: next(iter(table.scan())))
    assert delta.seq_rows == 1
    assert delta.bytes_read == table.schema.row_bytes(first)
    _, delta, io = measure(table.accountant, lambda: table.scan())  # never started
    assert delta.total_rows_read() == 0 and io == {}


def test_reads_that_touch_nothing_record_nothing(metered):
    table = _people(0)
    for read in (
        lambda: list(table.scan()),
        lambda: table.lookup_many("id", []),
    ):
        _, delta, io = measure(table.accountant, read)
        assert delta.total_rows_read() == delta.index_probes == 0 and io == {}
    _, delta, io = measure(table.accountant, lambda: table.lookup("id", 404))
    assert delta.index_probes == 1 and io == {"storage.io.index_probes": 1}


@pytest.mark.parametrize("cluster", [ClusterOrder.INSERTION, ClusterOrder.PRIMARY_KEY])
def test_lookup_many_matches_the_oracle_with_and_without_an_index(
    cluster, metered, oracle
):
    keys = [5, 404, 17, 5]
    indexed = _people(40, cluster_order=cluster)
    bare = _people(40, enforce_primary_key=False)
    indexed.delete_at(17)
    batched = [
        measure(t.accountant, lambda: t.lookup_many("id", iter(keys)))
        for t in (indexed, bare)
    ]
    oracle()
    assert batched == [
        measure(t.accountant, lambda: t.lookup_many("id", iter(keys)))
        for t in (indexed, bare)
    ]
    assert batched[0][1].index_probes == len(keys)


MIXED = Schema(
    [
        ColumnDef("id", INT), ColumnDef("name", TEXT), ColumnDef("score", FLOAT),
        ColumnDef("flag", BOOL), ColumnDef("members", INT_ARRAY),
    ],
    primary_key=("id",),
)


def _mixed_rows(n: int, start: int = 0) -> list[tuple]:
    """Every type, NULLs in every nullable column, arrays both ways."""
    return [
        (
            i,
            None if i % 5 == 0 else "n" * (i % 11),
            None if i % 7 == 0 else i / 3,
            None if i % 3 == 0 else i % 2 == 0,
            None if i % 4 == 0
            else RangeEncodedArray(range(i, 2 * i)) if i % 4 == 1
            else list(range(i % 9)),
        )
        for i in range(start, start + n)
    ]


def _mixed_table(**kwargs) -> Table:
    table = Table("mixed", MIXED, **kwargs)
    table.create_index("name")
    table.create_index("score")
    table.create_index("id", ordered=True)  # (an ordered index holds no NULL)
    return table


def test_insert_many_charges_and_builds_what_row_by_row_inserts_do(metered, oracle):
    rows = _mixed_rows(60)
    batched, twin = _mixed_table(), _mixed_table()
    got = measure(batched.accountant, lambda: batched.insert_many(iter(rows)))
    one = measure(batched.accountant, lambda: batched.insert(_mixed_rows(1, 60)[0]))
    oracle()
    assert got == measure(twin.accountant, lambda: twin.insert_many(iter(rows)))
    assert one == measure(twin.accountant, lambda: twin.insert(_mixed_rows(1, 60)[0]))
    assert one[0] == 60 and got[1].rows_written == 60
    assert batched.rows_snapshot() == twin.rows_snapshot()
    assert batched.storage_bytes() == twin.storage_bytes()
    for column, key in (("id", 17), ("name", "nnn"), ("score", 2.0)):
        assert batched.lookup(column, key) == twin.lookup(column, key) != []


@pytest.mark.parametrize(
    "bad", [(7, "dup", 1.0, True, None), (99, "short"), (99, 5, 1.0, True, None)]
)
def test_a_refused_row_leaves_the_whole_batch_out(bad, metered):
    table = _mixed_table()
    table.insert_many(_mixed_rows(10))
    state = (table.rows_snapshot(), table.storage_bytes(), table._dirty_from)
    batch = _mixed_rows(5, 10) + [bad] + _mixed_rows(5, 15)
    _, delta, io = measure(
        table.accountant,
        lambda: pytest.raises((DuplicateKeyError, SchemaError), table.insert_many, batch),
    )
    assert delta.rows_written == 0 and io == {}
    assert (table.rows_snapshot(), table.storage_bytes(), table._dirty_from) == state
    with pytest.raises(DuplicateKeyError):  # twice within one batch
        table.insert_many(_mixed_rows(3, 20) + _mixed_rows(1, 21))
    assert table.rows_snapshot() == state[0]


@pytest.mark.parametrize("reloaded", [False, True])
def test_reads_of_every_type_match_the_oracle(reloaded, metered, oracle):
    table = _mixed_table(cluster_order=ClusterOrder.PRIMARY_KEY)
    table.insert_many(_mixed_rows(80))
    for slot in (0, 13, 14, 79):
        table.delete_at(slot)
    if reloaded:
        table = _reloaded(table)
    sizes = [0 if r is None else table.schema.row_bytes(r) for r in table._rows]
    for stop in (None, 0, 1, 14, 40, 80):
        live = [r for r in table._rows[:stop] if r is not None]
        assert table._sized(stop) == (len(live), sum(sizes[:stop]))
    reads = {
        "scan": lambda: list(table.scan()),
        "abandoned": lambda: list(islice(table.scan(), 25)),
        "by key": lambda: table.lookup_many("id", [5, 13, 404, 78, 5]),
        "by text": lambda: table.lookup_many("name", ["nnn", None, "absent"]),
        "by decimal": lambda: table.lookup_many("score", [2.0, 11.0]),
        "no index": lambda: table.lookup_many("flag", [True, None]),
    }
    batched = {name: measure(table.accountant, read) for name, read in reads.items()}
    oracle()
    for name, read in reads.items():
        assert batched[name] == measure(table.accountant, read), name
    assert batched["by key"][1].bytes_read == sum(sizes[i] for i in (5, 78, 5))


def test_update_where_charges_rows_at_the_size_they_were_read(metered):
    table = _people(30)
    before_sizes = sum(table.schema.row_bytes(r) for r in table.rows_snapshot())
    _, delta, _ = measure(
        table.accountant,
        lambda: table.update_where(col("id") < lit(10), {"name": lit("longer name")}),
    )
    assert (delta.seq_rows, delta.bytes_read) == (30, before_sizes)
    assert delta.rows_written == 10

    # A rewrite that fails charges the rows read up to and including it.
    sizes = [table.schema.row_bytes(r) for r in table.rows_snapshot()]
    before = table.accountant.snapshot()
    with pytest.raises(SchemaError):
        table.update_where(col("id") >= lit(4), {"n": lit("not an int")})
    delta = table.accountant.snapshot() - before
    assert (delta.seq_rows, delta.bytes_read) == (5, sum(sizes[:5]))


def test_widening_a_column_keeps_the_byte_total_the_scan_charges(metered, oracle):
    table = _people(20)
    table.widen_column("n", FLOAT)
    table.widen_column("id", TEXT)
    _, batched, _ = measure(table.accountant, lambda: list(table.scan()))
    oracle()
    _, expected, _ = measure(table.accountant, lambda: list(table.scan()))
    assert batched == expected
    assert table.storage_bytes(include_indexes=False) == expected.bytes_read


# ----------------------------------------------------------------------
# Across a reload: ``_bytes`` comes from the saved state, sized by the
# processes that wrote the rows. Before ``DataType`` kept its identity
# across pickling, a process that had loaded its schema sized text and
# arrays at the type's base width, so the ``_bytes`` of a state written
# then is not what the rows measure now. A scan charges what THIS
# process reads.
# ----------------------------------------------------------------------
def _reloaded(table: Table, off_by: int = 150) -> Table:
    """``table`` as loaded from such a state: its saved byte counter is
    ``off_by`` more than its rows measure."""
    loaded = pickle.loads(pickle.dumps(table))
    loaded._bytes += off_by
    return loaded


def test_a_reloaded_table_charges_the_sizes_it_reads(metered, oracle):
    table = _reloaded(_people(100))
    n = len(table)
    reads = {
        "full": lambda: list(table.scan()),
        "islice-all": lambda: list(islice(table.scan(), n)),
        "filtered": lambda: list(table.scan_where(col("n") >= lit(0))),
    }
    batched = {name: measure(table.accountant, read) for name, read in reads.items()}
    oracle()
    expected = measure(table.accountant, reads["full"])
    assert expected[1].seq_rows == n
    assert all(outcome == expected for outcome in batched.values())


def test_deletes_after_a_reload_never_drive_the_charge_negative(metered, oracle):
    people = _people(100)
    table = _reloaded(people, off_by=10 - people._bytes)  # saved far too low
    saved_bytes = table.storage_bytes(include_indexes=False)
    for slot in range(99):  # each one subtracts this process's size
        table.delete_at(slot)
    table.insert((100, "a long enough name", 1))
    _, batched, io = measure(table.accountant, lambda: list(table.scan()))
    assert table.storage_bytes(include_indexes=False) < saved_bytes
    oracle()
    _, expected, expected_io = measure(table.accountant, lambda: list(table.scan()))
    assert (batched, io) == (expected, expected_io)
    assert batched.seq_rows == 2 and batched.bytes_read > 0


def test_the_measured_skew_is_never_saved():
    table = _reloaded(_people(10))
    saved = table.__getstate__().keys()
    list(table.scan())
    assert table._bytes_skew is not None
    assert table.__getstate__().keys() == saved
    assert pickle.loads(pickle.dumps(table))._bytes_skew is None


@pytest.mark.parametrize("layout", ["pickle", "paged"])
@pytest.mark.parametrize(
    "model", ["split_by_rlist", "combined_table", "partitioned_rlist"]
)
def test_a_reloaded_repository_charges_what_the_oracle_charges(
    model, layout, tmp_path, metered, oracle
):
    schema = Schema(
        [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
    )
    rows = [("k" * (1 + i % 9) + str(i), i) for i in range(60)]
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    first = orpheus.init("ds", schema, rows, model=model)
    orpheus.cvd("ds").commit(
        rows[5:] + [("extra", 999)], parents=(first,), message="v2", author="alice"
    )
    if layout == "paged":
        paged_save(StateStore(tmp_path), orpheus)
        loaded, _info = StateStore(tmp_path).load(warn=None)
    else:
        loaded = pickle.loads(pickle.dumps(orpheus))
    cvd = loaded.cvd("ds")
    # Written by the reloaded process.
    third = cvd.commit(
        rows[20:] + [("a much longer key than any other", 7)],
        parents=(2,),
        message="v3",
        author="alice",
    )
    for table in loaded.database:
        table._fault_all(index=True)  # page faults are charged as reads too

    def checkouts():
        return [
            measure(loaded.database.accountant, lambda: sorted(cvd.checkout(vid).rows))
            for vid in (first, 2, third)
        ]

    batched = checkouts()
    oracle()
    assert batched == checkouts()
    assert all(delta.bytes_read > 0 for _rows, delta, _io in batched)
