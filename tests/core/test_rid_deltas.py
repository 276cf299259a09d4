"""A version's rlist row is stored whole or as a delta on a parent,
counted rather than timed: k changed rows of an N-row version store
O(k) rids, a pull in a fresh process decodes at most θ·|v| rids, and a
long-lived process rebuilds each version at most once and a warm read
decodes none."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cli import main
from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.invariants import CHAIN_ROWS, THETA
from repro.relational.arrays import RidDelta
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, INT_ARRAY, TEXT
from repro.resilience.statestore import LAYOUT_ENV, StateStore

from tests.service.conftest import DaemonHandle

SCHEMA = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))


def rlist_row(cvd, vid: int):
    partitions = getattr(cvd.model, "_partitions", None) or [cvd.model]
    for partition in partitions:
        row = partition._rlist(vid)
        if row is not None:
            return row
    raise KeyError(vid)


@pytest.mark.parametrize("model", ["split_by_rlist", "partitioned_rlist"])
@pytest.mark.parametrize("rows", [3_000, 30_000])
def test_k_changed_rows_store_o_k_rids(model, rows):
    """Each commit changes k = 10 rows: its row holds the 10 rids it
    drops and the 10 it adds, 84 bytes accounted against 4 N + 4."""
    cvd = CVD(Database(), "d", SCHEMA, model=model)
    current = [(f"k{n:06d}", n) for n in range(rows)]
    vid = cvd.commit(current)
    rng = random.Random(rows)
    for step in range(1, 6):
        for n in rng.sample(range(rows), 10):
            key, value = current[n]
            current[n] = (key, value + step * rows)
        vid = cvd.commit(current, parents=[vid])
        row = rlist_row(cvd, vid)
        assert type(row) is RidDelta and row.base == vid - 1
        assert (len(row.removed), len(row.added)) == (10, 10)
        assert INT_ARRAY.sizeof(row) == 4 * 20 + 4
        assert list(row.apply(cvd.membership(vid - 1))) == list(cvd.membership(vid))
    assert type(rlist_row(cvd, 1)) is not RidDelta


def five_percent_history(root, versions: int = 30, rows: int = 600) -> dict:
    """``versions`` versions, each swapping a seeded 5 % of its parent's
    rows for new ones; saved. vid -> its row count."""
    rng = random.Random(2053)
    current = [(f"k{n:05d}", n) for n in range(rows)]
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    vid = orpheus.init("ds", SCHEMA, current)
    cvd = orpheus.cvd("ds")
    next_key = rows
    for _ in range(versions - 1):
        doomed = set(rng.sample(range(rows), rows // 20))
        current = [row for n, row in enumerate(current) if n not in doomed]
        current += [(f"k{next_key + n:05d}", n) for n in range(rows // 20)]
        next_key += rows // 20
        vid = cvd.commit(current, parents=[vid])
    StateStore(root).save(orpheus)
    return {vid: len(cvd.membership(vid)) for vid in cvd.versions.vids()}


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_a_one_shot_pull_decodes_at_most_theta_rids(tmp_path, monkeypatch, layout):
    """What a pull reads of the rlist rows, summed over the rows of its
    recreation chain, is at most θ·|v| rids; a 5 % history (600 rows, 30
    rids a swap) would store ten deltas between whole rows under θ, and
    stores ``CHAIN_ROWS``, eight."""
    monkeypatch.setenv(LAYOUT_ENV, layout)
    sizes = five_percent_history(tmp_path)
    read = SplitByRlistModel._rlist
    decoded = Counter()

    def counting(model, vid):
        row = read(model, vid)
        decoded[vid] += 0 if row is None else len(row)
        return row

    monkeypatch.setattr(SplitByRlistModel, "_rlist", counting)
    chains = []
    for vid, size in sizes.items():
        orpheus, _info = StateStore(tmp_path).load(warn=None)
        decoded.clear()
        params = {"dataset": "ds", "versions": [vid], "file": str(tmp_path / "pull.csv")}
        assert orpheus.execute("checkout", params, "alice")["rows"] == size
        assert sum(decoded.values()) <= THETA * size
        chains.append(len(decoded))
    assert max(chains) == CHAIN_ROWS + 1 and min(chains) == 1, chains


def test_a_warm_daemon_rebuilds_each_version_once_and_a_warm_read_decodes_none(
    tmp_path, monkeypatch
):
    """orpheusd over a repository a CLI wrote (its memo starts empty),
    with no version cache: every inline read goes to the CVD. The first
    pass, newest version first, rebuilds each version stored as a delta
    exactly once, each from a whole row or a version it rebuilt; the
    second reads no rlist row and rebuilds nothing."""
    monkeypatch.delenv(LAYOUT_ENV, raising=False)
    sizes = five_percent_history(tmp_path)
    deltas = [
        vid for vid, row in StateStore(tmp_path).load(warn=None)[0]
        .cvd("ds").model.versioning_table.rows_snapshot()
        if type(row) is RidDelta
    ]
    applied, reads = Counter(), Counter()
    apply, read = RidDelta.apply, SplitByRlistModel._rlist
    monkeypatch.setattr(
        RidDelta, "apply",
        lambda delta, rids: applied.update([delta.base]) or apply(delta, rids),
    )
    monkeypatch.setattr(
        SplitByRlistModel, "_rlist",
        lambda model, vid: reads.update([vid]) or read(model, vid),
    )
    with DaemonHandle(tmp_path, cache_bytes=0) as handle, handle.client() as client:
        for vid, size in sorted(sizes.items(), reverse=True):
            assert client.checkout("ds", [vid], inline=True)["rows"] == size
        assert len(deltas) > 20 and sum(applied.values()) == len(deltas)
        applied.clear(), reads.clear()
        for vid, size in sizes.items():
            assert client.checkout("ds", [vid], inline=True)["rows"] == size
        assert not applied and not reads
    assert main(["--root", str(tmp_path), "doctor"]) == 0


def test_readers_rebuilding_chains_at_once_agree(tmp_path):
    """Four threads (more than the cores) rebuild every version of a
    freshly loaded history into the one memo at once, each from the
    newest down, with a short switch interval: every thread reads every
    version's oracle rids, and the memo ends holding exactly those."""
    import sys
    import threading

    sizes = five_percent_history(tmp_path)
    alone = StateStore(tmp_path).load(warn=None)[0].cvd("ds")
    oracle = {vid: list(alone.membership(vid)) for vid in sizes}
    cvd = StateStore(tmp_path).load(warn=None)[0].cvd("ds")
    wrong, switch = [], sys.getswitchinterval()

    def read() -> None:
        for vid in sorted(sizes, reverse=True):
            if list(cvd.membership(vid)) != oracle[vid]:
                wrong.append(vid)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert {vid: list(rids) for vid, rids in cvd._membership.items()} == oracle


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_an_append_only_history_reads_a_bounded_chain(tmp_path, monkeypatch, layout):
    """120 commits that each append one row: R = |v| at every step, so
    R alone would chain every version onto the first. A pull in a fresh
    process reads at most ``CHAIN_ROWS`` delta rows and one whole row,
    and a commit reads only its parent's row to choose its own."""
    monkeypatch.setenv(LAYOUT_ENV, layout)
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    current = [(f"k{n:05d}", n) for n in range(200)]
    vid = orpheus.init("ds", SCHEMA, current)
    cvd = orpheus.cvd("ds")
    for n in range(120):
        current.append((f"a{n:05d}", n))
        vid = cvd.commit(current, parents=[vid])
    StateStore(tmp_path).save(orpheus)
    read = SplitByRlistModel._rlist
    rows = Counter()
    monkeypatch.setattr(
        SplitByRlistModel, "_rlist",
        lambda model, vid: rows.update([vid]) or read(model, vid),
    )
    chains = []
    for pulled in (vid, vid - 1, vid // 2, 9, 2):
        orpheus, _info = StateStore(tmp_path).load(warn=None)
        rows.clear()
        params = {"dataset": "ds", "versions": [pulled], "file": str(tmp_path / "p.csv")}
        assert orpheus.execute("checkout", params, "alice")["rows"] == 199 + pulled
        chains.append(sum(rows.values()))
    assert max(chains) == CHAIN_ROWS + 1 and min(chains) >= 1, chains
    rows.clear()
    orpheus.cvd("ds").commit(current + [("z", 0)], parents=[vid])
    assert max(rows.values()) <= 2 and len(rows) <= CHAIN_ROWS + 2, rows
