"""A version's rids are one strictly ascending ``array('q')`` on every
physical path: each of the five data models and the partitioned store,
saved on the pickle layout and on the paged one at 64 KiB and 4 KiB
pages, read by the process that committed and by one that reloaded.
Whatever the path, the array holds exactly the oracle's rids, the
model's checkout hands back the same rids, and ``diff``/``v_diff``/
``v_intersect`` agree with set algebra on the oracle. Histories branch
and merge, and change few rows or most of them, so an rlist row is
stored whole or as a delta on a parent, whose chain rebuilds the
version within θ·|v| rids decoded and ``CHAIN_ROWS`` delta rows, as the
row records."""

from __future__ import annotations

import contextlib
import os
import random
import tempfile
from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.commands import Orpheus
from repro.core.models import DATA_MODELS
from repro.invariants import CHAIN_ROWS, THETA
from repro.pagestore import pages as pagefiles
from repro.relational.arrays import RidDelta
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import LAYOUT_ENV, StateStore

SCHEMA = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))
MODELS = [*DATA_MODELS, "partitioned_rlist"]
#: (layout, page bytes): the pickle layout, and the paged one at its
#: default 64 KiB pages and at 4 KiB, where an rlist spans pages.
STORAGE = [("pickle", None), ("paged", None), ("paged", "4096")]


@contextlib.contextmanager
def environment(**values):
    saved = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@st.composite
def histories(draw):
    """The first version's row count, then per commit: which earlier
    version it derives from and which it merges in (None: no merge),
    which of that version's rows it drops and which it changes, how
    many rows it adds, and the row order."""
    first = draw(st.integers(1, 12))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),  # parent, modulo the versions so far
                st.one_of(st.none(), st.integers(0, 10**6)),  # merged
                st.sets(st.integers(0, 40), max_size=6),  # dropped rows
                st.sets(st.integers(0, 40), max_size=12),  # changed rows
                st.integers(0, 6),  # added rows
                st.integers(0, 2**16),  # shuffle seed
            ),
            min_size=1,
            max_size=5,
        )
    )
    return first, steps


def replay(history):
    """Each version's rows, its parents, and the oracle: key -> rid for
    every version, assigned as the CVD does under a primary key — a
    merge takes the first parent's rows, then the other's for keys the
    first lacks; an unchanged row keeps its rid (the first parent's
    where both hold it), every other row takes the next rid in the order
    the committed rows list it."""
    first, steps = history
    rows = [[(f"k{n}", n) for n in range(first)]]
    parents = [()]
    oracle = [{key: n + 1 for n, (key, _value) in enumerate(rows[0])}]
    payloads = {oracle[0][key]: (key, value) for key, value in rows[0]}
    next_rid, next_key = first + 1, first
    for parent, merged, dropped, changed, added, seed in steps:
        sources = [parent % len(rows)]
        if merged is not None and merged % len(rows) != sources[0]:
            sources.append(merged % len(rows))
        base, kept = [], {}
        for source in reversed(sources):  # the first parent's rids win
            kept.update(zip(rows[source], (oracle[source][k] for k, _v in rows[source])))
        for source in sources:
            keys = {key for key, _value in base}
            base += [row for row in rows[source] if row[0] not in keys]
        version = []
        for n, (key, value) in enumerate(base):
            if n in dropped:
                continue
            version.append((key, value + 1000) if n in changed else (key, value))
        version += [(f"k{next_key + n}", n) for n in range(added)]
        next_key += added
        random.Random(seed).shuffle(version)
        assigned = {}
        for row in version:
            rid = kept.get(row)
            if rid is None:
                rid, next_rid = next_rid, next_rid + 1
                payloads[rid] = row
            assigned[row[0]] = rid
        rows.append(version)
        parents.append(tuple(source + 1 for source in sources))
        oracle.append(assigned)
    return rows, parents, oracle, payloads


def build(root, model: str, rows, parents) -> Orpheus:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, rows[0], model=model)
    cvd = orpheus.cvd("ds")
    for version, parent in zip(rows[1:], parents[1:]):
        cvd.commit(version, parents=parent)
    StateStore(root).save(orpheus)
    return orpheus


def rlist_rows(cvd) -> list[tuple]:
    """(partition, vid, row value) of every rlist row the model stores."""
    partitions = getattr(cvd.model, "_partitions", None)
    if partitions is None:
        partitions = [cvd.model] if cvd.model.model_name == "split_by_rlist" else []
    return [
        (partition, vid, row)
        for partition in partitions
        for vid, row in partition.versioning_table.rows_snapshot()
    ]


def check(cvd, oracle, payloads) -> None:
    for partition, vid, row in rlist_rows(cvd):
        size = len(oracle[vid - 1])
        cost, depth, link = 0, 0, row
        while type(link) is RidDelta:  # the chain as stored, row by row
            cost, depth = cost + len(link), depth + 1
            link = partition._rlist(link.base)
        cost += len(link)
        assert partition.recreation_chain(vid) == (cost, depth)
        assert cost <= THETA * size and depth <= CHAIN_ROWS
        if type(row) is RidDelta:
            assert row.base in cvd.versions.get(vid).parents
            assert len(row) < size
    sets = {vid: set(keys.values()) for vid, keys in enumerate(oracle, start=1)}
    for vid, keys in enumerate(oracle, start=1):
        rids = cvd.membership(vid)
        assert type(rids) is array and rids.typecode == "q", type(rids)
        assert all(a < b for a, b in zip(rids, rids[1:])), rids
        assert set(rids) == sets[vid]
        stored = cvd.payloads_of(rids, vid)
        assert {payload[0]: rid for rid, payload in zip(rids, stored)} == keys
        assert cvd.model.checkout_columns(vid)[0] == list(rids)

    def rows_of(rids) -> list[tuple]:
        return [payloads[rid] for rid in sorted(rids)]

    vids = sorted(sets)
    for a in vids:
        for b in vids:
            assert cvd.diff(a, b) == (
                rows_of(sets[a] - sets[b]), rows_of(sets[b] - sets[a])
            )
            assert cvd.v_intersect([a, b]) == rows_of(sets[a] & sets[b])
    everything = set().union(*sets.values())
    assert cvd.v_diff(vids, vids[:1]) == rows_of(everything - sets[vids[0]])


#: Both row forms and a merge: version 2 changes one row of 12 (a
#: delta), version 3 changes eleven (whole), version 4 merges 2 and 3
#: with a row dropped (a delta on one of them).
BOTH_FORMS = (12, [
    (0, None, set(), {0}, 0, 1),
    (1, None, set(), set(range(1, 12)), 0, 2),
    (1, 2, {3}, set(), 1, 3),
])


def test_the_both_forms_history_stores_both_forms():
    rows, parents, _oracle, _payloads = replay(BOTH_FORMS)
    with tempfile.TemporaryDirectory() as root:
        cvd = build(root, "split_by_rlist", rows, parents).cvd("ds")
    forms = {vid: type(row) for _p, vid, row in rlist_rows(cvd)}
    assert forms == {1: array, 2: RidDelta, 3: array, 4: RidDelta}
    assert parents[3] == (2, 3)


@settings(max_examples=25, deadline=None)
@given(histories())
@example(BOTH_FORMS)
def test_every_path_holds_a_version_as_an_ascending_rid_array(history):
    rows, parents, oracle, payloads = replay(history)
    for model in MODELS:
        for layout, page_bytes in STORAGE:
            with tempfile.TemporaryDirectory() as root, environment(
                **{LAYOUT_ENV: layout, pagefiles.PAGE_BYTES_ENV: page_bytes}
            ):
                live = build(root, model, rows, parents)
                reloaded, _info = StateStore(root).load(warn=None)
                for orpheus in (live, reloaded):
                    check(orpheus.cvd("ds"), oracle, payloads)
