"""A version's rids are one strictly ascending ``array('q')`` on every
physical path: each of the five data models and the partitioned store,
saved on the pickle layout and on the paged one at 64 KiB and 4 KiB
pages, read by the process that committed and by one that reloaded.
Whatever the path, the array holds exactly the oracle's rids, the
model's checkout hands back the same rids, and ``diff``/``v_diff``/
``v_intersect`` agree with set algebra on the oracle."""

from __future__ import annotations

import contextlib
import os
import random
import tempfile
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import Orpheus
from repro.core.models import DATA_MODELS
from repro.pagestore import pages as pagefiles
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
    version it derives from, which of that version's rows it drops and
    which it changes, how many rows it adds, and the row order."""
    first = draw(st.integers(1, 12))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),  # parent, modulo the versions so far
                st.sets(st.integers(0, 40), max_size=6),  # dropped rows
                st.sets(st.integers(0, 40), max_size=4),  # changed rows
                st.integers(0, 6),  # added rows
                st.integers(0, 2**16),  # shuffle seed
            ),
            min_size=1,
            max_size=5,
        )
    )
    return first, steps


def replay(history):
    """Each version's rows, its parent, and the oracle: key -> rid for
    every version, assigned as the CVD does for one parent under a
    primary key — an unchanged row keeps its rid, every other row takes
    the next rid in the order the committed rows list it."""
    first, steps = history
    rows = [[(f"k{n}", n) for n in range(first)]]
    parents = [None]
    oracle = [{key: n + 1 for n, (key, _value) in enumerate(rows[0])}]
    payloads = {oracle[0][key]: (key, value) for key, value in rows[0]}
    next_rid, next_key = first + 1, first
    for parent, dropped, changed, added, seed in steps:
        parent %= len(rows)
        base = rows[parent]
        version = []
        for n, (key, value) in enumerate(base):
            if n in dropped:
                continue
            version.append((key, value + 1000) if n in changed else (key, value))
        version += [(f"k{next_key + n}", n) for n in range(added)]
        next_key += added
        random.Random(seed).shuffle(version)
        kept = dict(zip(base, (oracle[parent][key] for key, _value in base)))
        assigned = {}
        for row in version:
            rid = kept.get(row)
            if rid is None:
                rid, next_rid = next_rid, next_rid + 1
                payloads[rid] = row
            assigned[row[0]] = rid
        rows.append(version)
        parents.append(parent + 1)
        oracle.append(assigned)
    return rows, parents, oracle, payloads


def build(root, model: str, rows, parents) -> Orpheus:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, rows[0], model=model)
    cvd = orpheus.cvd("ds")
    for version, parent in zip(rows[1:], parents[1:]):
        cvd.commit(version, parents=(parent,))
    StateStore(root).save(orpheus)
    return orpheus


def check(cvd, oracle, payloads) -> None:
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


@settings(max_examples=25, deadline=None)
@given(histories())
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
