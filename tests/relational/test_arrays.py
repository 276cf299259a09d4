"""Tests for rid arrays and rid deltas, the two forms of an rlist row."""

import pickle
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.arrays import (
    RidDelta,
    ascending,
    rid_array,
    rids_within,
    rids_without,
)
from repro.relational.types import INT_ARRAY


def test_a_rid_array_holds_64_bit_rids_in_the_order_given():
    rids = rid_array([5, 2**40, -1, 3])
    assert type(rids) is array and rids.typecode == "q"
    assert rids.tolist() == [5, 2**40, -1, 3]
    assert rid_array() == rid_array([]) and len(rid_array()) == 0


def test_ascending_means_strictly_ascending():
    assert ascending(rid_array()) and ascending([7]) and ascending([1, 2, 9])
    assert not ascending([1, 1, 2])  # a repeated rid
    assert not ascending([1, 3, 2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 80), max_size=60), st.sets(st.integers(0, 80)))
def test_rids_without_and_within_split_rids_keeping_their_order(rids, probe):
    """Each rid goes to exactly one side, and each side keeps the order
    the rids came in, whatever it was."""
    without, within = rids_without(rids, probe), rids_within(rids, probe)
    assert type(without) is array and type(within) is array
    assert without.tolist() == [rid for rid in rids if rid not in probe]
    assert within.tolist() == [rid for rid in rids if rid in probe]


def test_int_array_takes_rid_arrays_int_lists_and_deltas_only():
    """The two forms of an rlist row, and the list a pickle-layout load
    leaves in a whole row; nothing else."""
    assert INT_ARRAY.validate(rid_array([1, 2]))
    assert INT_ARRAY.validate([1, 2]) and INT_ARRAY.validate((3,))
    assert INT_ARRAY.validate(RidDelta(1, [2], [3]))
    assert INT_ARRAY.validate(None)
    assert not INT_ARRAY.validate(array("i", [1, 2]))  # not 64-bit rids
    assert not INT_ARRAY.validate([1, "2"])
    assert not INT_ARRAY.validate(range(3))
    assert INT_ARRAY.sizeof(rid_array(range(10))) == INT_ARRAY.sizeof(list(range(10))) == 44


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.integers(1, 300), max_size=120),
    st.sets(st.integers(1, 400), max_size=120),
)
def test_a_rid_delta_rebuilds_any_version_from_any_base(base, target):
    """Removed and added rids ascend, and applying the delta to the
    base's rids gives the target's, ascending, wherever the added rids
    fall among the kept ones (a merge's do not all come last)."""
    base_rids, rids = rid_array(sorted(base)), rid_array(sorted(target))
    delta = RidDelta.between(7, base_rids, rids)
    assert delta.base == 7
    assert list(delta.removed) == sorted(base - target)
    assert list(delta.added) == sorted(target - base)
    assert len(delta) == len(base ^ target)
    rebuilt = delta.apply(base_rids)
    assert type(rebuilt) is array and rebuilt == rids
    assert base_rids == rid_array(sorted(base))  # the base is not touched
    assert INT_ARRAY.validate(delta) and INT_ARRAY.sizeof(delta) == 4 * len(delta) + 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(1, 60), max_size=40), min_size=2, max_size=6))
def test_a_chain_of_rid_deltas_makes_one(versions):
    """Deltas between consecutive versions, made one, rebuild the last
    version from the first, however rids come, go and come back."""
    rids = [rid_array(sorted(version)) for version in versions]
    deltas = [
        RidDelta.between(n, before, after) for n, (before, after) in enumerate(zip(rids, rids[1:]))
    ]
    made = RidDelta.chained(deltas)
    assert made.base == 0
    assert made.apply(rids[0]) == rids[-1]
    assert list(made.removed) == sorted(versions[0] - versions[-1])
    assert list(made.added) == sorted(versions[-1] - versions[0])


def test_a_rid_delta_on_a_chain_adds_its_members_to_the_chain():
    """R grows by the rids the delta decodes, depth by its one row; a
    delta made on a whole row starts the chain at R = |delta|."""
    base, rids = rid_array([1, 2, 3, 4]), rid_array([2, 3, 4, 5, 6])
    first = RidDelta.between(1, base, rids)
    assert (first.cost, first.depth) == (3, 1)
    second = RidDelta.between(2, rids, rid_array([3, 4, 5, 6, 7]), under=(first.cost, first.depth))
    assert (second.removed.tolist(), second.added.tolist()) == ([2], [7])
    assert (second.cost, second.depth) == (5, 2)
    assert RidDelta(9, [1], [2, 3]).cost == 3


def test_apply_appends_new_rids_and_merges_others_in():
    """A commit's new rids come after every kept one and are appended;
    a merge's fall among them and are sorted in. The base is not
    touched either way."""
    base = rid_array([1, 2, 3, 4])
    appended = RidDelta(1, [2], [8, 9]).apply(base)
    merged = RidDelta(1, [4], [0, 2, 3]).apply(rid_array([1, 4]))
    assert type(appended) is array and appended.tolist() == [1, 3, 4, 8, 9]
    assert type(merged) is array and merged.tolist() == [0, 1, 2, 3]
    assert base.tolist() == [1, 2, 3, 4]
    assert RidDelta(1, [1, 2, 3, 4], [5]).apply(base).tolist() == [5]
    assert RidDelta(1, [], []).apply(base) == base


def test_a_chain_of_one_rid_delta_is_that_delta():
    delta = RidDelta(4, [1], [9], cost=12, depth=3)
    assert RidDelta.chained([delta]) is delta


def test_rid_deltas_are_equal_by_base_members_and_chain():
    delta = RidDelta(1, [2], [3, 4], cost=5, depth=2)
    assert delta == RidDelta(1, rid_array([2]), rid_array([3, 4]), 5, 2)
    assert delta != RidDelta(2, [2], [3, 4], 5, 2)
    assert delta != RidDelta(1, [2], [3], 5, 2)
    assert delta != RidDelta(1, [2], [3, 4], 6, 2)
    assert delta != RidDelta(1, [2], [3, 4], 5, 1)
    assert delta != [2, 3, 4]
    assert repr(delta) == "RidDelta(1, -1, +2)"


def test_a_rid_delta_pickles_as_its_members():
    """A pickle holds the members as lists, and loads to an equal delta
    whose members are rid arrays again."""
    delta = RidDelta(3, rid_array([1, 2]), rid_array([7]), cost=9, depth=2)
    assert delta.__reduce__() == (RidDelta, (3, [1, 2], [7], 9, 2))
    loaded = pickle.loads(pickle.dumps(delta))
    assert loaded == delta
    assert type(loaded.removed) is array and type(loaded.added) is array
    assert (loaded.cost, loaded.depth) == (9, 2)


class TestWholeOrDeltaRows:
    def test_checkout_is_the_same_from_deltas_as_from_another_model(self, sci_tiny):
        """Split-by-rlist stores most of a history's rows as deltas; every
        version checks out as split-by-vlist, which stores no rlist,
        checks it out, and a delta row is smaller than its whole row."""
        from repro.core.cvd import CVD
        from repro.relational.database import Database
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT

        schema = Schema([ColumnDef(f"a{i}", INT) for i in range(sci_tiny.num_attributes)])
        contents, cvds = {}, {}
        for model in ("split_by_rlist", "split_by_vlist"):
            cvd = CVD.from_history(Database(), sci_tiny, name="c", model=model, schema=schema)
            contents[model] = {
                c.vid: cvd.model.checkout_columns(c.vid) for c in sci_tiny.commits[::9]
            }
            cvds[model] = cvd
        assert contents["split_by_rlist"] == contents["split_by_vlist"]
        cvd = cvds["split_by_rlist"]
        rows = dict(cvd.model.versioning_table.rows_snapshot())
        deltas = {vid: row for vid, row in rows.items() if type(row) is RidDelta}
        assert len(deltas) > len(rows) // 2
        for vid, delta in deltas.items():
            assert INT_ARRAY.sizeof(delta) < INT_ARRAY.sizeof(cvd.membership(vid))
