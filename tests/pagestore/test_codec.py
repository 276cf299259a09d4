"""Segment codec round-trips: the v2 codecs must reproduce their inputs
exactly (types included) at a cost in Python calls that does not grow
with the segment, and the decode-only v1 codecs must keep reading what
earlier saves wrote."""

from __future__ import annotations

import gc
import pickle
import random
import sys
import zlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.pagestore import codec
from repro.relational.arrays import RidDelta, rid_array


def exact(value: object) -> object:
    """``value`` with every type spelled out, so that ``True == 1``
    cannot pass for equal. A rid array is exactly the list of integers
    it stands for: that is how it is stored, and such a list decodes as
    one."""
    if isinstance(value, array):
        assert value.typecode == "q", value
        return ("list", [exact(item) for item in value])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted(map(exact, value), key=repr))
    if isinstance(value, dict):
        return ("dict", sorted(((exact(k), exact(v)) for k, v in value.items()), key=repr))
    return (type(value).__name__, value)


def rows_round_trip(rows, n_cols):
    name, blob = codec.encode_table_rows(rows, n_cols)
    return name, codec.decode_segment(name, blob)


# ----------------------------------------------------------------------
# rows.v2 — columnar table slices
# ----------------------------------------------------------------------
def test_rows_int_and_text_columns_round_trip():
    rows = [("a", 1), ("b", 2), ("c", 300)]
    assert rows_round_trip(rows, 2) == (codec.ROWS_V2, rows)


def test_rows_tombstones_survive():
    rows = [None, ("a", 1), None, None, ("c", 3), None]
    assert rows_round_trip(rows, 2) == (codec.ROWS_V2, rows)


@pytest.mark.parametrize("rows", [[], [None], [None] * 9])
def test_rows_empty_and_all_tombstone_heaps(rows):
    assert rows_round_trip(rows, 3) == (codec.ROWS_V2, rows)


def test_rows_of_no_columns_keep_their_count():
    rows = [(), None, ()]
    assert rows_round_trip(rows, 0) == (codec.ROWS_V2, rows)


def test_rows_mixed_types_stay_columnar():
    rows = [(1, {"x": 1}), (2, None), (3, "text")]
    assert rows_round_trip(rows, 2) == (codec.ROWS_V2, rows)


def test_bool_in_an_int_column_is_not_collapsed():
    rows = [(1,), (True,), (0,), (False,)]
    name, decoded = rows_round_trip(rows, 1)
    assert name == codec.ROWS_V2
    assert exact(decoded) == exact(rows)


@pytest.mark.parametrize("top", [2**31 - 1, 2**31, 2**63 - 1])
def test_falling_values_at_each_lane_width_round_trip(top):
    """The widest rise and the widest fall a lane can hold, next to each
    other, as an int column and inside a rid list."""
    values = [top, 0, top, top - 1, 1, 0, 0, top]
    rows = [(value, values[: index + 1]) for index, value in enumerate(values)]
    name, decoded = rows_round_trip(rows, 2)
    assert name == codec.ROWS_V2
    assert exact(decoded) == exact(rows)
    assert isinstance(codec._pack_column(values), codec.array)


def test_negative_ints_keep_the_column_plain_and_exact():
    rows = [(5, [3, -1]), (-7, [2]), (0, [])]
    assert exact(rows_round_trip(rows, 2)[1]) == exact(rows)
    assert codec._pack_column([5, -7, 0]) == [5, -7, 0]


def test_ints_beyond_int64_survive():
    rows = [(2**63,), (-(2**63) - 1,), (2**70,), (0,)]
    assert exact(rows_round_trip(rows, 1)[1]) == exact(rows)
    # Each value fits int64 but their difference does not.
    rows = [(2**63 - 1,), (-(2**63),)]
    assert exact(rows_round_trip(rows, 1)[1]) == exact(rows)


def test_rows_arity_mismatch_falls_back_to_pickle_v1():
    """Mid-schema-evolution heaps can hold rows of different widths;
    the columnar codec must punt rather than mis-slice them."""
    rows = [("a", 1), None, ("b", 2, "extra")]
    assert rows_round_trip(rows, 2) == (codec.PICKLE_V1, rows)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def test_pickle_v1_round_trips_anything():
    obj = {"arbitrary": [1, 2, 3]}
    blob = codec.encode_segment(codec.PICKLE_V1, obj)
    assert codec.decode_segment(codec.PICKLE_V1, blob) == obj


@pytest.mark.parametrize(
    "name", ["nope.v9", codec.ROWS_V1, "records.v2", "rlistmap.v2"]
)
def test_unknown_and_decode_only_codecs_do_not_encode(name):
    with pytest.raises(ValueError):
        codec.encode_segment(name, {})


def test_unknown_codec_does_not_decode():
    with pytest.raises(ValueError):
        codec.decode_segment("nope.v9", b"")


# ----------------------------------------------------------------------
# Exact round-trip properties
# ----------------------------------------------------------------------
ints = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**31), 2**31),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
)
id_lists = st.lists(st.integers(0, 2**34), unique=True, max_size=12).map(sorted)
cells = {
    "int": ints,
    "rid": st.integers(0, 2**40),
    "int+bool": st.one_of(ints, st.booleans()),
    "int+none": st.one_of(ints, st.none()),
    "text": st.text(max_size=6),
    "float": st.floats(allow_nan=False),
    "ids": id_lists,
    "ids+none": st.one_of(id_lists, st.none()),
    "any lists": st.lists(st.one_of(ints, st.booleans()), max_size=6),
}


@st.composite
def heaps(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), max_size=5))
    row = st.tuples(*(cells[kind] for kind in kinds))
    return draw(st.lists(st.one_of(st.none(), row), max_size=25)), len(kinds)


@settings(max_examples=200, deadline=None)
@given(heaps())
def test_any_heap_round_trips_exactly(heap):
    rows, n_cols = heap
    name, decoded = rows_round_trip(rows, n_cols)
    assert name == codec.ROWS_V2
    assert exact(decoded) == exact(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(ints, st.text(max_size=3)), min_size=1, max_size=10),
    st.lists(st.tuples(ints), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_any_ragged_heap_falls_back_to_pickle_v1(wide, narrow, rng):
    rows = wide + narrow + [None]
    rng.shuffle(rows)
    name, decoded = rows_round_trip(rows, 2)
    assert name == codec.PICKLE_V1
    assert exact(decoded) == exact(rows)


# ----------------------------------------------------------------------
# Size: the fixed-width, compressed v2 layouts against v1's varints
# ----------------------------------------------------------------------
def _versioned_rlists(n_rids: int = 2000, n_versions: int = 30):
    """Versions of ``n_rids`` rids: long dense runs, each version swapping
    a seeded 5 % of its parent's rids for fresh ones."""
    rng = random.Random(7)
    swaps = n_rids // 20
    members, next_rid = list(range(1, n_rids + 1)), n_rids + 1
    heap = []
    for vid in range(1, n_versions + 1):
        heap.append((vid, list(members)))
        doomed = set(rng.sample(range(len(members)), swaps))
        members = [m for i, m in enumerate(members) if i not in doomed]
        members += range(next_rid, next_rid + swaps)
        next_rid += swaps
    return heap


def _data_rows() -> list[tuple[int, str, int, int]]:
    rng = random.Random(7)
    return [
        (i, f"k{i:06d}", rng.randrange(100_000, 1_000_000), rng.randrange(10, 100))
        for i in range(1, 5001)
    ]


def _rlist_segment_size(rlists) -> int:
    return len(codec.encode_table_rows(rlists, 2)[1])


def test_v2_segments_are_no_larger_than_v1_wrote():
    """The v1 sizes are what the v1 encoders (deleted with this test's
    arrival) produced for the very same seeded inputs."""
    plain = _rlist_segment_size(_versioned_rlists())
    assert plain <= 39_165
    assert len(codec.encode_table_rows(_data_rows(), 4)[1]) <= 75_972


def test_v2_rlists_stay_no_larger_than_v1_past_the_compression_window():
    """One version's 20,000 rids no longer fit the 32 KB window zlib
    matches in, so nothing here can come from one version's list
    repeating its parent's: each list has to be compact by itself."""
    plain = _rlist_segment_size(_versioned_rlists(20_000, 24))
    assert plain <= 286_119


def test_append_only_rlists_cost_a_few_bytes_a_version():
    """30 versions that only ever append: v1 wrote one range per version
    (188 and 151 bytes); v2 leaves the runs of 1-deltas to the
    compression pass, which is some seventy bytes a version, and a plain
    pickled list (10.9 KB) would fail this."""
    dense = [(vid, list(range(1, 2001 + 50 * vid))) for vid in range(1, 31)]
    plain = _rlist_segment_size(dense)
    assert plain < 2_500


def test_rid_deltas_are_written_as_their_members_never_as_objects():
    """A column of rid arrays and ``RidDelta`` rows is its heads (base,
    R and depth), two lengths a row and one delta array of every member:
    no pickled class
    (and no pickle opcode per rid) in the blob. It decodes to equal rows,
    a delta's members as rid arrays; a column without a delta keeps the
    list kind, byte for byte."""
    whole = rid_array(range(1, 3001))
    delta = RidDelta(1, rid_array(range(10, 160)), rid_array(range(3001, 3151)), 3300)
    empty = RidDelta(2, rid_array(), rid_array(), 3300, 2)
    rows = [(1, whole), (2, delta), None, (3, empty)]
    name, blob = codec.encode_table_rows(rows, 2)
    assert name == codec.ROWS_V2 and b"RidDelta" not in zlib.decompress(blob)
    _mask, (_vids, packed) = pickle.loads(zlib.decompress(blob))
    kind, heads, lengths, members = packed
    assert heads == [None, (1, 3300, 1), (2, 3300, 2)]
    assert lengths == [3000, 0, 150, 150, 0, 0]
    assert type(members) is array and len(members) == 3300
    decoded = codec.decode_segment(name, blob)
    assert decoded == rows
    assert type(decoded[1][1].removed) is array and type(decoded[0][1]) is array
    lists_only = [(1, whole), (3, rid_array([1, 5]))]
    assert codec.encode_table_rows(lists_only, 2) == codec.encode_table_rows(
        [(1, whole.tolist()), (3, [1, 5])], 2
    )


# ----------------------------------------------------------------------
# v1 stays readable: blobs written by the v1 encoders at commit 133513a
# ----------------------------------------------------------------------
def test_golden_rows_v1_blob_decodes():
    """Every column tag (int, int-array with both value flags, pickled)
    and a tombstone. A value flagged range-encoded decodes as the rid
    array it stands for, as an unflagged one does."""
    blob = (
        b"\x04\x04\r\x01\x02\x0b\x8a\x80\x80\x80\x80@\x00\x80\x05\x95\x11\x00"
        b"\x00\x00\x00\x00\x00\x00]\x94(\x8c\x01a\x94\x8c\x01b\x94\x8c\x01c"
        b"\x94e.\x02\x00\x02\x02\x02\x0c\x00\x01\x02\x08\x02\x1c\x00\x00\x00"
        b"\x00\x80\x05\x95\x10\x00\x00\x00\x00\x00\x00\x00]\x94(N\x88G@\x04"
        b"\x00\x00\x00\x00\x00\x00e."
    )
    expected = [
        (1, "a", [1, 2, 3, 9], None),
        None,
        (-5, "b", [4, 5, 6, 20], True),
        (2**40, "c", [], 2.5),
    ]
    decoded = codec.decode_segment(codec.ROWS_V1, blob)
    assert exact(decoded) == exact(expected)
    assert all(type(row[2]) is array for row in decoded if row is not None)
    assert decoded[2][2].typecode == "q"


# ----------------------------------------------------------------------
# Structure: no per-value Python in the v2 paths
# ----------------------------------------------------------------------
def python_calls(operation) -> int:
    """Python-level ``call`` events (function entries and generator
    resumptions) while ``operation`` runs; C builtins do not count."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()  # a collection may run Python callbacks (Hypothesis has one)
    sys.setprofile(profiler)
    try:
        operation()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _heap(n: int) -> list[tuple | None]:
    rows = [
        (i, (i * 7919) % 1000, f"text-{i}", rid_array(range(i, i + 4)))
        for i in range(n)
    ]
    rows[n // 2] = None
    return rows


def _rows_cycle(n: int):
    rows = _heap(n)

    def cycle():
        name, blob = codec.encode_table_rows(rows, 4)
        assert name == codec.ROWS_V2
        assert codec.decode_segment(name, blob) == rows

    return cycle


def test_python_calls_do_not_grow_with_the_segment():
    cycle = _rows_cycle
    small, large = python_calls(cycle(10)), python_calls(cycle(10_000))
    assert large <= small + 5, (small, large)
    assert small < 60
