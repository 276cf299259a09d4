"""Segment encodings for the paged store.

A *segment* is one logical unit of repository state — a physical
table's rows — encoded to bytes, sliced into pages, and decoded back on
fault. Saves write:

``rows.v2``
    Columnar table slices: a live-slot mask (``None`` = tombstone), then
    one entry per column. A column of non-negative integers is a
    delta-encoded :class:`array.array`; a column of rid lists is the
    lists' lengths plus one delta array of all their members, so a run
    of consecutive rids costs the compressor a repeated ``1``; any other
    column (text, mixed types) is the column itself — still
    column-major, so a wide table compresses per attribute, and a
    :class:`~repro.relational.arrays.RangeEncodedArray` is written as
    its ranges, never as its members. A rid array (``array('q')``) is
    written as the list of its members would be, byte for byte, and
    every list of such a column decodes as a rid array. A column that
    also holds :class:`~repro.relational.arrays.RidDelta` rows is its
    heads (a delta's base, R and depth; None for a whole row), two
    lengths a row (a whole row's and 0, or a delta's removed and added)
    and one delta array of all the members, never a pickled object.
``pickle.v1``
    Fallback for irregular shapes (e.g. rows of mixed arity mid
    schema-evolution).

A v2 segment is one pickle of those parts under one ``zlib`` level-1
pass, and every loop over stored values runs inside a C builtin
(``map`` / ``zip`` / ``itertools`` / the pickler), so encoding or
decoding a segment costs the same few Python calls whatever its size.
``rows.v1`` (zigzag-delta varints and run lengths, read one integer at
a time) is decode-only: repositories written before v2 still load, and
a clean segment keeps its v1 pages until something dirties it.

All codecs are exact round-trips: value types are preserved (``bool``
never becomes ``int``, integers beyond int64 survive, tombstones stay
``None``, ``RangeEncodedArray`` stays range-encoded, a ``RidDelta`` a
delta), but for a list of integers, which is held as the rid array it
stands for.
"""

from __future__ import annotations

import io
import pickle
import sys
import zlib
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import attrgetter, is_not, itemgetter, mul

from repro.relational.arrays import RIDS, RangeEncodedArray, RidDelta

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_LISTS, _RANGES, _DELTAS = "lists", "ranges", "deltas"
_RANGES_OF = attrgetter("_ranges")  # a slot: read without a Python call

ROWS_V2 = "rows.v2"
PICKLE_V1 = "pickle.v1"
ROWS_V1 = "rows.v1"


# ----------------------------------------------------------------------
# v2: one compressed pickle per segment, integers as delta arrays
# ----------------------------------------------------------------------
def _pack(parts: object) -> bytes:
    return zlib.compress(pickle.dumps(parts, PICKLE_PROTOCOL), 1)


def _unpack(blob: bytes) -> object:
    return pickle.loads(zlib.decompress(blob))


def _pack_ints(values: list) -> array | None:
    """Deltas of a vector of exact, non-negative ``int`` as a 32- or
    64-bit array, or ``None`` when neither holds them.

    One big-integer subtraction takes every delta at once: the vector's
    little-endian lanes minus the same lanes moved up one place. Setting
    each lane's sign bit first keeps a falling value from borrowing out
    of its neighbour; clearing it again leaves the two's-complement
    delta. (A big-endian host, whose lanes lie the other way round,
    keeps its columns plain.)"""
    if list(map(type, values)).count(int) != len(values):
        return None  # a bool, a None, a float among them
    if sys.byteorder != "little":
        return None
    for typecode in "IQ":  # the typecodes array converts to fastest
        try:
            lanes = array(typecode, values)
        except OverflowError:  # a negative value, or one too wide
            continue
        n_bits = 8 * lanes.itemsize * len(lanes)
        current = int.from_bytes(lanes.tobytes(), "little")
        sign = int.from_bytes(
            (bytes(lanes.itemsize - 1) + b"\x80") * len(lanes), "little"
        )
        if current & sign:  # no room for the sign of a delta
            continue
        previous = (current << 8 * lanes.itemsize) & ((1 << n_bits) - 1)
        deltas = array(typecode.lower())
        deltas.frombytes(
            (((current | sign) - previous) ^ sign).to_bytes(n_bits // 8, "little")
        )
        return deltas
    return None


def _unpack_ints(deltas: array) -> list[int]:
    return list(accumulate(deltas))


def _pack_column(column: list) -> array | tuple | list:
    """An int column as its delta array; a column of rid lists or rid
    arrays, or of ``RangeEncodedArray`` (their range bounds), as
    ``(kind, length of each value, delta array of all the values end to
    end)``; any other column as it is."""
    packed = _pack_ints(column)
    if packed is not None:
        return packed
    kinds = list(map(type, column))
    wholes = kinds.count(list) + kinds.count(array)
    if wholes == len(column):
        kind, values, members = _LISTS, column, chain.from_iterable(column)
    elif kinds.count(RangeEncodedArray) == len(column):
        kind, values = _RANGES, list(map(_RANGES_OF, column))
        members = chain.from_iterable(chain.from_iterable(values))
    elif wholes + kinds.count(RidDelta) == len(column):
        return _pack_deltas(column, kinds)
    else:
        return column
    packed = _pack_ints(list(members))
    if packed is None:
        return column
    return kind, list(map(len, values)), packed


def _pack_deltas(column: list, kinds: list) -> tuple | list:
    """Whole rid lists and ``RidDelta`` rows as ``(_DELTAS, heads,
    lengths, members)``: each row is two runs of members, a whole row's
    and none, or a delta's removed and added rids; a delta's head is its
    base, R and depth (None for a whole row)."""
    heads, runs = [], []
    for value, kind in zip(column, kinds):  # a step a row, not a rid
        if kind is RidDelta:
            heads.append((value.base, value.cost, value.depth))
            runs += (value.removed, value.added)
        else:
            heads.append(None)
            runs += (value, ())
    packed = _pack_ints(list(chain.from_iterable(runs)))
    if packed is None:
        return column
    return _DELTAS, heads, list(map(len, runs)), packed


def _row_value(head: tuple | None, first: array, second: array):
    if head is None:
        return first
    base, cost, depth = head
    return RidDelta(base, first, second, cost, depth)


def _unpack_column(packed: array | tuple | list) -> list:
    if isinstance(packed, array):
        return _unpack_ints(packed)
    if not isinstance(packed, tuple):
        return packed
    if packed[0] == _DELTAS:
        _kind, heads, lengths, deltas = packed
        runs = _unpack_column((_LISTS, lengths, deltas))
        return list(map(_row_value, heads, runs[::2], runs[1::2]))
    kind, lengths, deltas = packed
    if kind == _RANGES:
        flat = _unpack_ints(deltas)
        flat = list(zip(flat[::2], flat[1::2]))
    else:  # its slices are rid arrays
        try:
            flat = array(RIDS, accumulate(deltas))
        except OverflowError:  # a member past 64 bits: lists, as stored
            flat = _unpack_ints(deltas)
    ends = list(accumulate(lengths))
    values = map(flat.__getitem__, map(slice, chain((0,), ends), ends))
    if kind == _RANGES:
        values = map(RangeEncodedArray.from_ranges, values)
    return list(values)


def encode_table_rows(
    rows: list[tuple | None], n_cols: int
) -> tuple[str, bytes]:
    """Encode a heap's slot list (``None`` = tombstone). Falls back to
    ``pickle.v1`` when live rows do not all match the schema arity."""
    mask = bytes(map(is_not, rows, repeat(None)))
    live = list(compress(rows, mask))
    if not set(map(len, live)) <= {n_cols}:
        return PICKLE_V1, encode_segment(PICKLE_V1, rows)
    # One itemgetter pass per column: zip(*live) would first allocate an
    # iterator per row.
    columns = [list(map(itemgetter(i), live)) for i in range(n_cols)]
    return ROWS_V2, _pack((mask, list(map(_pack_column, columns))))


def _decode_table_rows(blob: bytes) -> list[tuple | None]:
    mask, columns = _unpack(blob)
    if columns:
        live = list(zip(*map(_unpack_column, columns)))
    else:  # rows of no columns
        live = [()] * sum(mask)
    if 0 not in mask:
        return live
    # Slot s holds live row number accumulate(mask)[s], or None.
    live.insert(0, None)
    return list(map(live.__getitem__, map(mul, accumulate(mask), mask)))


# ----------------------------------------------------------------------
# v1, decode-only: zigzag-delta varints and (gap, run-length) ranges
# ----------------------------------------------------------------------
_COL_PICKLE = 0
_COL_INT = 1
_COL_INT_ARRAY = 2

_VAL_RANGE_ARRAY = 1


def read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def read_svarint(buf: bytes, pos: int) -> tuple[int, int]:
    raw, pos = read_uvarint(buf, pos)
    return (-(raw + 1) >> 1) if raw & 1 else raw >> 1, pos


def _read_range_values(buf: bytes, pos: int) -> tuple[list[int], int]:
    count, pos = read_uvarint(buf, pos)
    values: list[int] = []
    cursor = 0
    for _ in range(count):
        gap, pos = read_svarint(buf, pos)
        run, pos = read_uvarint(buf, pos)
        lo = cursor + gap
        values.extend(range(lo, lo + run + 1))
        cursor = lo + run
    return values, pos


def _decode_table_rows_v1(blob: bytes) -> list[tuple | None]:
    pos = 0
    n_slots, pos = read_uvarint(blob, pos)
    n_cols, pos = read_uvarint(blob, pos)
    bitmap_len = (n_slots + 7) // 8
    bitmap = blob[pos : pos + bitmap_len]
    pos += bitmap_len
    live_slots = [
        slot for slot in range(n_slots) if bitmap[slot >> 3] & (1 << (slot & 7))
    ]
    columns: list[list[object]] = []
    for _ in range(n_cols):
        column, pos = _decode_column_v1(blob, pos, len(live_slots))
        columns.append(column)
    rows: list[tuple | None] = [None] * n_slots
    for index, slot in enumerate(live_slots):
        rows[slot] = tuple(column[index] for column in columns)
    return rows


def _decode_column_v1(
    blob: bytes, pos: int, count: int
) -> tuple[list[object], int]:
    tag = blob[pos]
    pos += 1
    if tag == _COL_INT:
        values: list[object] = []
        cursor = 0
        for _ in range(count):
            delta, pos = read_svarint(blob, pos)
            cursor += delta
            values.append(cursor)
        return values, pos
    if tag == _COL_INT_ARRAY:
        values = []
        for _ in range(count):
            flag = blob[pos]
            pos += 1
            decoded, pos = _read_range_values(blob, pos)
            if flag == _VAL_RANGE_ARRAY:
                values.append(RangeEncodedArray(decoded))
            else:
                values.append(array(RIDS, decoded))
        return values, pos
    if tag == _COL_PICKLE:
        # Pickle reports how many bytes it consumed via Unpickler.
        stream = io.BytesIO(blob)
        stream.seek(pos)
        values = pickle.Unpickler(stream).load()
        return values, stream.tell()
    raise ValueError(f"unknown rows.v1 column tag {tag}")


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
_DECODERS = {
    ROWS_V2: _decode_table_rows,
    PICKLE_V1: pickle.loads,
    ROWS_V1: _decode_table_rows_v1,
}


def encode_segment(codec: str, obj: object) -> bytes:
    """Table rows have :func:`encode_table_rows`; what is left to encode
    by name is its fallback."""
    if codec != PICKLE_V1:
        raise ValueError(f"unknown segment codec {codec!r}")
    return pickle.dumps(obj, PICKLE_PROTOCOL)


def decode_segment(codec: str, blob: bytes) -> object:
    if codec not in _DECODERS:
        raise ValueError(f"unknown segment codec {codec!r}")
    return _DECODERS[codec](blob)
