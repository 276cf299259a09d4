"""Property test: reading a committed CSV with the lines a checkout
rendered known (``read_csv(path, schema, known)``) returns exactly what
the full reader returns — the same rows, in the same order, with the
same Python types — and raises the same error with the same text and
line number.

Files mix the parent's rendered lines with fresh rows and raw text:
NULLs, empty text, quotes, embedded commas and line breaks, NaN and
inf, int-valued decimals, booleans, LF and CRLF line ends, a missing
final line break, blank lines, short and long rows, duplicated and
reordered lines."""

import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.csvio import parsed_back, read_csv, render_lines
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import BOOL, FLOAT, INT, TEXT

TEXT_CHARS = st.sampled_from(
    ["a", "b", " ", ",", '"', "\n", "\r", "1", "é", "\u2028"]
)
TEXTS = st.text(TEXT_CHARS, max_size=4)

VALUES = {
    INT: st.one_of(st.none(), st.integers(-3, 3), st.booleans()),
    FLOAT: st.one_of(
        st.none(),
        st.sampled_from([0.5, -0.0, 1e16, math.inf, -math.inf, math.nan]),
        st.integers(-3, 3),  # an int-valued decimal
    ),
    BOOL: st.one_of(st.none(), st.booleans()),
    TEXT: st.one_of(
        st.none(), st.just(""), st.sampled_from(["k", "x y", "3"]), TEXTS
    ),
}


@st.composite
def cases(draw):
    dtypes = draw(
        st.lists(st.sampled_from([INT, FLOAT, BOOL, TEXT]), min_size=1, max_size=3)
    )
    schema = Schema(
        [ColumnDef(f"c{n}", dtype) for n, dtype in enumerate(dtypes)]
    )
    row = st.tuples(*(VALUES[dtype] for dtype in dtypes))
    parent = draw(st.lists(row, max_size=6))
    parent_lines = render_lines(parent)
    line = st.one_of(
        st.sampled_from(parent_lines) if parent_lines else st.nothing(),
        row.map(lambda fresh: render_lines([fresh])[0]),
        st.lists(VALUES[TEXT], min_size=0, max_size=5).map(
            lambda fields: render_lines([fields])[0]
        ),  # short, long or blank
    ).map(
        lambda rendered: rendered[:-2]  # the file's own line end follows
    ) | st.text(TEXT_CHARS, max_size=8)  # raw text
    lines = draw(st.lists(line, max_size=10))
    header = ",".join(schema.column_names)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["", header + ",x", header.upper()]))
    ends = draw(
        st.lists(
            st.sampled_from(["\n", "\r\n"]),
            min_size=len(lines) + 1,
            max_size=len(lines) + 1,
        )
    )
    text = "".join(part + end for part, end in zip([header, *lines], ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line break
    return schema, parent, parent_lines, text


def outcome(path, schema, *known):
    try:
        rows = read_csv(path, schema, *known)
    except Exception as error:
        return ("error", type(error).__name__, str(error))
    return ("rows", repr(rows), [tuple(map(type, row)) for row in rows])


@settings(max_examples=400, deadline=None)
@given(cases())
@example(
    (
        Schema([ColumnDef("a", TEXT), ColumnDef("b", FLOAT)]),
        [("k", 3), ("j", math.nan), ("", 1.5), (None, 2.0), ("m", 2.5)],
        ["k,3\r\n", "j,nan\r\n", ",1.5\r\n", ",2.0\r\n", "m,2.5\r\n"],
        "a,b\nk,3\r\nj,nan\n,1.5\n,2.0\nm,2.5\nm,2.5\n\nm,2.5,\nm",
    )
)
@example(  # a quoted field spans two lines
    (Schema([ColumnDef("a", TEXT)]), [("k",)], ["k\r\n"], 'a\nk\n"x\ny"\nk\n')
)
def test_known_lines_read_as_the_full_reader_reads_them(case):
    schema, parent, parent_lines, text = case
    known = parsed_back(schema, parent, parent_lines)
    handle, name = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(handle, "w", newline="") as file:
            file.write(text)
        assert outcome(name, schema, known) == outcome(name, schema)
    finally:
        os.unlink(name)


def test_only_lines_that_parse_back_exactly_are_known():
    schema = Schema(
        [ColumnDef("t", TEXT), ColumnDef("d", FLOAT), ColumnDef("b", BOOL)]
    )
    rows = [
        ("k", 1.5, True),  # parses back
        ("k", 2, True),  # an int in a decimal column: 2.0 comes back
        ("k", math.nan, True),  # NaN is not equal to itself
        ("", 1.5, True),  # empty text comes back NULL
        (None, 1.5, True),  # a NULL
        ("a,b", 1.5, False),  # quoted
    ]
    assert parsed_back(schema, rows, render_lines(rows)) == {
        "k,1.5,True": ("k", 1.5, True)
    }
