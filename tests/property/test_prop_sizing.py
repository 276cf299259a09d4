"""Property test: sizing rows a column at a time is sizing them one by
one — ``Schema.rows_bytes`` is the sum of ``Schema.row_bytes`` over any
rows, valid for the schema or not."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.arrays import RidDelta
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import BOOL, FLOAT, INT, INT_ARRAY, TEXT

TYPES = (INT, FLOAT, TEXT, BOOL, INT_ARRAY)

rid_lists = st.sets(st.integers(0, 500), max_size=12).map(sorted)
rid_deltas = st.builds(RidDelta, st.integers(1, 9), rid_lists, rid_lists)
arrays = st.one_of(
    st.none(),
    st.lists(st.integers(0, 2**40), max_size=6),
    st.lists(st.integers(0, 9), max_size=3).map(tuple),
    rid_deltas,
)
#: What any other column may hold: sizing never validates, and only an
#: array is sized by a length a value might not have.
scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=True),
    st.text(max_size=12),
    arrays,
)


@st.composite
def schema_and_rows(draw):
    dtypes = draw(st.lists(st.sampled_from(TYPES), max_size=6))
    schema = Schema([ColumnDef(f"c{i}", dtype) for i, dtype in enumerate(dtypes)])
    # One more value than columns: a row may be longer than the schema.
    columns = [arrays if dtype is INT_ARRAY else scalars for dtype in dtypes]
    full_rows = st.tuples(*columns, scalars)
    # Mostly rows of one width (the schema's, shorter or longer: all in
    # one batch, as after a schema change), sometimes ragged ones.
    width = draw(st.integers(0, len(dtypes) + 1))
    widths = st.just(width) if draw(st.booleans()) else st.integers(0, width)
    rows = draw(
        st.lists(
            st.tuples(full_rows, widths).map(lambda drawn: drawn[0][: drawn[1]]),
            max_size=12,
        )
    )
    return schema, rows


@given(schema_and_rows())
@settings(max_examples=300, deadline=None)
def test_rows_bytes_is_the_sum_of_row_bytes(case):
    schema, rows = case
    assert schema.rows_bytes(rows) == sum(map(schema.row_bytes, rows))
