"""Tests for CSV + schema-file round-trips."""

import pytest

from repro.core.csvio import (
    read_csv,
    read_schema_file,
    render_lines,
    write_csv,
    write_schema_file,
)
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import BOOL, FLOAT, INT, TEXT

SCHEMA = Schema(
    [
        ColumnDef("name", TEXT),
        ColumnDef("count", INT),
        ColumnDef("ratio", FLOAT),
        ColumnDef("active", BOOL),
    ],
    primary_key=("name",),
)

ROWS = [("a", 1, 0.5, True), ("b", 2, 1.25, False), ("c", None, None, None)]


class TestRoundtrip:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = [line[:-2] for line in render_lines(ROWS)]  # as a CVD keeps them
        write_csv(path, SCHEMA.column_names, lines)
        header = ",".join(SCHEMA.column_names) + "\r\n"
        assert path.read_bytes() == "".join([header, *render_lines(ROWS)]).encode()
        back = read_csv(path, SCHEMA)
        assert back == ROWS
        write_csv(path, SCHEMA.column_names, [])  # no row, no blank line
        assert path.read_bytes() == header.encode()

    def test_schema_roundtrip(self, tmp_path):
        path = tmp_path / "schema.csv"
        write_schema_file(path, SCHEMA)
        back = read_schema_file(path)
        assert back.column_names == SCHEMA.column_names
        assert back.primary_key == ("name",)
        assert back.dtype_of("ratio") is FLOAT

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(path, SCHEMA)

    @pytest.mark.parametrize(
        "line, fields",
        [("k3,7", 2), ("", 0), ("k4,1,2.0,true,4", 5)],
        ids=["short", "blank", "long"],
    )
    def test_a_ragged_row_is_rejected_with_its_line(self, tmp_path, line, fields):
        """None of these may load NULL-padded, truncated, or as an
        all-NULL record: line 3 of the file does not fit the schema."""
        path = tmp_path / "data.csv"
        path.write_text(f"name,count,ratio,active\na,1,0.5,true\n{line}\nb,2,1.0,f\n")
        with pytest.raises(ValueError, match=rf"line 3: {fields} field"):
            read_csv(path, SCHEMA)

    def test_empty_values_become_none(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("name,count,ratio,active\nx,,,\n")
        rows = read_csv(path, SCHEMA)
        assert rows == [("x", None, None, None)]

    def test_boolean_parsing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "name,count,ratio,active\na,1,1.0,true\nb,1,1.0,0\nc,1,1.0,T\n"
        )
        rows = read_csv(path, SCHEMA)
        assert [r[3] for r in rows] == [True, False, True]

    def test_schema_without_primary_key(self, tmp_path):
        schema = Schema([ColumnDef("x", INT)])
        path = tmp_path / "schema.csv"
        write_schema_file(path, schema)
        assert read_schema_file(path).primary_key == ()
