"""CSV checkout/commit support (the ``-f``/``-s`` command flags).

Data scientists often prefer editing a CSV in Python or R over SQL on a
staged table; OrpheusDB supports checking a version out *to* a CSV file
and committing a CSV back, with a schema file ensuring columns map
correctly.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import type_by_name


def write_csv(path: str | Path, columns: list[str], rows: list[tuple]) -> None:
    """Write a checkout's rows to ``path`` with a header row."""
    from repro.resilience import failpoints

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        failpoints.fire("csv.mid_write")
        writer.writerows(rows)


def write_schema_file(path: str | Path, schema: Schema) -> None:
    """Write the companion schema file: one ``name,type`` line per column,
    with a trailing ``primary_key`` line when the relation has one."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for column in schema.columns:
            writer.writerow([column.name, column.dtype.name])
        if schema.primary_key:
            writer.writerow(["primary_key", *schema.primary_key])


def read_schema_file(path: str | Path) -> Schema:
    """Parse a schema file written by :func:`write_schema_file`."""
    columns: list[ColumnDef] = []
    primary_key: tuple[str, ...] = ()
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            if row[0] == "primary_key":
                primary_key = tuple(row[1:])
            else:
                columns.append(ColumnDef(row[0], type_by_name(row[1])))
    return Schema(columns, primary_key)


def read_csv(path: str | Path, schema: Schema) -> list[tuple]:
    """Read rows from ``path``, coercing values per the schema.

    The header row must match the schema's column names (order included);
    this is the check the ``-s`` schema file exists to make possible.
    Every data line must carry exactly one field per column: a short
    row, a long row or a blank line raises ``ValueError`` naming the
    (1-based) line, and never commits NULL-padded or truncated.
    """
    width = len(schema.columns)
    raws: list[list[str]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != schema.column_names:
            raise ValueError(
                f"CSV header {header} does not match schema columns "
                f"{schema.column_names}"
            )
        for raw in reader:
            if len(raw) != width:
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(raw)} field(s) "
                    f"where the schema has {width} column(s)"
                )
            raws.append(raw)
    # One converter per column, applied a column at a time.
    columns = [
        _convert_column(_CONVERTERS.get(column.dtype.name, str), values)
        for column, values in zip(schema.columns, zip(*raws))
    ]
    return list(zip(*columns))


def _convert_column(convert, values: tuple[str, ...]) -> list:
    if "" not in values:
        return list(map(convert, values))
    return [convert(value) if value else None for value in values]  # "" = NULL


_CONVERTERS = {
    "integer": int,
    "decimal": float,
    "boolean": lambda value: value.lower() in ("true", "t", "1"),
}
