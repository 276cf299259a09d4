"""CSV checkout/commit support (the ``-f``/``-s`` command flags).

Data scientists often prefer editing a CSV in Python or R over SQL on a
staged table; OrpheusDB supports checking a version out *to* a CSV file
and committing a CSV back, with a schema file ensuring columns map
correctly.

A checkout writes the lines a CVD rendered once per record
(:func:`render_lines`, kept less the line end); a commit takes a line it
knows parses back to exactly its record's payload for that payload
(:func:`parsed_back`).
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from pathlib import Path
from typing import Sequence

from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import type_by_name

#: What ``csv.writer`` ends a row with.
LINE_END = "\r\n"


class _Echo:
    """A file whose ``write`` returns the row ``csv.writer`` rendered."""

    write = str


def render_lines(rows: list[tuple]) -> list[str]:
    """Each row as the line ``csv.writer`` writes for it, :data:`LINE_END`
    included."""
    return list(map(csv.writer(_Echo).writerow, rows))


def write_csv(path: str | Path, columns: list[str], lines: list[str]) -> None:
    """Write a checkout to ``path``: a header row, then ``lines``, the
    rows' canonical lines (:func:`render_lines`) less :data:`LINE_END`."""
    from repro.resilience import failpoints

    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(columns)
        failpoints.fire("csv.mid_write")
        if lines:
            handle.write(LINE_END.join(lines))
            handle.write(LINE_END)


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


def read_csv(
    path: str | Path,
    schema: Schema,
    known: dict[str, tuple] | dict[str, int] | None = None,
    payloads: Sequence[tuple | None] | None = None,
) -> list[tuple] | tuple[list[tuple], list[int] | None]:
    """Read rows from ``path``, coercing values per the schema.

    The header row must match the schema's column names (order included);
    this is the check the ``-s`` schema file exists to make possible.
    Every data line must carry exactly one field per column: a short
    row, a long row or a blank line raises ``ValueError`` naming the
    (1-based) line, and never commits NULL-padded or truncated.

    ``known`` maps lines to the rows this function returns for them
    (:func:`parsed_back`), which are then not parsed again; a file with
    a quote or a bare carriage return, or one it rejects, is read in
    full, so errors read the same. With ``payloads`` (rid -> row),
    ``known`` maps a line to a record id, whose row is ``payloads[rid]``,
    and it returns ``(rows, matched)``: the rid of each row's line, 0
    (no record's) for a line ``known`` lacks; ``matched`` is None for a
    file read in full.
    """
    if known:
        read = _read_known(path, schema, known, payloads)
        if read is not None:
            return read[0] if payloads is None else read
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
    rows = _convert(schema, raws)
    return rows if payloads is None else (rows, None)


def _read_known(
    path: str | Path, schema: Schema, known: dict, payloads
) -> tuple[list[tuple], list] | None:
    """:func:`read_csv` for a file of unquoted lines, parsing only the
    lines ``known`` lacks, and what ``known`` maps each line to; None
    when the file needs the full reader."""
    try:
        with open(path, newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        return None
    if "\r" in text:  # every line ends CRLF, or the full reader runs
        if text.count("\r") != text.count(LINE_END):
            return None
        text = text.replace(LINE_END, "\n")
    if '"' in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final line break; a blank line stays
    if not lines or lines[0].split(",") != schema.column_names:
        return None
    del lines[0]
    found = list(map(known.get, lines, repeat(None if payloads is None else 0)))
    rows = found if payloads is None else list(map(payloads.__getitem__, found))
    unseen = [n for n, row in enumerate(rows) if row is None]
    raws = list(csv.reader([lines[n] for n in unseen]))
    if any(len(raw) != len(schema.columns) for raw in raws):
        return None
    for n, row in zip(unseen, _convert(schema, raws)):
        rows[n] = row
    return rows, found


def parsed_back(
    schema: Schema, rows: list[tuple], lines: list[str]
) -> dict[str, tuple]:
    """``{line: row}`` for each row :func:`read_csv` returns unchanged, in
    value and in type, from its line (:func:`render_lines`, with or
    without :data:`LINE_END`; the key lacks it): one with no NULL, empty
    text, NaN or quoted field, each value of the type its column parses
    to. A line with a ``-0.0`` field is left out too: its payload equals
    ``0.0``'s, its line does not, and a commit matches payloads by their
    lines."""
    kinds = tuple(_PARSED_TYPES.get(c.dtype.name, str) for c in schema.columns)
    lines = [line.removesuffix(LINE_END) for line in lines]
    text = "\n".join(lines)
    if (  # the common case, checked a column at a time
        set(map(len, rows)) == {len(kinds)}
        and '"' not in text
        and "-0.0" not in text
        and all(
            set(map(type, values)) == {kind}
            and "" not in values
            and not (kind is float and any(map(math.isnan, values)))
            for values, kind in zip(zip(*rows), kinds)
        )
    ):
        return dict(zip(lines, rows))
    return {
        line: row
        for row, line in zip(rows, lines)
        if tuple(map(type, row)) == kinds
        and '"' not in line
        and "-0.0" not in line.split(",")
        and "" not in row
        and all(value == value for value in row)  # only NaN is not
    }


def _convert(schema: Schema, raws: list[list[str]]) -> list[tuple]:
    """One converter per column, applied a column at a time."""
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
#: The type each converter returns (``str`` for the rest).
_PARSED_TYPES = {"integer": int, "decimal": float, "boolean": bool}
