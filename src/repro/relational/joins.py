"""Join algorithms: hash, merge, and index-nested-loop.

These are the three physical joins compared in the checkout-cost-model
validation of Section 5.5.5 (Figure 5.7). Each takes a *build* side given
as plain keyed values (the ``rlist`` contents pulled from the versioning
table) and a *probe* side that is a :class:`~repro.relational.table.Table`,
mirroring how OrpheusDB joins a version's rid list against the data table.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro import telemetry
from repro.relational.table import Row, Table


def hash_join(
    keys: Iterable[Hashable],
    table: Table,
    column: str,
) -> list[Row]:
    """Build a hash table on ``keys``; probe with a sequential table scan.

    This is PostgreSQL's plan for checkout: the cost is one full scan of
    the data-table partition regardless of ``len(keys)``, which is why the
    checkout cost model is linear in the partition size |R_k|.
    """
    key_set = set(keys)
    position = table.schema.position(column)
    matched = [row for row in table.scan() if row[position] in key_set]
    telemetry.count("join.hash.rows_scanned", table.row_count)
    telemetry.count("join.hash.rows_matched", len(matched))
    return matched


def merge_join(
    sorted_keys: Sequence[Hashable],
    table: Table,
    column: str,
) -> list[Row]:
    """Merge a sorted key list against the table sorted on ``column``.

    If the table is physically clustered on ``column`` the table side is
    already ordered and the merge touches rows sequentially. Otherwise the
    engine must sort the scanned rows first (charged as a full scan plus
    CPU), matching the plans PostgreSQL produced in Section 5.5.5.
    """
    position = table.schema.position(column)
    if table._is_clustered_on(column):
        table_rows = list(table.scan())
    else:
        table_rows = sorted(table.scan(), key=lambda row: row[position])  # type: ignore[arg-type]

    matched: list[Row] = []
    i = 0
    j = 0
    keys = list(sorted_keys)
    while i < len(keys) and j < len(table_rows):
        key = keys[i]
        row_key = table_rows[j][position]
        if row_key < key:  # type: ignore[operator]
            j += 1
        elif row_key > key:  # type: ignore[operator]
            i += 1
        else:
            matched.append(table_rows[j])
            j += 1
    telemetry.count("join.merge.rows_scanned", len(table_rows))
    telemetry.count("join.merge.rows_matched", len(matched))
    return matched


def index_nested_loop_join(
    keys: Iterable[Hashable],
    table: Table,
    column: str,
) -> list[Row]:
    """Probe the table's index on ``column`` once per key.

    Each probe is charged as random I/O unless the table is clustered on
    the probe column; with |rlist| comparable to |R_k| the random reads
    approach a full scan, which is the observation that lets the paper
    model checkout cost as linear in |R_k| (Section 5.5.5).
    """
    keys = list(keys)
    matched = table.lookup_many(column, keys)
    telemetry.count("join.index_nested_loop.probes", len(keys))
    telemetry.count("join.index_nested_loop.rows_matched", len(matched))
    return matched


JOIN_ALGORITHMS = {
    "hash": hash_join,
    "merge": merge_join,
    "index_nested_loop": index_nested_loop_join,
}
