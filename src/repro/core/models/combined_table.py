"""Approach 4.1: the combined table.

One table holding rid, the data attributes, and a ``vlist`` array of the
versions each record belongs to. Commit must append the new vid to the
vlist of *every* record in the version — the expensive full-table
array-append UPDATE that dominates Figure 4.1(b). Checkout is a full scan
with the ``ARRAY[vid] <@ vlist`` containment filter.
"""

from __future__ import annotations

from array import array
from typing import Mapping, Sequence

from repro import telemetry
from repro.core.models.base import DataModel
from repro.relational.arrays import rids_without
from repro.relational.expressions import (
    ArrayAppend,
    ArrayContainedBy,
    InSet,
    col,
    lit,
)
from repro.relational.table import ClusterOrder, Table


class CombinedTableModel(DataModel):
    model_name = "combined_table"

    def __init__(self, database, cvd_name, data_schema) -> None:
        super().__init__(database, cvd_name, data_schema)
        self._table: Table = database.create_table(
            f"{cvd_name}__combined",
            self._combined_schema(),
            cluster_order=ClusterOrder.RID,
        )

    def table_names(self) -> list[str]:
        return [self._table.name]

    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        existing = rids_without(membership, new_records)
        if existing:
            # UPDATE combined SET vlist = vlist + vid WHERE rid IN (...):
            # a full scan that rewrites one array per matching record.
            self._table.update_where(
                InSet(col("rid"), frozenset(existing)),
                {"vlist": ArrayAppend(col("vlist"), lit(vid))},
            )
        telemetry.count("model.combined_table.vlist_appends", len(existing))
        self._table.insert_many(
            (rid, [vid], *payload) for rid, payload in new_records.items()
        )
        telemetry.count("model.combined_table.rows_inserted", len(new_records))

    def stored_versions(self) -> set[int]:
        return set().union(*(row[1] for row in self._table.rows_snapshot()))

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        predicate = ArrayContainedBy(lit([vid]), col("vlist"))
        rows = list(self._table.scan_where(predicate))
        telemetry.count("model.combined_table.rows_checked_out", len(rows))
        return self._columns_of(rows, offset=2)

    def explain_checkout(self, vid: int):
        """Full scan of the one combined table with a containment filter."""
        from repro.observe.explain import ExplainNode, io_cost

        table_rows = self._table.row_count
        node = ExplainNode(
            op="model.combined_table.checkout",
            detail={"vid": vid},
            span_match=("model.checkout", {"vid": vid}),
        )
        node.add(
            ExplainNode(
                op="vlist.containment_scan",
                detail={
                    "table": self._table.name,
                    "predicate": f"ARRAY[{vid}] <@ vlist",
                },
                estimated_rows=table_rows,
                estimated_cost=io_cost(seq_rows=table_rows),
            )
        )
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """The expensive path: an array-append UPDATE over every reused
        record of the wide table (Figure 4.1(b))."""
        from repro.observe.explain import ExplainNode, io_cost

        reused = max(parent_sizes.values(), default=0)
        new_rows = max(estimated_rows - reused, 0)
        node = ExplainNode(
            op="model.combined_table.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="vlist.append",
                detail={
                    "table": self._table.name,
                    "note": "full-scan UPDATE rewriting one wide row per "
                    "reused record",
                },
                estimated_rows=reused,
                estimated_cost=io_cost(seq_rows=self._table.row_count),
            )
        )
        node.add(
            ExplainNode(
                op="data.insert",
                detail={"table": self._table.name},
                estimated_rows=new_rows,
                estimated_cost=io_cost(seq_rows=new_rows),
            )
        )
        return node

    def storage_bytes(self) -> int:
        return self._table.storage_bytes()
