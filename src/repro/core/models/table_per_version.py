"""Approach 4.5: a table per version.

Every version is stored fully materialized in its own table. Storage is
proportional to Σ|R(v)| (the |E| of the bipartite graph) — roughly 10x the
deduplicated models on the benchmark — but checkout is optimal because it
reads exactly the relevant records.
"""

from __future__ import annotations

from array import array
from typing import Mapping, Sequence

from repro import telemetry
from repro.core.models.base import DataModel
from repro.relational.table import Table


class TablePerVersionModel(DataModel):
    model_name = "table_per_version"

    def __init__(self, database, cvd_name, data_schema) -> None:
        super().__init__(database, cvd_name, data_schema)
        self._tables: dict[int, Table] = {}

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]

    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        table = self.database.create_table(
            f"{self.cvd_name}__v{vid}", self._rid_data_schema()
        )
        # Insert *all* records of the version — this is what makes commit
        # slower than split-by-rlist in Figure 4.1(b).
        width = self._arity
        # A record that predates a schema change is NULL-padded.
        table.insert_many(
            (rid, *records[rid], *(None,) * (width - len(records[rid])))
            for rid in membership
        )
        telemetry.count("model.table_per_version.rows_inserted", len(membership))
        self._tables[vid] = table

    def stored_versions(self) -> set[int]:
        return set(self._tables)

    def _record_tables(self, vid: int | None = None) -> list[Table]:
        """Every version's table, ``vid``'s own (which has all of its
        records) first."""
        own = self._tables.get(vid)
        others = [t for t in self._tables.values() if t is not own]
        return others if own is None else [own, *others]

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        table = self._tables.get(vid)
        rows = list(table.scan()) if table is not None else []
        telemetry.count("model.table_per_version.rows_checked_out", len(rows))
        return self._columns_of(rows)

    def explain_checkout(self, vid: int):
        """Optimal checkout: scan exactly the version's own table."""
        from repro.observe.explain import ExplainNode, io_cost

        table = self._tables.get(vid)
        table_rows = table.row_count if table is not None else 0
        node = ExplainNode(
            op="model.table_per_version.checkout",
            detail={"vid": vid},
            estimated_rows=table_rows,
            span_match=("model.checkout", {"vid": vid}),
        )
        node.add(
            ExplainNode(
                op="table.scan",
                detail={
                    "table": table.name if table is not None else "(absent)"
                },
                estimated_rows=table_rows,
                estimated_cost=io_cost(seq_rows=table_rows),
            )
        )
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """The slow commit: every record of the version is re-inserted."""
        from repro.observe.explain import ExplainNode, io_cost

        node = ExplainNode(
            op="model.table_per_version.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="table.create_insert",
                detail={"note": "full materialization of the new version"},
                estimated_rows=estimated_rows,
                estimated_cost=io_cost(seq_rows=estimated_rows),
            )
        )
        return node

    def storage_bytes(self) -> int:
        return sum(t.storage_bytes() for t in self._tables.values())

    def drop(self) -> None:
        super().drop()
        self._tables.clear()
