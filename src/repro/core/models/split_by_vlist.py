"""Approach 4.2: split-by-vlist.

Two tables: a data table (rid + data attributes, keyed on rid) and a
versioning table mapping rid -> vlist. Commit still pays an array append
per member record — cheaper than combined-table only because the rows
being rewritten are narrow — and checkout scans the versioning table for
containment, then joins the surviving rids against the data table.
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
from repro.relational.joins import hash_join
from repro.relational.table import ClusterOrder, Table


class SplitByVlistModel(DataModel):
    model_name = "split_by_vlist"

    def __init__(
        self, database, cvd_name, data_schema, vlist_index: bool = False
    ) -> None:
        """Args:
        vlist_index: Maintain an inverted index vid -> rids. The paper's
            footnote reports this variant: checkout gets faster (no
            containment scan) but commit gets even slower (every array
            append also updates the index).
        """
        super().__init__(database, cvd_name, data_schema)
        self._data: Table = database.create_table(
            f"{cvd_name}__data",
            self._rid_data_schema(),
            cluster_order=ClusterOrder.RID,
        )
        self._versioning: Table = database.create_table(
            f"{cvd_name}__vlist", self._rid_vlist_schema()
        )
        self.vlist_index_enabled = vlist_index
        #: vid -> its rid array (the commit's, shared with the CVD memo).
        self._vlist_index: dict[int, array] = {}

    def table_names(self) -> list[str]:
        return [self._data.name, self._versioning.name]

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
            self._versioning.update_where(
                InSet(col("rid"), frozenset(existing)),
                {"vlist": ArrayAppend(col("vlist"), lit(vid))},
            )
        telemetry.count("model.split_by_vlist.vlist_appends", len(existing))
        self._data.insert_many(
            (rid, *payload) for rid, payload in new_records.items()
        )
        self._versioning.insert_many((rid, [vid]) for rid in new_records)
        telemetry.count("model.split_by_vlist.rows_inserted", len(new_records))
        if self.vlist_index_enabled:
            # The footnote's extra commit cost: one more index write per
            # member record (charged against the shared accountant).
            self._vlist_index[vid] = membership
            self._versioning.accountant.charge_write(len(membership))

    def stored_versions(self) -> set[int]:
        return set().union(
            *(row[1] for row in self._versioning.rows_snapshot())
        )

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        if self.vlist_index_enabled and vid in self._vlist_index:
            rids = self._vlist_index[vid]
        else:
            # SELECT rid FROM versioning WHERE ARRAY[vid] <@ vlist ...
            predicate = ArrayContainedBy(lit([vid]), col("vlist"))
            rids = [
                row[0] for row in self._versioning.scan_where(predicate)
            ]
        # ... JOIN data table (hash join: build on rids, probe via scan).
        rows = hash_join(rids, self._data, "rid")
        telemetry.count("model.split_by_vlist.rows_checked_out", len(rows))
        return self._columns_of(rows)

    def explain_checkout(self, vid: int):
        """Containment scan (or inverted-index probe) + hash join."""
        from repro.observe.explain import ExplainNode, io_cost

        versioning_rows = self._versioning.row_count
        data_rows = self._data.row_count
        node = ExplainNode(
            op="model.split_by_vlist.checkout",
            detail={"vid": vid},
            span_match=("model.checkout", {"vid": vid}),
        )
        if self.vlist_index_enabled and vid in self._vlist_index:
            matched = len(self._vlist_index[vid])
            node.add(
                ExplainNode(
                    op="vlist_index.probe",
                    detail={"vid": vid},
                    estimated_rows=matched,
                    estimated_cost=io_cost(random_rows=1),
                )
            )
        else:
            node.add(
                ExplainNode(
                    op="vlist.containment_scan",
                    detail={
                        "table": self._versioning.name,
                        "predicate": f"ARRAY[{vid}] <@ vlist",
                    },
                    estimated_rows=versioning_rows,
                    estimated_cost=io_cost(seq_rows=versioning_rows),
                )
            )
        node.add(
            ExplainNode(
                op="join.hash",
                detail={"table": self._data.name, "table_rows": data_rows},
                estimated_cost=io_cost(seq_rows=data_rows),
            )
        )
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """Array append per reused record + insert per new record."""
        from repro.observe.explain import ExplainNode, io_cost

        reused = max(parent_sizes.values(), default=0)
        new_rows = max(estimated_rows - reused, 0)
        node = ExplainNode(
            op="model.split_by_vlist.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="vlist.append",
                detail={
                    "table": self._versioning.name,
                    "note": "rewrites one narrow array row per reused record",
                },
                estimated_rows=reused,
                estimated_cost=io_cost(seq_rows=self._versioning.row_count),
            )
        )
        node.add(
            ExplainNode(
                op="data.insert",
                detail={"table": self._data.name},
                estimated_rows=new_rows,
                estimated_cost=io_cost(seq_rows=new_rows),
            )
        )
        return node

    def storage_bytes(self) -> int:
        return self._data.storage_bytes() + self._versioning.storage_bytes()
