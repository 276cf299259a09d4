"""Approach 4.3: split-by-rlist — the model OrpheusDB adopts.

Two tables: the data table (rid + attributes, keyed on rid) and a
versioning table keyed on vid whose ``rlist`` array lists the version's
records. Commit inserts the new records plus exactly one versioning
tuple — no array appends — and checkout unnests one rlist and hash-joins
it with the data table.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from repro import telemetry
from repro.core.models.base import DataModel
from repro.relational.arrays import RangeEncodedArray, rid_array
from repro.relational.joins import JOIN_ALGORITHMS
from repro.relational.table import ClusterOrder, Table


class SplitByRlistModel(DataModel):
    model_name = "split_by_rlist"

    def __init__(
        self,
        database,
        cvd_name,
        data_schema,
        join_algorithm: str = "hash",
        table_suffix: str = "",
        compress_rlists: bool = False,
    ) -> None:
        """Args:
        join_algorithm: Which physical join the checkout uses — ``hash``
            (the paper's choice), ``merge``, or ``index_nested_loop``;
            exposed for the Section 5.5.5 cost-model validation.
        table_suffix: Distinguishes multiple physical instances of the
            model over one CVD (used by the partitioned store).
        compress_rlists: Store rlists range-encoded (the Section 4.2
            remark that array storage can shrink further via
            range-encoding); transparent to readers.
        """
        super().__init__(database, cvd_name, data_schema)
        if join_algorithm not in JOIN_ALGORITHMS:
            raise ValueError(f"unknown join algorithm {join_algorithm!r}")
        self.join_algorithm = join_algorithm
        self.compress_rlists = compress_rlists
        self._data: Table = database.create_table(
            f"{cvd_name}__data{table_suffix}",
            self._rid_data_schema(),
            cluster_order=ClusterOrder.RID,
        )
        self._versioning: Table = database.create_table(
            f"{cvd_name}__rlist{table_suffix}", self._vid_rlist_schema()
        )

    def table_names(self) -> list[str]:
        return [self._data.name, self._versioning.name]

    @property
    def data_table(self) -> Table:
        return self._data

    @property
    def versioning_table(self) -> Table:
        return self._versioning

    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        self._data.insert_many(
            (rid, *payload) for rid, payload in new_records.items()
        )
        # One tuple into the versioning table; no array rewriting.
        self._versioning.insert((vid, self._encode_rlist(membership)))
        telemetry.count("model.split_by_rlist.rows_inserted", len(new_records))

    def insert_versions_bulk(self, versions: Iterable[tuple[int, array]]) -> None:
        """Register membership rows without data inserts (migration path)."""
        for vid, membership in versions:
            self._versioning.insert((vid, self._encode_rlist(membership)))

    def _encode_rlist(self, membership: array) -> array | RangeEncodedArray:
        """The rlist row's value: the version's rid array itself, or its
        ranges when rlists are compressed."""
        if self.compress_rlists:
            return RangeEncodedArray(membership)
        return membership

    def _rlist(self, vid: int):
        """The version's rlist row value, as the row holds it."""
        rows = self._versioning.lookup("vid", vid)
        return rows[0][1] if rows else ()

    def rlist_of(self, vid: int) -> array:
        """unnest(rlist): the row's rid array itself, which is the
        version's memo entry too; one is made from ranges, or from the
        list a pickle-layout load left in the row."""
        rlist = self._rlist(vid)
        return rlist if type(rlist) is array else rid_array(rlist)

    def rids_of(self, vid: int) -> array:
        return self.rlist_of(vid)

    def stored_versions(self) -> set[int]:
        return {row[0] for row in self._versioning.rows_snapshot()}

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        join = JOIN_ALGORITHMS[self.join_algorithm]
        rows = join(self._rlist(vid), self._data, "rid")
        telemetry.count("model.split_by_rlist.rows_checked_out", len(rows))
        return self._columns_of(rows)

    def explain_checkout(self, vid: int):
        """rlist lookup (one index probe) + join against the data table."""
        from repro.observe.explain import ExplainNode, io_cost

        rids = self.rlist_of(vid)
        data_rows = self._data.row_count
        node = ExplainNode(
            op="model.split_by_rlist.checkout",
            detail={"vid": vid},
            estimated_rows=len(rids),
            span_match=("model.checkout", {"vid": vid}),
        )
        node.add(
            ExplainNode(
                op="rlist.lookup",
                detail={"table": self._versioning.name, "vid": vid},
                estimated_rows=len(rids),
                estimated_cost=io_cost(random_rows=1),
            )
        )
        if self.join_algorithm == "index_nested_loop":
            join_cost = io_cost(random_rows=len(rids))
        elif self.join_algorithm == "merge":
            join_cost = io_cost(seq_rows=data_rows + len(rids))
        else:  # hash: build over the rid list, probe the data table scan
            join_cost = io_cost(seq_rows=data_rows)
        node.add(
            ExplainNode(
                op=f"join.{self.join_algorithm}",
                detail={"table": self._data.name, "table_rows": data_rows},
                estimated_rows=len(rids),
                estimated_cost=join_cost,
            )
        )
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """Insert only the new records + exactly one versioning tuple."""
        from repro.observe.explain import ExplainNode, io_cost

        reused = max(parent_sizes.values(), default=0)
        new_rows = max(estimated_rows - reused, 0)
        node = ExplainNode(
            op="model.split_by_rlist.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="data.insert",
                detail={"table": self._data.name, "note": "new records only"},
                estimated_rows=new_rows,
                estimated_cost=io_cost(seq_rows=new_rows),
            )
        )
        node.add(
            ExplainNode(
                op="rlist.insert",
                detail={"table": self._versioning.name},
                estimated_rows=1,
                estimated_cost=io_cost(seq_rows=1),
            )
        )
        return node

    def storage_bytes(self) -> int:
        return self._data.storage_bytes() + self._versioning.storage_bytes()

    def data_record_count(self) -> int:
        """|R_k|: records in this (partition's) data table."""
        return self._data.row_count
