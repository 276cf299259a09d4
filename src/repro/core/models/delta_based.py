"""Approach 4.4: the delta-based model.

Each version is its own table storing only the *modifications* from a
single base parent: inserted records plus tombstone rows for deletions. A
precedent metadata table records each version's base. When a version has
multiple parents, the base is the parent sharing the most records
(storing deltas against several parents would complicate recreation, as
the paper notes). Checkout walks the base chain back to the root,
discarding records already seen.

Advanced cross-version analytics are not supported "for free" by this
model — recreating versions is the only access path — which is the
paper's qualitative argument against it despite competitive storage.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Sequence

from repro import telemetry
from repro.core.models.base import DataModel
from repro.relational.arrays import rid_array, rids_without
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Row, Table
from repro.relational.types import BOOL, INT


class DeltaBasedModel(DataModel):
    model_name = "delta_based"

    def __init__(self, database, cvd_name, data_schema) -> None:
        super().__init__(database, cvd_name, data_schema)
        self._delta_tables: dict[int, Table] = {}
        #: Precedent metadata: vid -> base vid (None for the root).
        self._precedent: Table = database.create_table(
            f"{cvd_name}__precedent",
            Schema(
                [ColumnDef("vid", INT), ColumnDef("base", INT)],
                primary_key=("vid",),
            ),
        )

    def table_names(self) -> list[str]:
        return [self._precedent.name] + [
            t.name for t in self._delta_tables.values()
        ]

    def _delta_schema(self) -> Schema:
        # tombstone precedes the data attributes so ALTER TABLE ADD
        # COLUMN (which appends) keeps data attributes contiguous.
        return Schema(
            [ColumnDef("rid", INT), ColumnDef("tombstone", BOOL)]
            + list(self.data_schema.columns),
            primary_key=("rid",),
        )

    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        members = set(membership)
        base: int | None = None
        if parents:
            base = max(
                parents,
                key=lambda p: len(members.intersection(parent_membership[p])),
            )
        table = self.database.create_table(
            f"{self.cvd_name}__delta_v{vid}", self._delta_schema()
        )
        base_rids = parent_membership[base] if base is not None else rid_array()
        inserted = rids_without(membership, set(base_rids))
        deleted = rids_without(base_rids, members)
        blank = (None,) * self._arity
        table.insert_many(
            (rid, False, *self._pad(records[rid])) for rid in inserted
        )
        table.insert_many((rid, True, *blank) for rid in deleted)
        telemetry.count("model.delta_based.rows_inserted", len(inserted))
        telemetry.count("model.delta_based.tombstones_inserted", len(deleted))
        self._delta_tables[vid] = table
        self._precedent.insert((vid, base))

    def base_of(self, vid: int) -> int | None:
        rows = self._precedent.lookup("vid", vid)
        if not rows:
            return None
        return rows[0][1]

    def chain_of(self, vid: int) -> list[int]:
        """The base chain from ``vid`` back to the root (inclusive)."""
        chain = [vid]
        seen = {vid}
        current = self.base_of(vid)
        while current is not None:
            if current in seen:
                raise RuntimeError(f"cycle in precedent chain at {current}")
            chain.append(current)
            seen.add(current)
            current = self.base_of(current)
        return chain

    def payloads_of(
        self, rids: Iterable[int], vid: int | None = None
    ) -> dict[int, tuple]:
        # A tombstone row carries a rid and no record.
        return self._lookup_payloads(
            self._delta_tables.values(), rids, lambda row: not row[1]
        )

    def stored_versions(self) -> set[int]:
        return set(self._delta_tables)

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        if vid not in self._delta_tables:
            return [], []
        seen: set[int] = set()
        live: list[Row] = []
        chain = self.chain_of(vid)
        telemetry.observe("model.delta_based.chain_length", len(chain))
        for step in chain:
            # rid is the delta table's key, so a step never repeats one.
            fresh = [
                row
                for row in self._delta_tables[step].scan()
                if row[0] not in seen
            ]
            seen.update(row[0] for row in fresh)
            live += [row for row in fresh if not row[1]]  # tombstone
        # The chain yields the newest delta first: _columns_of puts the
        # version in ascending rid order.
        return self._columns_of(live, offset=2)

    def explain_checkout(self, vid: int):
        """Walk the base chain root-ward, scanning one delta per step."""
        from repro.observe.explain import ExplainNode, io_cost

        chain = self.chain_of(vid) if vid in self._delta_tables else []
        node = ExplainNode(
            op="model.delta_based.checkout",
            detail={"vid": vid, "chain_length": len(chain)},
            span_match=("model.checkout", {"vid": vid}),
        )
        for step in chain:
            table = self._delta_tables[step]
            node.add(
                ExplainNode(
                    op="delta.scan",
                    detail={"vid": step, "table": table.name},
                    estimated_rows=table.row_count,
                    estimated_cost=io_cost(seq_rows=table.row_count),
                )
            )
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """Pick the closest base, store only the modifications."""
        from repro.observe.explain import ExplainNode, io_cost

        base_size = max(parent_sizes.values(), default=0)
        delta_rows = abs(estimated_rows - base_size) or min(
            estimated_rows, 1
        )
        node = ExplainNode(
            op="model.delta_based.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="delta.encode",
                detail={
                    "note": "inserted records + tombstones vs the closest base"
                },
                estimated_rows=delta_rows,
                estimated_cost=io_cost(seq_rows=delta_rows),
            )
        )
        return node

    def _pad(self, payload: tuple) -> tuple:
        width = self._arity
        if len(payload) < width:
            return payload + (None,) * (width - len(payload))
        return payload

    def storage_bytes(self) -> int:
        total = self._precedent.storage_bytes()
        return total + sum(t.storage_bytes() for t in self._delta_tables.values())

    def drop(self) -> None:
        super().drop()
        self._delta_tables.clear()
