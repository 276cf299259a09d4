"""A partitioned split-by-rlist store with online maintenance & migration.

This is the hybrid representation Chapter 5 builds: split-by-rlist within
each partition, a-table-per-version in the limit of one version per
partition. Each partition owns a data table (union of its versions'
records — records duplicate across partitions) and a versioning table; a
checkout touches exactly one partition.

Online maintenance (Section 5.4): a committed version joins its closest
parent's partition when it shares enough records (w > δ*·|R|) and the
storage budget allows, otherwise it opens a new partition; δ* is the δ of
the last LyreSplit run ``optimize`` or ``maybe_migrate`` adopted. When the
live checkout cost C_avg drifts beyond µ·C*_avg, the migration engine
rebuilds partitions — intelligently reusing the closest existing
partitions instead of rebuilding from scratch.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import telemetry
from repro.core.models.base import DataModel
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.invariants import MU, within_tolerance
from repro.relational.arrays import Slots, rids_without
from repro.partition.lyresplit import LyreSplitResult, lyresplit_for_budget
from repro.partition.version_graph import (
    Partitioning,
    build_version_graph,
)


@dataclass
class MigrationStats:
    """Bookkeeping for one migration-engine invocation."""

    commits_at: int
    records_inserted: int
    records_deleted: int
    partitions_rebuilt: int
    partitions_reused: int
    wall_seconds: float
    strategy: str


class PartitionedRlistStore(DataModel):
    """Drop-in :class:`DataModel` storing split-by-rlist per partition."""

    model_name = "partitioned_rlist"
    _UNSAVED = DataModel._UNSAVED | {"_partition_records"}

    def __init__(
        self,
        database,
        cvd_name,
        data_schema,
        storage_threshold_factor: float = 2.0,
        tolerance: float = MU,
        auto_migrate: bool = False,
        migration_strategy: str = "intelligent",
        join_algorithm: str = "hash",
    ) -> None:
        """Args:
        storage_threshold_factor: γ/|R| — the storage budget as a
            multiple of the distinct record count.
        tolerance: µ — migration triggers when C_avg > µ·C*_avg.
        auto_migrate: When True, every commit checks the tolerance and
            migrates on violation (the streaming experiment mode).
        migration_strategy: ``intelligent`` (reuse closest partitions) or
            ``naive`` (rebuild everything from scratch).
        """
        super().__init__(database, cvd_name, data_schema)
        self.storage_threshold_factor = storage_threshold_factor
        self.tolerance = tolerance
        self.auto_migrate = auto_migrate
        self.migration_strategy = migration_strategy
        self.join_algorithm = join_algorithm
        self._partitions: list[SplitByRlistModel] = []
        self._partition_versions: list[set[int]] = []
        self._partition_of: dict[int, int] = {}
        self._suffix_counter = 0
        #: CVD-wide state mirrored from commits.
        self._num_records = 0
        self._parents: dict[int, tuple[int, ...]] = {}
        self._order: list[int] = []
        self._reset_memo()
        #: δ* from the last LyreSplit run (splitting parameter reused by
        #: the online rule); starts permissive so early commits cluster.
        self._delta_star = 0.1
        self.migrations: list[MigrationStats] = []

    # ------------------------------------------------------------------
    # The memo: what this process has read of the partitions' tables,
    # which are the only stored copy. A version's rids are rebuilt from
    # its partition's rlist rows into the CVD's memo (``rids_memo``), and
    # a migration reads the records it copies through the CVD's record
    # slots (``records_memo``): neither has a memo here.
    # ------------------------------------------------------------------
    def _reset_memo(self) -> None:
        #: Per partition, the rids its data table holds (None: not read).
        self._partition_records: list[set[int] | None] = [None] * len(
            self._partitions
        )

    def __setstate__(self, state: dict) -> None:
        # A state from before the memo stored its record map: it only
        # gives the record count now, the next save leaves it out.
        state.setdefault("_num_records", len(state.get("_payloads", ())))
        self.__dict__.update(
            (k, v) for k, v in state.items() if k not in self._UNSAVED
        )
        self._reset_memo()

    def _known(self) -> dict[int, array]:
        """Where rebuilt versions go: the CVD's memo, or a map for the
        caller's run when the store is used on its own."""
        return {} if self.rids_memo is None else self.rids_memo

    def _records(self) -> Slots:
        """Where read records go: the CVD's record slots, or slots for
        the caller's run when the store is used on its own."""
        return Slots() if self.records_memo is None else self.records_memo

    def rids_of(self, vid: int, known: dict[int, array] | None = None) -> array:
        known = self._known() if known is None else known
        return self._partitions[self._partition_of[vid]].rids_of(vid, known)

    def _every_version(self) -> dict[int, array]:
        """Every version's rids, each rebuilt at most once."""
        known = self._known()
        return {vid: self.rids_of(vid, known) for vid in self._order}

    def _records_in(self, index: int) -> set[int]:
        """The rids partition ``index`` holds — the keys of its data
        table's rid index, so reading them is not charged."""
        records = self._partition_records[index]
        if records is None:
            table = self._partitions[index].data_table
            records = {row[0] for row in table.rows_snapshot()}
            self._partition_records[index] = records
        return records

    def _record_tables(self, vid: int | None = None):
        """Every partition's data table, the one that owns ``vid`` first."""
        owner = self._partition_of.get(vid)
        ordered = sorted(
            enumerate(self._partitions), key=lambda item: item[0] != owner
        )
        return [partition.data_table for _index, partition in ordered]

    def stored_versions(self) -> set[int]:
        return set().union(*(p.stored_versions() for p in self._partitions))

    # ------------------------------------------------------------------
    # DataModel interface
    # ------------------------------------------------------------------
    def table_names(self) -> list[str]:
        names: list[str] = []
        for partition in self._partitions:
            names.extend(partition.table_names())
        return names

    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        self._num_records += len(new_records)
        self._parents[vid] = tuple(parents)
        self._order.append(vid)

        target = self._route_commit(parent_membership, membership)
        self._add_version_to_partition(
            vid, membership, target, records, parent_membership
        )

        if self.auto_migrate and len(self._order) > 1:
            self.maybe_migrate()

    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        index = self._partition_of[vid]
        return self._partitions[index].checkout_columns(vid, self._known())

    def alter_schema(self, new_schema) -> None:
        super().alter_schema(new_schema)
        # The tables now hold every record NULL-extended and coerced to
        # the evolved types: each partition reads them at the new width.
        for partition in self._partitions:
            partition.data_schema = new_schema

    def storage_bytes(self) -> int:
        return sum(p.storage_bytes() for p in self._partitions)

    def explain_checkout(self, vid: int):
        """Partition dispatch: a checkout touches exactly one partition."""
        from repro.observe.explain import ExplainNode

        index = self._partition_of.get(vid)
        node = ExplainNode(
            op="partition.dispatch",
            detail={
                "vid": vid,
                "partitions_touched": 1 if index is not None else 0,
                "partitions_total": len(self._partitions),
                "partition": index if index is not None else "(none)",
                "partition_versions": (
                    len(self._partition_versions[index])
                    if index is not None
                    else 0
                ),
                "partition_records": (
                    self._partitions[index].data_record_count()
                    if index is not None
                    else 0
                ),
            },
            span_match=("model.checkout", {"vid": vid}),
        )
        if index is not None:
            node.add(self._partitions[index].explain_checkout(vid))
        return node

    def explain_commit(self, estimated_rows, parent_sizes):
        """Online routing: join the closest parent's partition when the
        overlap beats δ*·|R| and the budget allows, else open a new one."""
        from repro.observe.explain import ExplainNode, io_cost

        node = ExplainNode(
            op="partition.route",
            detail={
                "partitions_total": len(self._partitions),
                "delta_star": round(self._delta_star, 4),
                "rule": "join parent partition if overlap > δ*·|R| "
                "and storage budget allows",
            },
            estimated_rows=estimated_rows,
            span_match=("model.commit", {}),
        )
        node.add(
            ExplainNode(
                op="partition.copy_missing",
                detail={"note": "records absent from the target partition"},
                estimated_rows=estimated_rows,
                estimated_cost=io_cost(seq_rows=estimated_rows),
            )
        )
        return node

    def drop(self) -> None:
        for partition in self._partitions:
            partition.drop()
        self._partitions.clear()
        self._partition_records.clear()
        self._partition_versions.clear()
        self._partition_of.clear()

    # ------------------------------------------------------------------
    # Online maintenance (Section 5.4)
    # ------------------------------------------------------------------
    def _route_commit(
        self,
        parent_membership: Mapping[int, array],
        membership: array,
    ) -> int | None:
        """Choose an existing partition for the new version, or None to
        open a fresh one."""
        if not self._partitions:
            return None
        members = set(membership)
        best_index: int | None = None
        best_weight = -1
        for parent, parent_rids in parent_membership.items():
            index = self._partition_of.get(parent)
            if index is None:
                continue
            weight = len(members.intersection(parent_rids))
            if weight > best_weight:
                best_weight = weight
                best_index = index
        if best_index is None:
            return None
        total_records = self._num_records
        budget = self.storage_threshold_factor * total_records
        current_storage = self.current_storage_cost()
        # Open a new partition when the parent overlap is light *and*
        # storage allows; otherwise join the parent's partition.
        if (
            best_weight <= self._delta_star * total_records
            and current_storage + len(membership) <= budget
        ):
            return None
        return best_index

    def _add_version_to_partition(
        self,
        vid: int,
        membership: array,
        index: int | None,
        records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
    ) -> None:
        if index is None:
            partition = self._new_partition()
            index = len(self._partitions) - 1
        else:
            partition = self._partitions[index]
        held = self._records_in(index)
        missing = rids_without(membership, held)
        partition.data_table.insert_many(
            (rid, *records[rid]) for rid in missing
        )
        telemetry.count("partition.commit.rows_copied", len(missing))
        partition.versioning_table.insert(
            (vid, partition._encode_rlist(membership, parent_membership, records))
        )
        held.update(membership)
        self._partition_versions[index].add(vid)
        self._partition_of[vid] = index

    def _new_partition(self) -> SplitByRlistModel:
        telemetry.count("partition.partitions_opened")
        self._suffix_counter += 1
        partition = SplitByRlistModel(
            self.database,
            self.cvd_name,
            self.data_schema,
            join_algorithm=self.join_algorithm,
            table_suffix=f"_p{self._suffix_counter}",
        )
        self._partitions.append(partition)
        self._partition_records.append(set())
        self._partition_versions.append(set())
        return partition

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def current_partitioning(self) -> Partitioning:
        return Partitioning(
            [frozenset(v) for v in self._partition_versions if v]
        )

    def current_checkout_cost(self) -> float:
        """C_avg over the live partitions, in records."""
        total = 0
        for versions, partition in zip(
            self._partition_versions, self._partitions
        ):
            total += len(versions) * partition.data_record_count()
        n = len(self._order)
        return total / n if n else 0.0

    def current_storage_cost(self) -> int:
        return sum(p.data_record_count() for p in self._partitions)

    def _lyresplit(self) -> tuple[LyreSplitResult, float]:
        """LyreSplit under the current budget, and its C*_avg. The
        Chapter 5 algorithms take rid sets: these live for the call, so
        with ``auto_migrate`` every commit builds a set per version."""
        membership = {
            vid: frozenset(rids) for vid, rids in self._every_version().items()
        }
        graph = build_version_graph(membership, self._order, self._parents)
        budget = self.storage_threshold_factor * self._num_records
        result = lyresplit_for_budget(graph, budget, membership=membership)
        return result, result.partitioning.checkout_cost(membership)

    def best_partitioning(self) -> tuple[Partitioning, float]:
        """(P*, C*_avg) under the current budget; changes nothing."""
        result, checkout = self._lyresplit()
        return result.partitioning, checkout

    def maybe_migrate(self) -> MigrationStats | None:
        """Take LyreSplit's δ*; migrate if C_avg > µ·C*_avg."""
        result, best = self._lyresplit()
        self._delta_star = result.delta
        if within_tolerance(self.current_checkout_cost(), best, self.tolerance):
            return None
        return self.migrate_to(result.partitioning)

    def optimize(self, storage_threshold_factor: float | None = None) -> Partitioning:
        """The ``optimize`` command: recompute and migrate unconditionally."""
        with telemetry.span("partition.optimize"):
            if storage_threshold_factor is not None:
                self.storage_threshold_factor = storage_threshold_factor
            result, _cost = self._lyresplit()
            self._delta_star = result.delta
            self.migrate_to(result.partitioning)
            return result.partitioning

    # ------------------------------------------------------------------
    # Migration engine (Section 5.4)
    # ------------------------------------------------------------------
    def migrate_to(self, target: Partitioning) -> MigrationStats:
        with telemetry.span(
            "partition.migrate",
            strategy=self.migration_strategy,
            partitions=target.num_partitions,
        ):
            return self._migrate_to(target)

    def _migrate_to(self, target: Partitioning) -> MigrationStats:
        started = telemetry.monotonic()
        inserted = 0
        deleted = 0
        rebuilt = 0
        reused = 0

        membership = self._every_version()
        new_groups = [set(group) for group in target.groups]
        new_records = [
            set().union(*(membership[v] for v in group))
            for group in new_groups
        ]
        old_partitions = self._partitions
        old_records = [
            self._records_in(index) for index in range(len(old_partitions))
        ]
        # Everything that may move, read while the old tables still stand.
        payloads = self._records()
        unread = [rid for rid in set().union(*new_records) if payloads.get(rid) is None]
        if unread:
            payloads.update(self.payloads_of(unread))

        if self.migration_strategy == "naive":
            plan: list[tuple[int, int | None]] = [
                (i, None) for i in range(len(new_groups))
            ]
        else:
            plan = self._match_partitions(new_groups, new_records, old_records)

        self._partitions = []
        self._partition_records = []
        self._partition_versions = []
        self._partition_of = {}

        used_old: set[int] = set()
        for new_index, old_index in plan:
            group = new_groups[new_index]
            records = new_records[new_index]
            if old_index is None:
                partition = self._new_partition()
                partition.data_table.insert_many(
                    (rid, *payloads[rid]) for rid in sorted(records)
                )
                inserted += len(records)
                rebuilt += 1
                index = len(self._partitions) - 1
            else:
                # Reuse: adjust the old partition's data table in place.
                used_old.add(old_index)
                partition = old_partitions[old_index]
                self._partitions.append(partition)
                self._partition_records.append(set())
                self._partition_versions.append(set())
                index = len(self._partitions) - 1
                existing = old_records[old_index]
                to_insert = records - existing
                to_delete = existing - records
                partition.data_table.insert_many(
                    (rid, *payloads[rid]) for rid in sorted(to_insert)
                )
                if to_delete:
                    from repro.relational.expressions import InSet, col

                    partition.data_table.delete_where(
                        InSet(col("rid"), frozenset(to_delete))
                    )
                inserted += len(to_insert)
                deleted += len(to_delete)
                reused += 1
                # Reset the versioning table for the new version set.
                self._reset_versioning(partition)
            self._partition_records[index] = set(records)
            self._partition_versions[index] = set(group)
            for vid in sorted(group):  # parents first: a row may be a delta
                self._partition_of[vid] = index
                parents = {p: membership[p] for p in self._parents[vid]}
                partition.versioning_table.insert(
                    (vid, partition._encode_rlist(membership[vid], parents))
                )

        # Drop old partitions that were not reused.
        for old_index, partition in enumerate(old_partitions):
            if old_index not in used_old:
                partition.drop()

        stats = MigrationStats(
            commits_at=len(self._order),
            records_inserted=inserted,
            records_deleted=deleted,
            partitions_rebuilt=rebuilt,
            partitions_reused=reused,
            wall_seconds=telemetry.monotonic() - started,
            strategy=self.migration_strategy,
        )
        telemetry.count("partition.migration.rows_inserted", inserted)
        telemetry.count("partition.migration.rows_deleted", deleted)
        telemetry.count("partition.migration.partitions_rebuilt", rebuilt)
        telemetry.count("partition.migration.partitions_reused", reused)
        telemetry.observe("partition.migration.seconds", stats.wall_seconds)
        self.migrations.append(stats)
        return stats

    def _reset_versioning(self, partition: SplitByRlistModel) -> None:
        from repro.relational.expressions import lit

        partition.versioning_table.delete_where(lit(True))
        partition.versioning_table.vacuum()

    def _match_partitions(
        self,
        new_groups: list[set[int]],
        new_records: list[set[int]],
        old_records: list[set[int]],
    ) -> list[tuple[int, int | None]]:
        """Greedy closest-partition matching by modification cost.

        Modification cost of turning old partition j into new partition i
        is |R'_i \\ R_j| + |R_j \\ R'_i|, computed through version overlap
        (cheap: via the version graph / membership map) rather than raw
        record diffs. Build-from-scratch (cost |R'_i|) wins when cheaper.
        """
        candidates: list[tuple[int, int, int]] = []
        for i, records in enumerate(new_records):
            for j, old in enumerate(old_records):
                if not (new_groups[i] & self._partition_versions[j]):
                    continue  # no common versions: unlikely to be close
                cost = len(records - old) + len(old - records)
                if cost < len(records):
                    candidates.append((cost, i, j))
        candidates.sort()
        assigned_new: set[int] = set()
        assigned_old: set[int] = set()
        plan: list[tuple[int, int | None]] = []
        for cost, i, j in candidates:
            if i in assigned_new or j in assigned_old:
                continue
            plan.append((i, j))
            assigned_new.add(i)
            assigned_old.add(j)
        for i in range(len(new_groups)):
            if i not in assigned_new:
                plan.append((i, None))
        return plan
