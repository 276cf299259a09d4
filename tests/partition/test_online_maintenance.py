"""Focused tests for the online-maintenance commit routing (Section 5.4)."""

from repro.core.cvd import CVD
from repro.partition.lyresplit import lyresplit_for_budget
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.partition.version_graph import build_version_graph
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT

SCHEMA = Schema(
    [ColumnDef("k", TEXT), ColumnDef("v", INT)], primary_key=("k",)
)


def make_store(**kwargs):
    db = Database()
    store = PartitionedRlistStore(db, "s", SCHEMA, **kwargs)
    cvd = CVD(db, "s", SCHEMA, model=store)
    return cvd, store


class TestCommitRouting:
    def test_root_commit_opens_first_partition(self):
        cvd, store = make_store()
        cvd.commit([("a", 1)])
        assert len(store._partitions) == 1

    def test_heavy_overlap_joins_parent_partition(self):
        cvd, store = make_store(storage_threshold_factor=10.0)
        rows = [(f"k{i}", i) for i in range(100)]
        v1 = cvd.commit(rows)
        cvd.commit(rows + [("extra", 1)], parents=[v1])
        # Sharing 100 of 101 records: must land in v1's partition.
        assert store._partition_of[2] == store._partition_of[1]

    def test_disjoint_child_opens_new_partition(self):
        cvd, store = make_store(storage_threshold_factor=10.0)
        v1 = cvd.commit([(f"k{i}", i) for i in range(50)])
        # Entirely different records: w(v1, v2) = 0 <= delta*|R|.
        cvd.commit([(f"x{i}", i) for i in range(50)], parents=[v1])
        assert store._partition_of[2] != store._partition_of[1]

    def test_storage_budget_forces_join(self):
        """Even a light-overlap child joins its parent's partition when
        opening a new one would blow the budget."""
        cvd, store = make_store(storage_threshold_factor=1.05)
        v1 = cvd.commit([(f"k{i}", i) for i in range(50)])
        cvd.commit(
            [(f"k{i}", i) for i in range(48)]
            + [(f"y{i}", i) for i in range(40)],
            parents=[v1],
        )
        cvd.commit(
            [(f"z{i}", i) for i in range(80)],
            parents=[2],
        )
        assert store.current_storage_cost() <= (
            1.05 * len(store._payloads) + 80
        )

    def test_orphan_commit_without_parents(self):
        cvd, store = make_store()
        cvd.commit([("a", 1)])
        cvd.commit([("b", 2)])  # no parents: new partition
        assert len(store._partitions) == 2
        assert set(store.checkout_columns(2)[0]) == store._membership[2]


class TestCostTracking:
    def test_current_costs_match_partition_state(self):
        cvd, store = make_store()
        v1 = cvd.commit([(f"k{i}", i) for i in range(30)])
        cvd.commit(
            [(f"k{i}", i) for i in range(25)], parents=[v1]
        )
        expected_storage = sum(
            len(records) for records in store._partition_records
        )
        assert store.current_storage_cost() == expected_storage
        expected_checkout = (
            sum(
                len(v) * len(r)
                for v, r in zip(
                    store._partition_versions, store._partition_records
                )
            )
            / 2
        )
        assert store.current_checkout_cost() == expected_checkout

    def test_optimize_adopts_delta_star(self):
        """``optimize`` routes by its LyreSplit run's δ from now on; a
        ``best_partitioning`` lookup leaves δ* alone."""
        cvd, store = make_store()
        v = cvd.commit([(f"k{i}", i) for i in range(30)])
        for _ in range(4):
            v = cvd.commit(
                [(f"k{i}", i) for i in range(30)] + [(f"n{v}", v)],
                parents=[v],
            )
        before = store._delta_star
        store.best_partitioning()
        assert store._delta_star == before
        membership = {vid: store.rids_of(vid) for vid in store._order}
        graph = build_version_graph(membership, store._order, store._parents)
        budget = store.storage_threshold_factor * store._num_records
        run = lyresplit_for_budget(graph, budget, membership=membership)
        assert run.delta != before
        store.optimize()
        assert store._delta_star == run.delta
