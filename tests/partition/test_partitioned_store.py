"""Tests for the partitioned store: routing, checkout, migration."""

from repro.core.cvd import CVD
from repro.invariants import within_tolerance
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT


def make_store(history, **kwargs) -> tuple[CVD, PartitionedRlistStore]:
    db = Database()
    schema = Schema(
        [ColumnDef(f"a{i}", INT) for i in range(history.num_attributes)]
    )
    store = PartitionedRlistStore(db, history.name, schema, **kwargs)
    cvd = CVD.from_history(
        db, history, name=history.name, model=store, schema=schema
    )
    return cvd, store


class TestCorrectness:
    def test_checkout_matches_ground_truth(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        for commit in sci_tiny.commits[::7]:
            got = set(store.checkout_columns(commit.vid)[0])
            assert got == set(commit.rids)

    def test_every_version_routed_to_one_partition(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        assignment = store._partition_of
        assert set(assignment) == {c.vid for c in sci_tiny.commits}

    def test_partition_data_covers_its_versions(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        for index, versions in enumerate(store._partition_versions):
            records = store._partition_records[index]
            for vid in versions:
                assert store._membership[vid] <= records

    def test_checkout_touches_single_partition(self, sci_tiny):
        """The whole point of partitioning: a checkout scans only its
        partition's data table."""
        _cvd, store = make_store(sci_tiny)
        db = store.database
        vid = sci_tiny.commits[-1].vid
        index = store._partition_of[vid]
        partition_rows = store._partitions[index].data_table.row_count
        db.accountant.reset()
        store.checkout_columns(vid)
        scanned = db.accountant.seq_rows + db.accountant.random_rows
        assert scanned <= partition_rows + len(store._membership[vid]) + 1

    def test_storage_within_threshold(self, sci_tiny):
        _cvd, store = make_store(sci_tiny, storage_threshold_factor=2.0)
        assert store.current_storage_cost() <= 2.0 * len(store._payloads) * 1.05

    def test_dag_history(self, cur_tiny):
        _cvd, store = make_store(cur_tiny)
        for commit in cur_tiny.commits[::11]:
            got = set(store.checkout_columns(commit.vid)[0])
            assert got == set(commit.rids)


class TestOnlineMaintenance:
    def test_auto_migration_keeps_cost_near_optimal(self, sci_tiny):
        _cvd, store = make_store(
            sci_tiny,
            storage_threshold_factor=2.0,
            tolerance=1.5,
            auto_migrate=True,
        )
        _target, best_cost = store.best_partitioning()
        assert best_cost > 0
        assert within_tolerance(
            store.current_checkout_cost(), best_cost * 1.05, store.tolerance
        )

    def test_migration_happens_under_tight_tolerance(self, sci_tiny):
        _cvd, store = make_store(
            sci_tiny,
            storage_threshold_factor=2.0,
            tolerance=1.05,
            auto_migrate=True,
        )
        assert len(store.migrations) >= 1

    def test_loose_tolerance_migrates_less(self, sci_tiny):
        def migration_count(mu):
            _cvd, store = make_store(
                sci_tiny,
                storage_threshold_factor=2.0,
                tolerance=mu,
                auto_migrate=True,
            )
            return len(store.migrations)

        assert migration_count(2.5) <= migration_count(1.05)


class TestMigrationEngine:
    def test_checkout_correct_after_explicit_migration(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        target, _ = store.best_partitioning()
        store.migrate_to(target)
        for commit in sci_tiny.commits[::13]:
            got = set(store.checkout_columns(commit.vid)[0])
            assert got == set(commit.rids)

    def test_intelligent_cheaper_than_naive(self, sci_tiny):
        """The Figure 5.17(b) claim: intelligent migration moves fewer
        records than rebuilding from scratch."""
        moved = {}
        for strategy in ("intelligent", "naive"):
            _cvd, store = make_store(
                sci_tiny, migration_strategy=strategy
            )
            target, _ = store.best_partitioning()
            stats = store.migrate_to(target)
            moved[strategy] = stats.records_inserted + stats.records_deleted
        assert moved["intelligent"] < moved["naive"]

    def test_migration_stats_recorded(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        target, _ = store.best_partitioning()
        stats = store.migrate_to(target)
        assert stats.commits_at == len(sci_tiny.commits)
        assert stats.wall_seconds >= 0
        assert store.migrations[-1] is stats

    def test_optimize_command_path(self, sci_tiny):
        _cvd, store = make_store(sci_tiny)
        partitioning = store.optimize(storage_threshold_factor=1.5)
        membership = store._membership
        assert partitioning.storage_cost(membership) <= 1.5 * len(
            store._payloads
        )

    def test_commits_after_migration_still_work(self, sci_tiny, protein_schema):
        cvd, store = make_store(sci_tiny)
        target, _ = store.best_partitioning()
        store.migrate_to(target)
        rows = [
            store._payloads[rid]
            for rid in sorted(sci_tiny.commits[-1].rids)
        ][:50]
        vid = cvd.commit(rows, parents=[sci_tiny.commits[-1].vid])
        got = set(store.checkout_columns(vid)[0])
        assert len(got) == len(rows)
