"""Cross-module integration tests: the full system working together."""

import pytest

from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.core.queries import VersionQuery, aggregate_by_version
from repro.datasets.benchmark import BenchmarkConfig, generate_sci
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.database import Database
from repro.relational.query import Aggregate
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import FLOAT, INT, TEXT
from repro.vquel import Repository, run_query


class TestOrpheusOverPartitionedStore:
    """The full OrpheusDB stack with the Chapter 5 optimizer plugged in."""

    @pytest.fixture
    def orpheus(self):
        orpheus = Orpheus()
        orpheus.create_user("alice")
        orpheus.config("alice")
        schema = Schema(
            [ColumnDef("key", TEXT), ColumnDef("value", INT)],
            primary_key=("key",),
        )
        store = PartitionedRlistStore(
            orpheus.database, "data", schema,
            storage_threshold_factor=2.0,
        )
        cvd = CVD(orpheus.database, "data", schema, model=store)
        orpheus._cvds["data"] = cvd
        cvd.commit(
            [(f"k{i}", i) for i in range(50)], message="init", author="alice"
        )
        return orpheus

    def test_checkout_commit_optimize_cycle(self, orpheus):
        for round_number in range(4):
            table = orpheus.checkout("data", round_number + 1, f"w{round_number}")
            table.insert((f"new{round_number}", 1000 + round_number))
            orpheus.commit(f"w{round_number}", message=f"round {round_number}")
        partitioning = orpheus.optimize("data", storage_threshold_factor=2.0)
        assert partitioning.num_partitions >= 1
        # Everything still reads correctly after migration.
        cvd = orpheus.cvd("data")
        latest = cvd.versions.latest_vid()
        result = cvd.checkout(latest)
        assert len(result.rows) == 54

    def test_optimize_requires_partitioned_store(self):
        orpheus = Orpheus()
        schema = Schema([ColumnDef("x", INT)])
        orpheus.init("plain", schema, [(1,)])
        from repro.core.errors import CVDError

        with pytest.raises(CVDError):
            orpheus.optimize("plain")


class TestVQuelOverGeneratedCvd:
    def test_vquel_agrees_with_native_queries(self):
        history = generate_sci(
            BenchmarkConfig(
                num_branches=3, target_records=300, ops_per_commit=30, seed=55
            )
        )
        schema = Schema(
            [ColumnDef(f"a{i}", INT) for i in range(history.num_attributes)]
        )
        cvd = CVD.from_history(Database(), history, name="d", schema=schema)
        repo = Repository.from_cvd(cvd, relation_name="D")

        native = dict(
            aggregate_by_version(cvd, [Aggregate("count", alias="n")])
        )
        result = run_query(
            repo,
            'range of V is Version range of T is V.Relations(name = "D").Tuples '
            "retrieve V.id, count(T)",
        )
        for version_id, count in result.rows:
            vid = int(version_id[1:])
            assert native[vid] == count

    def test_version_query_matches_vquel_graph_traversal(self, protein_cvd):
        repo = Repository.from_cvd(protein_cvd)
        vquel_rows = run_query(
            repo,
            'range of V is Version(id = "v01") range of D is V.D() '
            "retrieve D.id sort by D.id",
        )
        native = VersionQuery(protein_cvd).descendants_of(1).vids()
        assert [f"v{v:02d}" for v in native] == [r[0] for r in vquel_rows]


class TestStorageEngineOverCvdHistory:
    def test_chapter7_planning_for_cvd_versions(self):
        """Store a CVD's materialized versions through the Chapter 7
        engine using the cell codec — versions as keyed tables."""
        from repro.storage import VersionedStore
        from repro.storage.deltas import CellDeltaCodec

        history = generate_sci(
            BenchmarkConfig(
                num_branches=3, target_records=400, ops_per_commit=40, seed=66
            )
        )
        schema = Schema(
            [ColumnDef(f"a{i}", INT) for i in range(history.num_attributes)]
        )
        cvd = CVD.from_history(Database(), history, name="d", schema=schema)

        store = VersionedStore(CellDeltaCodec())
        for index, commit in enumerate(history.commits, start=1):
            keyed = dict(zip(*cvd.model.checkout_columns(commit.vid)))
            parents = tuple(
                history.commits.index(history.commit_by_vid(p)) + 1
                for p in commit.parents
            )
            store.add_version(index, keyed, parents)
        plan = store.plan(1)
        graph = store.graph()
        full = sum(graph.edges[(0, v)][0] for v in graph.vertices())
        # A short insert-heavy history still compresses >2x.
        assert plan.total_storage_cost(graph) < full / 2
        for index in (1, len(history.commits) // 2, len(history.commits)):
            assert store.retrieve(index) == store._artifacts[index]

    def test_provenance_recovers_cvd_lineage(self):
        """Export an unregistered snapshot of each CVD version; lineage
        inference should recover most of the version graph."""
        from repro.provenance import Artifact, evaluate_edges, infer_lineage

        history = generate_sci(
            BenchmarkConfig(
                num_branches=2, target_records=400, ops_per_commit=60, seed=88
            )
        )
        artifacts = []
        truth = []
        columns = ["rid"] + [f"a{i}" for i in range(history.num_attributes)]
        for commit in history.commits:
            rows = [
                (rid, *history.payloads[rid]) for rid in sorted(commit.rids)
            ]
            artifacts.append(
                Artifact(
                    name=f"v{commit.vid}",
                    columns=columns,
                    rows=rows,
                    timestamp=float(commit.vid),
                )
            )
            for parent in commit.parents:
                truth.append((f"v{parent}", f"v{commit.vid}"))
        edges = infer_lineage(artifacts)
        metrics = evaluate_edges([e.as_pair() for e in edges], truth)
        assert metrics.f1 >= 0.8


class TestSchemaEvolutionAcrossModels:
    @pytest.mark.parametrize(
        "model",
        [
            "combined_table",
            "split_by_vlist",
            "split_by_rlist",
            "table_per_version",
            "delta_based",
        ],
    )
    def test_add_column_then_checkout_old_and_new(self, model):
        schema = Schema(
            [ColumnDef("key", TEXT), ColumnDef("v", INT)],
            primary_key=("key",),
        )
        cvd = CVD(Database(), "evolve", schema, model=model)
        v1 = cvd.commit([("a", 1), ("b", 2)])
        v2 = cvd.commit(
            [("a", 1, 0.5), ("b", 2, 0.7), ("c", 3, 0.9)],
            parents=[v1],
            columns=["key", "v", "ratio"],
            column_types={"ratio": FLOAT},
        )
        old = cvd.checkout(v1)
        assert sorted(old.rows) == [("a", 1, None), ("b", 2, None)]
        new = cvd.checkout(v2)
        assert ("c", 3, 0.9) in new.rows
