"""Extra coverage for the storage graph layer."""

import pytest

from repro.storage.graph import ROOT, StorageGraph, StoragePlan
from repro.storage.matrices import CostMatrices


@pytest.fixture
def graph():
    g = StorageGraph(num_versions=3)
    g.edges[(ROOT, 1)] = (100.0, 100.0)
    g.edges[(ROOT, 2)] = (110.0, 110.0)
    g.edges[(ROOT, 3)] = (120.0, 120.0)
    g.edges[(1, 2)] = (10.0, 15.0)
    g.edges[(2, 3)] = (5.0, 8.0)
    return g


class TestStorageGraph:
    def test_from_matrices_diagonal_becomes_root_edges(self):
        matrices = CostMatrices(num_versions=2)
        matrices.set_materialization(1, 50, 60)
        matrices.set_materialization(2, 70, 80)
        matrices.set_delta(1, 2, 5, 6)
        graph = StorageGraph.from_matrices(matrices)
        assert graph.edges[(ROOT, 1)] == (50, 60)
        assert graph.edges[(1, 2)] == (5, 6)

    def test_out_in_edges(self, graph):
        assert {t for t, _d, _p in graph.out_edges(1)} == {2}
        assert {s for s, _d, _p in graph.in_edges(2)} == {ROOT, 1}

    def test_adjacency(self, graph):
        adjacency = graph.adjacency()
        assert len(adjacency[ROOT]) == 3
        assert adjacency[1][0][0] == 2


class TestStoragePlanCosts:
    def test_chain_costs(self, graph):
        plan = StoragePlan(parent={1: ROOT, 2: 1, 3: 2})
        assert plan.total_storage_cost(graph) == 115.0
        costs = plan.recreation_costs(graph)
        assert costs == {1: 100.0, 2: 115.0, 3: 123.0}
        assert plan.sum_recreation(graph) == pytest.approx(338.0)
        assert plan.max_recreation(graph) == 123.0

    def test_materialized_list(self, graph):
        plan = StoragePlan(parent={1: ROOT, 2: 1, 3: ROOT})
        assert plan.materialized() == [1, 3]

    def test_depth_histogram_chain(self, graph):
        plan = StoragePlan(parent={1: ROOT, 2: 1, 3: 2})
        assert plan.depth_histogram() == {0: 1, 1: 1, 2: 1}

    def test_memoized_walk_matches_naive(self, graph):
        plan = StoragePlan(parent={1: ROOT, 2: 1, 3: 2})
        costs = plan.recreation_costs(graph)
        # Second call hits the memo and must agree.
        assert plan.recreation_costs(graph) == costs


class TestMatrixEdgecases:
    def test_triangle_checker_flags_violation(self):
        matrices = CostMatrices(num_versions=2, symmetric=True)
        matrices.set_materialization(1, 100, 100)
        # Materialization triangle: |Δ11 - Δ12| <= Δ22 must fail.
        matrices.set_materialization(2, 1, 1)
        matrices.set_delta(1, 2, 10, 10)
        violations = matrices.check_triangle_inequality()
        assert violations

    def test_edges_iteration_shape(self):
        matrices = CostMatrices(num_versions=1)
        matrices.set_materialization(1, 9, 9)
        edges = list(matrices.edges())
        assert edges == [(0, 1, 9, 9)]


def _shrinking(symmetric: bool) -> StorageGraph:
    """30 versions of 100 down to 71 rows, each a one-row delta on the
    one before, its delta edge stored parent -> child only."""
    graph = StorageGraph(num_versions=30, symmetric=symmetric)
    for vid in graph.vertices():
        graph.edges[(ROOT, vid)] = (101 - vid, 101 - vid)
        if vid > 1:
            graph.edges[(vid - 1, vid)] = (1, 1)
    return graph


class TestSymmetricEdges:
    def test_a_symmetric_graph_reads_a_delta_edge_either_way(self):
        """MP attaches versions child -> parent through edges stored the
        other way; the plan's costs and its validation read them."""
        from repro.storage.solvers.mp import mp_min_storage

        graph = _shrinking(symmetric=True)
        plan = mp_min_storage(graph, 200)
        plan.validate(graph)
        assert plan.parent[29] == 30 and plan.materialized() == [30]
        assert plan.total_storage_cost(graph) == 71 + 29
        assert plan.max_recreation(graph) == 100
        assert graph.edge_key(30, 29) == (29, 30)
        assert graph.storage_weight(30, 29) == graph.recreation_weight(30, 29) == 1

    def test_only_a_symmetric_graph_reads_an_edge_backwards(self):
        from repro.storage.solvers.mp import mp_min_storage

        one_way = _shrinking(symmetric=False)
        assert one_way.edge_key(30, 29) is None
        with pytest.raises(KeyError):
            one_way.storage_weight(30, 29)
        with pytest.raises(ValueError, match="unrevealed edge"):
            StoragePlan({**{v: v + 1 for v in range(1, 30)}, 30: ROOT}).validate(
                one_way
            )
        # Prim stores the one-way history whole (see mp_min_storage).
        plan = mp_min_storage(one_way, 200)
        assert plan.total_storage_cost(one_way) == 2_565

    def test_a_root_edge_is_never_read_backwards(self):
        graph = _shrinking(symmetric=True)
        assert graph.edge_key(5, ROOT) is None
        assert graph.edge_key(ROOT, 5) == (ROOT, 5)
