"""Tests for the six Table 7.1 solvers against the Figure 7.1 example and
synthetic stores, including the ILP optimality cross-check."""

import networkx as nx
import pytest

from repro.storage.graph import ROOT, StorageGraph, StoragePlan
from repro.storage.solvers import solve
from repro.storage.solvers.ilp import (
    ilp_min_storage_max_recreation,
    ilp_min_storage_sum_recreation,
)
from repro.storage.solvers.lmg import lmg_min_storage, lmg_min_sum_recreation
from repro.storage.solvers.mp import mp_min_max_recreation, mp_min_storage
from repro.storage.solvers.mst import (
    minimum_arborescence,
    minimum_spanning_storage,
)
from repro.storage.solvers.spt import shortest_path_tree
from repro.storage.synthetic import SyntheticConfig, build_store


@pytest.fixture
def figure_7_1() -> StorageGraph:
    """The 5-version example of Figure 7.1: ⟨Δ, Φ⟩ per node and edge."""
    graph = StorageGraph(num_versions=5)
    materialization = {
        1: (10000, 10000),
        2: (10100, 10100),
        3: (9700, 9700),
        4: (9800, 9800),
        5: (10120, 10120),
    }
    for vid, costs in materialization.items():
        graph.edges[(ROOT, vid)] = costs
    graph.edges[(1, 2)] = (200, 200)
    graph.edges[(1, 3)] = (1000, 3000)
    graph.edges[(2, 4)] = (50, 400)
    graph.edges[(2, 5)] = (800, 2500)
    graph.edges[(3, 5)] = (200, 550)
    return graph


@pytest.fixture(scope="module")
def store():
    return build_store(
        SyntheticConfig(num_versions=25, branching_factor=0.25, seed=9),
        extra_pairs=8,
    )


class TestFigure71:
    def test_min_storage_matches_figure_iii(self, figure_7_1):
        """Figure 7.1(iii): materialize V1 only; total storage 11450."""
        plan = minimum_spanning_storage(figure_7_1)
        assert plan.materialized() == [1]
        assert plan.total_storage_cost(figure_7_1) == 11450

    def test_min_storage_recreation_of_v5(self, figure_7_1):
        """Retrieving V5 along V1 -> V3 -> V5 costs 13550."""
        plan = minimum_spanning_storage(figure_7_1)
        costs = plan.recreation_costs(figure_7_1)
        assert costs[5] == 13550

    def test_spt_materializes_everything(self, figure_7_1):
        """Figure 7.1(ii): every version materialized is the SPT here
        (each Φ(0,v) beats any delta path)."""
        plan = shortest_path_tree(figure_7_1)
        assert plan.materialized() == [1, 2, 3, 4, 5]
        assert plan.total_storage_cost(figure_7_1) == 49720

    def test_balanced_plan_beats_figure_iv(self, figure_7_1):
        """Figure 7.1(iv) shows *a possible* balanced graph (storage
        30150, V1 and V3 materialized). MP under the same recreation
        budget finds a strictly cheaper balanced plan — still serving V5
        as a delta of V3 but materializing V4 instead of chaining it."""
        plan = mp_min_storage(figure_7_1, max_recreation_budget=10400)
        assert plan.max_recreation(figure_7_1) <= 10400
        assert plan.parent[5] == 3
        figure_iv_storage = 10000 + 200 + 50 + 9700 + 200 + 9800  # +V4 full
        assert plan.total_storage_cost(figure_7_1) <= figure_iv_storage
        # Sanity: strictly between the two extremes of Figure 7.1.
        assert 11450 < plan.total_storage_cost(figure_7_1) < 49720


class TestPlanValidation:
    def test_validate_accepts_tree(self, figure_7_1):
        plan = minimum_spanning_storage(figure_7_1)
        plan.validate(figure_7_1)

    def test_validate_rejects_cycle(self, figure_7_1):
        plan = StoragePlan(parent={1: 2, 2: 1, 3: 1, 4: 2, 5: 3})
        figure_7_1.edges[(2, 1)] = (10, 10)
        with pytest.raises(ValueError):
            plan.validate(figure_7_1)

    def test_validate_rejects_unrevealed_edge(self, figure_7_1):
        plan = StoragePlan(parent={1: 0, 2: 1, 3: 1, 4: 3, 5: 3})
        with pytest.raises(ValueError):
            plan.validate(figure_7_1)

    def test_validate_rejects_missing_version(self, figure_7_1):
        plan = StoragePlan(parent={1: 0, 2: 1, 3: 1, 4: 2})
        with pytest.raises(ValueError):
            plan.validate(figure_7_1)

    def test_depth_histogram(self, figure_7_1):
        plan = minimum_spanning_storage(figure_7_1)
        histogram = plan.depth_histogram()
        assert histogram[0] == 1  # only V1 materialized
        assert sum(histogram.values()) == 5


class TestArborescence:
    def test_matches_networkx_on_synthetic(self, store):
        graph = store.graph()
        plan = minimum_arborescence(graph)
        nx_graph = nx.DiGraph()
        for (source, target), (delta, _phi) in graph.edges.items():
            nx_graph.add_edge(source, target, weight=delta)
        reference = nx.algorithms.tree.branchings.minimum_spanning_arborescence(
            nx_graph, attr="weight"
        )
        reference_weight = sum(
            d["weight"] for _u, _v, d in reference.edges(data=True)
        )
        assert plan.total_storage_cost(graph) == pytest.approx(
            reference_weight
        )

    def test_unreachable_vertex_raises(self):
        graph = StorageGraph(num_versions=2)
        graph.edges[(ROOT, 1)] = (10, 10)
        # version 2 has no in-edge at all
        with pytest.raises(ValueError):
            minimum_arborescence(graph)


class TestLMG:
    def test_problem5_meets_sum_budget(self, store):
        graph = store.graph()
        spt_sum = shortest_path_tree(graph).sum_recreation(graph)
        mst = minimum_spanning_storage(graph)
        budget = (spt_sum + mst.sum_recreation(graph)) / 2
        plan = lmg_min_storage(graph, budget)
        assert plan.sum_recreation(graph) <= budget + 1e-6
        plan.validate(graph)

    def test_problem5_storage_between_extremes(self, store):
        graph = store.graph()
        mst = minimum_spanning_storage(graph)
        spt = shortest_path_tree(graph)
        budget = spt.sum_recreation(graph) * 1.5
        plan = lmg_min_storage(graph, budget)
        assert plan.total_storage_cost(graph) >= mst.total_storage_cost(graph)
        assert plan.total_storage_cost(graph) <= spt.total_storage_cost(
            graph
        ) + 1e-6

    def test_problem3_respects_storage_budget(self, store):
        graph = store.graph()
        mst = minimum_spanning_storage(graph)
        budget = mst.total_storage_cost(graph) * 1.5
        plan = lmg_min_sum_recreation(graph, budget)
        assert plan.total_storage_cost(graph) <= budget + 1e-6
        assert plan.sum_recreation(graph) <= mst.sum_recreation(graph)

    def test_problem3_improves_over_mst(self, store):
        graph = store.graph()
        mst = minimum_spanning_storage(graph)
        budget = mst.total_storage_cost(graph) * 2.0
        plan = lmg_min_sum_recreation(graph, budget)
        assert plan.sum_recreation(graph) < mst.sum_recreation(graph)


class TestMP:
    def test_problem6_meets_max_budget(self, store):
        graph = store.graph()
        spt_max = shortest_path_tree(graph).max_recreation(graph)
        plan = mp_min_storage(graph, spt_max * 1.5)
        assert plan.max_recreation(graph) <= spt_max * 1.5 + 1e-6
        plan.validate(graph)

    def test_problem6_infeasible_raises(self, store):
        graph = store.graph()
        spt_max = shortest_path_tree(graph).max_recreation(graph)
        with pytest.raises(ValueError):
            mp_min_storage(graph, spt_max * 0.1)

    def test_looser_budget_never_more_storage(self, store):
        graph = store.graph()
        spt_max = shortest_path_tree(graph).max_recreation(graph)
        tight = mp_min_storage(graph, spt_max * 1.2)
        loose = mp_min_storage(graph, spt_max * 4.0)
        assert loose.total_storage_cost(graph) <= tight.total_storage_cost(
            graph
        ) + 1e-6

    def test_problem4_respects_storage_budget(self, store):
        graph = store.graph()
        mst = minimum_spanning_storage(graph)
        budget = mst.total_storage_cost(graph) * 1.5
        plan = mp_min_max_recreation(graph, budget)
        assert plan.total_storage_cost(graph) <= budget + 1e-6
        assert plan.max_recreation(graph) <= mst.max_recreation(graph)


class TestILPOptimality:
    @pytest.fixture(scope="class")
    def small(self):
        return build_store(
            SyntheticConfig(num_versions=9, branching_factor=0.3, seed=3),
            extra_pairs=4,
        )

    def test_mp_never_beats_ilp(self, small):
        graph = small.graph()
        theta = shortest_path_tree(graph).max_recreation(graph) * 2
        heuristic = mp_min_storage(graph, theta)
        exact = ilp_min_storage_max_recreation(graph, theta)
        assert exact.max_recreation(graph) <= theta + 1e-6
        assert exact.total_storage_cost(graph) <= heuristic.total_storage_cost(
            graph
        ) + 1e-6

    def test_lmg_never_beats_ilp(self, small):
        graph = small.graph()
        theta = shortest_path_tree(graph).sum_recreation(graph) * 2
        heuristic = lmg_min_storage(graph, theta)
        exact = ilp_min_storage_sum_recreation(graph, theta)
        assert exact.sum_recreation(graph) <= theta + 1e-6
        assert exact.total_storage_cost(graph) <= heuristic.total_storage_cost(
            graph
        ) + 1e-6

    def test_ilp_matches_mst_with_loose_budget(self, small):
        """With θ effectively infinite, min storage = the arborescence."""
        graph = small.graph()
        loose = shortest_path_tree(graph).sum_recreation(graph) * 100
        exact = ilp_min_storage_sum_recreation(graph, loose)
        mst = minimum_spanning_storage(graph)
        assert exact.total_storage_cost(graph) == pytest.approx(
            mst.total_storage_cost(graph)
        )


class TestSolveDispatcher:
    def test_problem_1_2_need_no_threshold(self, figure_7_1):
        solve(figure_7_1, 1)
        solve(figure_7_1, 2)

    @pytest.mark.parametrize("problem", [3, 4, 5, 6])
    def test_constrained_problems_need_threshold(self, figure_7_1, problem):
        with pytest.raises(ValueError):
            solve(figure_7_1, problem)

    def test_unknown_problem(self, figure_7_1):
        with pytest.raises(ValueError):
            solve(figure_7_1, 7, threshold=1)

    def test_problem6_via_dispatcher(self, figure_7_1):
        plan = solve(figure_7_1, 6, threshold=10400)
        assert plan.max_recreation(figure_7_1) <= 10400
