"""DAG-specific partitioning behaviour (Section 5.3.1)."""

import pytest

from repro.datasets.protein import protein_history
from repro.invariants import checkout_bound_holds, storage_bound_holds
from repro.partition.lyresplit import lyresplit, lyresplit_for_budget
from repro.partition.version_graph import graph_from_history


class TestProteinDag:
    """The 4-version merge DAG of Figures 4.2/5.5, checked end to end."""

    @pytest.fixture
    def graph(self):
        return graph_from_history(protein_history())

    def test_tree_reduction_matches_figure_5_5(self, graph):
        tree = graph.to_tree()
        # v4 keeps v3 (weight 4), conceptually duplicating r̂2, r̂4.
        assert tree.parent == {1: None, 2: 1, 3: 1, 4: 3}
        _v, records, edges = tree.estimated_component_stats([1, 2, 3, 4])
        assert records == 9  # |R| + |R̂| = 7 + 2
        assert edges == 16

    def test_split_on_dag_covers_all(self, graph):
        membership = {c.vid: c.rids for c in protein_history().commits}
        result = lyresplit(graph, 0.9)
        result.partitioning.validate_cover([1, 2, 3, 4])
        # Exact (post-processing) costs merge R̂ back with R.
        assert result.partitioning.storage_cost(membership) <= 16

    def test_budget_search_on_dag(self, graph):
        membership = {c.vid: c.rids for c in protein_history().commits}
        result = lyresplit_for_budget(graph, 10, membership=membership)
        assert result.partitioning.storage_cost(membership) <= 10


class TestCurDag:
    def test_partitions_are_valid_and_bounded(self, cur_tiny):
        graph = graph_from_history(cur_tiny)
        membership = {c.vid: c.rids for c in cur_tiny.commits}
        for delta in (0.3, 0.6):
            result = lyresplit(graph, delta)
            result.partitioning.validate_cover(list(membership))
            assert checkout_bound_holds(
                result, graph.num_bipartite_edges, graph.num_versions
            )

    def test_theorem_5_3_storage_bound(self, cur_tiny):
        """((|R|+|R̂|)/|R|)·(1+δ)^ℓ approximation for DAGs."""
        graph = graph_from_history(cur_tiny)
        delta = 0.5
        result = lyresplit(graph, delta)
        total_records = cur_tiny.num_records
        duplicated = cur_tiny.duplicated_records_as_tree()
        assert storage_bound_holds(result, total_records + duplicated)

    def test_exact_storage_not_above_estimate(self, cur_tiny):
        """Post-processing (merging R̂ with R) only shrinks real costs."""
        graph = graph_from_history(cur_tiny)
        membership = {c.vid: c.rids for c in cur_tiny.commits}
        result = lyresplit(graph, 0.5)
        assert (
            result.partitioning.storage_cost(membership)
            <= result.estimated_storage
        )
