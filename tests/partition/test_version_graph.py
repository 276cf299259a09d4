"""Tests for the version graph, tree reduction, and cost model."""

import pytest

from repro.datasets.protein import protein_history
from repro.partition.version_graph import Partitioning, graph_from_history


@pytest.fixture
def protein_graph():
    return graph_from_history(protein_history())


class TestGraphConstruction:
    def test_node_counts(self, protein_graph):
        assert protein_graph.nodes == {1: 3, 2: 3, 3: 4, 4: 6}

    def test_edge_weights_match_figure(self, protein_graph):
        """Weights from Figure 4.2's version graph."""
        assert protein_graph.weights[(1, 2)] == 2
        assert protein_graph.weights[(1, 3)] == 1
        assert protein_graph.weights[(2, 4)] == 3
        assert protein_graph.weights[(3, 4)] == 4

    def test_bipartite_edge_count(self, protein_graph):
        assert protein_graph.num_bipartite_edges == 16

    def test_is_tree_detects_merge(self, protein_graph):
        assert not protein_graph.is_tree()


class TestTreeReduction:
    def test_merge_keeps_max_weight_parent(self, protein_graph):
        """Section 5.3.1's example: v4 keeps parent v3 (w=4 > 3)."""
        tree = protein_graph.to_tree()
        assert tree.parent[4] == 3
        assert tree.weight_to_parent[4] == 4

    def test_root_has_no_parent(self, protein_graph):
        tree = protein_graph.to_tree()
        assert tree.parent[1] is None

    def test_estimated_stats_whole_tree(self, protein_graph):
        """|R| + |R̂| = 9 for the Figure 5.5 example (7 real + 2 dups)."""
        tree = protein_graph.to_tree()
        num_versions, num_records, num_edges = (
            tree.estimated_component_stats([1, 2, 3, 4])
        )
        assert num_versions == 4
        assert num_records == 9
        assert num_edges == 16

    def test_estimated_stats_subtree(self, protein_graph):
        tree = protein_graph.to_tree()
        _v, records, edges = tree.estimated_component_stats([3, 4])
        assert records == 4 + 6 - 4
        assert edges == 10


class TestPartitioningCosts:
    def test_single_partition_costs(self, protein_graph):
        history = protein_history()
        membership = {c.vid: c.rids for c in history.commits}
        p = Partitioning([frozenset({1, 2, 3, 4})])
        assert p.storage_cost(membership) == 7
        assert p.checkout_cost(membership) == 7.0

    def test_figure_5_1_partitioning(self):
        """Figure 5.1(b): P1={v1,v2}, P2={v3,v4} duplicates r2,r3,r4."""
        history = protein_history()
        membership = {c.vid: c.rids for c in history.commits}
        p = Partitioning([frozenset({1, 2}), frozenset({3, 4})])
        records = p.partition_records(membership)
        assert records[0] == frozenset({1, 2, 3, 4})
        assert records[1] == frozenset({2, 3, 4, 5, 6, 7})
        assert p.storage_cost(membership) == 10
        assert p.checkout_cost(membership) == (2 * 4 + 2 * 6) / 4

    def test_per_version_partitioning_minimizes_checkout(self):
        """Observation 5.1: one version per partition gives C = |E|/|V|."""
        history = protein_history()
        membership = {c.vid: c.rids for c in history.commits}
        p = Partitioning([frozenset({v}) for v in (1, 2, 3, 4)])
        assert p.checkout_cost(membership) == 16 / 4
        assert p.storage_cost(membership) == 16

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partitioning([frozenset({1, 2}), frozenset({2, 3})])

    def test_validate_cover(self):
        p = Partitioning([frozenset({1, 2})])
        with pytest.raises(ValueError):
            p.validate_cover([1, 2, 3])

    def test_weighted_checkout(self):
        history = protein_history()
        membership = {c.vid: c.rids for c in history.commits}
        p = Partitioning([frozenset({1, 2, 3, 4})])
        uniform = p.weighted_checkout_cost(membership, {})
        assert uniform == p.checkout_cost(membership)
        skewed = p.weighted_checkout_cost(membership, {4: 100.0})
        assert skewed == pytest.approx(7.0)  # single partition: all equal

    def test_assignment(self):
        p = Partitioning([frozenset({1}), frozenset({2, 3})])
        assert p.assignment() == {1: 0, 2: 1, 3: 1}
        assert p.partition_of(3) == 1
        with pytest.raises(KeyError):
            p.partition_of(9)


class TestEstimatedVsExactCosts:
    def test_tree_history_estimates_are_exact(self, sci_tiny):
        """For merge-free histories the count-based formula equals the
        real record-set union."""
        graph = graph_from_history(sci_tiny)
        tree = graph.to_tree()
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        p = Partitioning([frozenset(membership)])
        estimated_storage, estimated_checkout = p.estimated_costs(tree)
        assert estimated_storage == p.storage_cost(membership)
        assert estimated_checkout == pytest.approx(
            p.checkout_cost(membership)
        )

    def test_dag_estimates_overcount_by_rhat(self, cur_tiny):
        """For DAGs the estimate exceeds reality by exactly |R̂| when all
        versions share one partition."""
        graph = graph_from_history(cur_tiny)
        tree = graph.to_tree()
        membership = {c.vid: c.rids for c in cur_tiny.commits}
        p = Partitioning([frozenset(membership)])
        estimated_storage, _ = p.estimated_costs(tree)
        exact = p.storage_cost(membership)
        assert estimated_storage == exact + cur_tiny.duplicated_records_as_tree()
