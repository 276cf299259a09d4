"""Tests for LyreSplit: guarantees, edge rules, and the budget search."""

import pytest

from repro.invariants import checkout_bound_holds, storage_bound_holds
from repro.partition.lyresplit import lyresplit, lyresplit_for_budget
from repro.partition.version_graph import (
    VersionTree,
    graph_from_history,
)


def figure_5_4_tree() -> VersionTree:
    """The 7-version tree of Figure 5.4: v1(30) with children v2(12) and
    v3(10); v2's children v4(8), v5(10); v3's children v6(12), v7(8)."""
    return VersionTree(
        nodes={1: 30, 2: 12, 3: 10, 4: 8, 5: 10, 6: 12, 7: 8},
        parent={1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3},
        weight_to_parent={1: 0, 2: 7, 3: 10, 4: 6, 5: 8, 6: 6, 7: 8},
        order=[1, 2, 3, 4, 5, 6, 7],
    )


class TestTerminationCondition:
    def test_delta_one_splits_everything_splittable(self):
        tree = figure_5_4_tree()
        result = lyresplit(tree, 1.0)
        # With delta=1 every edge is a candidate; the algorithm keeps
        # splitting until |R||V| < |E| (impossible beyond singletons) —
        # all partitions are singletons.
        assert result.partitioning.num_partitions == 7

    def test_tiny_delta_keeps_one_partition(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        result = lyresplit(graph, 0.01)
        if result.partitioning.num_partitions == 1:
            assert result.estimated_storage == len(
                frozenset().union(*membership.values())
            )

    def test_invalid_delta(self):
        tree = figure_5_4_tree()
        with pytest.raises(ValueError):
            lyresplit(tree, 0.0)
        with pytest.raises(ValueError):
            lyresplit(tree, 1.5)


class TestGuarantees:
    @pytest.mark.parametrize("delta", [0.2, 0.4, 0.6, 0.8])
    def test_checkout_bound_sci(self, sci_tiny, delta):
        """Theorem 5.2: C_avg < (1/δ)·|E|/|V| after termination."""
        graph = graph_from_history(sci_tiny)
        result = lyresplit(graph, delta)
        assert checkout_bound_holds(
            result, graph.num_bipartite_edges, graph.num_versions
        )

    @pytest.mark.parametrize("delta", [0.3, 0.6])
    def test_storage_bound_sci(self, sci_tiny, delta):
        """Theorem 5.2: S ≤ (1+δ)^ℓ·|R| for the tree case."""
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        total_records = len(frozenset().union(*membership.values()))
        result = lyresplit(graph, delta)
        assert storage_bound_holds(result, total_records)

    @pytest.mark.parametrize("delta", [0.3, 0.6])
    def test_checkout_bound_cur_dag(self, cur_tiny, delta):
        graph = graph_from_history(cur_tiny)
        result = lyresplit(graph, delta)
        assert checkout_bound_holds(
            result, graph.num_bipartite_edges, graph.num_versions
        )

    def test_partitioning_covers_all_versions(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        result = lyresplit(graph, 0.5)
        result.partitioning.validate_cover(
            [c.vid for c in sci_tiny.commits]
        )

    def test_more_delta_more_partitions(self, sci_tiny):
        """Superset property: larger δ cuts strictly more edges."""
        graph = graph_from_history(sci_tiny)
        counts = [
            lyresplit(graph, delta).partitioning.num_partitions
            for delta in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert counts == sorted(counts)


class TestEdgeRules:
    def test_min_weight_rule_runs(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        result = lyresplit(graph, 0.5, edge_rule="min_weight")
        result.partitioning.validate_cover(
            [c.vid for c in sci_tiny.commits]
        )

    def test_rules_both_satisfy_bound(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        bound = 2.0 * graph.num_bipartite_edges / graph.num_versions
        for rule in ("balanced", "min_weight"):
            result = lyresplit(graph, 0.5, edge_rule=rule)
            assert result.estimated_checkout < bound + 1e-9


class TestBudgetSearch:
    @pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
    def test_storage_within_budget(self, sci_tiny, factor):
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        total = len(frozenset().union(*membership.values()))
        result = lyresplit_for_budget(
            graph, factor * total, membership=membership
        )
        assert result.partitioning.storage_cost(membership) <= factor * total

    def test_bigger_budget_never_worse(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        total = len(frozenset().union(*membership.values()))
        checkout_small = lyresplit_for_budget(
            graph, 1.5 * total, membership=membership
        ).partitioning.checkout_cost(membership)
        checkout_large = lyresplit_for_budget(
            graph, 3.0 * total, membership=membership
        ).partitioning.checkout_cost(membership)
        assert checkout_large <= checkout_small + 1e-9

    def test_budget_below_minimum_returns_single_partition(self, sci_tiny):
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        total = len(frozenset().union(*membership.values()))
        result = lyresplit_for_budget(
            graph, total * 0.5, membership=membership
        )
        assert result.partitioning.num_partitions == 1

    def test_partitioning_beats_no_partitioning(self, sci_tiny):
        """The Figure 5.14 effect: 2x storage, several-fold checkout cut."""
        graph = graph_from_history(sci_tiny)
        membership = {c.vid: c.rids for c in sci_tiny.commits}
        total = len(frozenset().union(*membership.values()))
        result = lyresplit_for_budget(
            graph, 2 * total, membership=membership
        )
        partitioned = result.partitioning.checkout_cost(membership)
        assert partitioned < total / 2  # at least 2x better than C = |R|
