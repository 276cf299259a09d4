"""Property tests: LyreSplit invariants over random version trees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.invariants import checkout_bound_holds, storage_bound_holds
from repro.partition.lyresplit import lyresplit
from repro.partition.version_graph import Partitioning, VersionTree


@st.composite
def version_trees(draw):
    """Random version trees with consistent record-count annotations.

    Each node's record set size and parent-overlap obey
    0 < w(v, parent) <= min(R(v), R(parent)), which every real history
    satisfies.
    """
    num_versions = draw(st.integers(min_value=1, max_value=25))
    nodes: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    weight: dict[int, int] = {}
    order = list(range(1, num_versions + 1))
    for vid in order:
        size = draw(st.integers(min_value=1, max_value=60))
        nodes[vid] = size
        if vid == 1:
            parent[vid] = None
            weight[vid] = 0
        else:
            chosen = draw(st.integers(min_value=1, max_value=vid - 1))
            parent[vid] = chosen
            cap = min(size, nodes[chosen])
            weight[vid] = draw(st.integers(min_value=1, max_value=cap))
    return VersionTree(
        nodes=nodes, parent=parent, weight_to_parent=weight, order=order
    )


class TestLyreSplitInvariants:
    @given(tree=version_trees(), delta=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_partitioning_is_a_cover(self, tree, delta):
        result = lyresplit(tree, delta)
        result.partitioning.validate_cover(list(tree.nodes))

    @given(tree=version_trees(), delta=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_checkout_bound(self, tree, delta):
        """Theorem 5.2: C_avg < (1/δ)·|E|/|V| always holds on termination."""
        result = lyresplit(tree, delta)
        num_edges = sum(tree.nodes.values())
        assert checkout_bound_holds(result, num_edges, len(tree.nodes))

    @given(tree=version_trees(), delta=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_storage_bound(self, tree, delta):
        """Theorem 5.2: S ≤ (1+δ)^ℓ·|R|."""
        result = lyresplit(tree, delta)
        total_records = tree.estimated_component_stats(list(tree.nodes))[1]
        assert storage_bound_holds(result, total_records)

    @given(tree=version_trees())
    @settings(max_examples=50, deadline=None)
    def test_partitions_are_connected_subtrees(self, tree):
        """Each partition induces a connected subtree of the version
        tree — LyreSplit only ever cuts edges."""
        result = lyresplit(tree, 0.5)
        for group in result.partitioning.groups:
            members = set(group)
            roots_in_group = [
                v
                for v in group
                if tree.parent[v] is None or tree.parent[v] not in members
            ]
            assert len(roots_in_group) == 1

    @given(tree=version_trees())
    @settings(max_examples=50, deadline=None)
    def test_delta_monotonicity(self, tree):
        """More δ → at least as many partitions (superset property)."""
        previous = 0
        for delta in (0.2, 0.5, 0.9):
            count = lyresplit(tree, delta).partitioning.num_partitions
            assert count >= previous
            previous = count


class TestPartitioningCostProperties:
    @given(tree=version_trees())
    @settings(max_examples=50, deadline=None)
    def test_singleton_partitioning_minimizes_estimated_checkout(self, tree):
        singleton = Partitioning(
            [frozenset({v}) for v in tree.nodes]
        )
        single = Partitioning([frozenset(tree.nodes)])
        _s1, checkout_singleton = singleton.estimated_costs(tree)
        _s2, checkout_single = single.estimated_costs(tree)
        assert checkout_singleton <= checkout_single + 1e-9

    @given(tree=version_trees())
    @settings(max_examples=50, deadline=None)
    def test_single_partitioning_minimizes_estimated_storage(self, tree):
        singleton = Partitioning(
            [frozenset({v}) for v in tree.nodes]
        )
        single = Partitioning([frozenset(tree.nodes)])
        storage_singleton, _c1 = singleton.estimated_costs(tree)
        storage_single, _c2 = single.estimated_costs(tree)
        assert storage_single <= storage_singleton + 1e-9
