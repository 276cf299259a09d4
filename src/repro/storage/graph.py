"""The expanded storage graph and storage plans (Section 7.2.2).

From the matrices we build a directed graph G over vertices {0, 1..n}
where 0 is the dummy root: edge (0, v) carries the materialization cost
of v, edge (u, v) the delta cost from u to v. By Lemma 7.1 every optimal
solution is a spanning tree rooted at 0 — a :class:`StoragePlan` is such
a tree, stored as parent pointers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.storage.matrices import CostMatrices

ROOT = 0
"""The dummy vertex V0."""


@dataclass
class StorageGraph:
    """Directed weighted graph over {0} ∪ versions.

    Attributes:
        num_versions: n.
        edges: (source, target) -> (Δ, Φ). Root edges use source 0.
        symmetric: Whether delta edges exist in both directions with the
            same weight (the undirected scenario): a delta edge stored
            one way is read either way.
    """

    num_versions: int
    edges: dict[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict
    )
    symmetric: bool = False

    @classmethod
    def from_matrices(cls, matrices: CostMatrices) -> "StorageGraph":
        matrices.validate()
        graph = cls(
            num_versions=matrices.num_versions, symmetric=matrices.symmetric
        )
        for source, target, delta, phi in matrices.edges():
            graph.edges[(source, target)] = (delta, phi)
        return graph

    def vertices(self) -> range:
        return range(1, self.num_versions + 1)

    def out_edges(self, vertex: int) -> Iterator[tuple[int, float, float]]:
        for (source, target), (delta, phi) in self.edges.items():
            if source == vertex:
                yield target, delta, phi

    def in_edges(self, vertex: int) -> Iterator[tuple[int, float, float]]:
        for (source, target), (delta, phi) in self.edges.items():
            if target == vertex:
                yield source, delta, phi

    def edge_key(self, source: int, target: int) -> tuple[int, int] | None:
        """The key edge (source, target) is stored under: itself, or on a
        symmetric graph the same delta edge stored the other way; None
        when the graph has neither. A root edge is only ever itself."""
        if (source, target) in self.edges:
            return source, target
        if self.symmetric and ROOT not in (source, target):
            if (target, source) in self.edges:
                return target, source
        return None

    def storage_weight(self, source: int, target: int) -> float:
        return self._weights(source, target)[0]

    def recreation_weight(self, source: int, target: int) -> float:
        return self._weights(source, target)[1]

    def _weights(self, source: int, target: int) -> tuple[float, float]:
        key = self.edge_key(source, target)
        if key is None:
            raise KeyError((source, target))
        return self.edges[key]

    def adjacency(self) -> dict[int, list[tuple[int, float, float]]]:
        """source -> [(target, Δ, Φ), ...] for fast solver loops."""
        result: dict[int, list[tuple[int, float, float]]] = {
            v: [] for v in range(0, self.num_versions + 1)
        }
        for (source, target), (delta, phi) in self.edges.items():
            result[source].append((target, delta, phi))
        return result


@dataclass
class StoragePlan:
    """A spanning tree rooted at the dummy vertex, as parent pointers.

    ``parent[v] == 0`` means version v is materialized; otherwise v is
    stored as a delta from ``parent[v]``.
    """

    parent: dict[int, int]

    def materialized(self) -> list[int]:
        return sorted(v for v, p in self.parent.items() if p == ROOT)

    def validate(self, graph: StorageGraph) -> None:
        """Raise unless this is a spanning tree of ``graph`` rooted at 0."""
        versions = set(graph.vertices())
        if set(self.parent) != versions:
            missing = versions - set(self.parent)
            raise ValueError(f"plan misses versions {sorted(missing)[:5]}")
        for vertex, parent in self.parent.items():
            if graph.edge_key(parent, vertex) is None:
                raise ValueError(
                    f"plan uses unrevealed edge ({parent} -> {vertex})"
                )
        # Acyclicity / reachability: walk each vertex to the root.
        for vertex in versions:
            seen = {vertex}
            current = vertex
            while current != ROOT:
                current = self.parent[current]
                if current in seen:
                    raise ValueError(f"cycle in plan at vertex {current}")
                seen.add(current)

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------
    def total_storage_cost(self, graph: StorageGraph) -> float:
        """C = Σ Δ over plan edges."""
        return sum(
            graph.storage_weight(parent, vertex)
            for vertex, parent in self.parent.items()
        )

    def recreation_costs(self, graph: StorageGraph) -> dict[int, float]:
        """R_i for every version, by memoized path walks to the root."""
        memo: dict[int, float] = {ROOT: 0.0}

        def cost_of(vertex: int) -> float:
            if vertex in memo:
                return memo[vertex]
            path = []
            current = vertex
            while current not in memo:
                path.append(current)
                current = self.parent[current]
            base = memo[current]
            for node in reversed(path):
                base = memo[self.parent[node]] + graph.recreation_weight(
                    self.parent[node], node
                )
                memo[node] = base
            return memo[vertex]

        return {v: cost_of(v) for v in graph.vertices()}

    def sum_recreation(self, graph: StorageGraph) -> float:
        return sum(self.recreation_costs(graph).values())

    def max_recreation(self, graph: StorageGraph) -> float:
        costs = self.recreation_costs(graph)
        return max(costs.values()) if costs else 0.0

    def depth_histogram(self) -> dict[int, int]:
        """Distribution of delta-chain lengths (0 = materialized)."""
        histogram: dict[int, int] = {}
        for vertex in self.parent:
            depth = 0
            current = vertex
            while self.parent[current] != ROOT:
                current = self.parent[current]
                depth += 1
            histogram[depth] = histogram.get(depth, 0) + 1
        return histogram
