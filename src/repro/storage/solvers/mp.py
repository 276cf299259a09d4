"""MP — the Modified Prim's heuristic (Problems 4 and 6).

Grow the storage tree from the dummy root, always attaching the cheapest
(by Δ) *feasible* edge, where edge (u, v) is feasible when the recreation
cost through it stays within the budget: r(u) + Φ_uv ≤ θ. Minimizes
storage under a max-recreation constraint (Problem 6); Problem 4 binary
searches θ for the tightest value whose MP tree fits the storage budget.
"""

from __future__ import annotations

import heapq

from repro.storage.graph import ROOT, StorageGraph, StoragePlan
from repro.storage.solvers.spt import shortest_path_distances


def mp_min_storage(
    graph: StorageGraph, max_recreation_budget: float
) -> StoragePlan:
    """Problem 6: minimize C subject to max R_i ≤ θ.

    On a graph whose delta edges run parent -> child only, a history
    that shrinks is stored all whole: each smaller version's root edge
    (Δ = |v|) is popped before its parent is attached, so its delta edge
    is never tried (30 versions of 100 down to 71 rows, each a one-row
    delta on the last: 2,565 of 2,565 stored, against 100 on the same
    graph made symmetric). Build the graph symmetric when a delta reads
    either way.

    Raises ValueError when θ is below some version's cheapest possible
    recreation cost (the instance is infeasible).
    """
    adjacency: dict[int, list[tuple[int, float, float]]] = {
        v: [] for v in range(0, graph.num_versions + 1)
    }
    for (source, target), (delta, phi) in graph.edges.items():
        adjacency[source].append((target, delta, phi))
        if graph.symmetric and source != ROOT:
            adjacency[target].append((source, delta, phi))

    parent: dict[int, int] = {}
    recreation: dict[int, float] = {ROOT: 0.0}
    attached = {ROOT}
    heap: list[tuple[float, float, int, int]] = []

    def push_edges(vertex: int) -> None:
        base = recreation[vertex]
        for target, delta, phi in adjacency[vertex]:
            if target in attached or target == ROOT:
                continue
            if base + phi <= max_recreation_budget:
                heapq.heappush(heap, (delta, base + phi, target, vertex))

    push_edges(ROOT)
    while heap and len(attached) <= graph.num_versions:
        delta, new_recreation, vertex, source = heapq.heappop(heap)
        if vertex in attached:
            continue
        # The source's recreation may have been fixed when this entry was
        # pushed; it never changes after attachment, so the entry is valid.
        attached.add(vertex)
        parent[vertex] = source
        recreation[vertex] = new_recreation
        push_edges(vertex)

    missing = set(graph.vertices()) - set(parent)
    if missing:
        # The storage-greedy growth can strand vertices whose only
        # feasible route needs an ancestor to take a lower-recreation
        # (more expensive) edge. Graft those vertices' shortest paths:
        # re-parenting a node onto its SPT parent only ever lowers
        # recreation costs, so it cannot break attached vertices.
        _graft_shortest_paths(
            graph, parent, missing, max_recreation_budget
        )
    return StoragePlan(parent)


def _graft_shortest_paths(
    graph: StorageGraph,
    parent: dict[int, int],
    missing: set[int],
    budget: float,
) -> None:
    from repro.storage.solvers.spt import shortest_path_tree

    spt = shortest_path_tree(graph)
    distances = spt.recreation_costs(graph)
    infeasible = [v for v in missing if distances[v] > budget]
    if infeasible:
        raise ValueError(
            f"recreation budget {budget} is infeasible for versions "
            f"{sorted(infeasible)[:5]}"
        )
    for vertex in sorted(missing, key=distances.__getitem__):
        # Re-parent the whole shortest path root -> vertex onto SPT
        # parents (top-down). Each node's recreation becomes its SPT
        # distance — the minimum possible — so no constraint can break.
        path = [vertex]
        current = vertex
        while spt.parent[current] != ROOT:
            current = spt.parent[current]
            path.append(current)
        for node in reversed(path):
            parent[node] = spt.parent[node]


def mp_min_max_recreation(
    graph: StorageGraph,
    storage_budget: float,
    iterations: int = 30,
) -> StoragePlan:
    """Problem 4: minimize max R_i subject to C ≤ β, via binary search
    over θ with MP as the feasibility oracle."""
    distances = shortest_path_distances(graph)
    low = max(distances.values())  # no plan can beat the SP distance
    high = sum(
        graph.recreation_weight(ROOT, v) for v in graph.vertices()
        if (ROOT, v) in graph.edges
    )
    high = max(high, low)

    best: StoragePlan | None = None
    # θ = low is always feasible for MP (the SPT respects it); check the
    # storage first.
    plan = mp_min_storage(graph, low)
    if plan.total_storage_cost(graph) <= storage_budget:
        return plan
    for _ in range(iterations):
        mid = (low + high) / 2
        try:
            plan = mp_min_storage(graph, mid)
        except ValueError:
            low = mid
            continue
        if plan.total_storage_cost(graph) <= storage_budget:
            best = plan
            high = mid
        else:
            low = mid
    if best is None:
        # Budget unreachable: fall back to the min-storage tree.
        from repro.storage.solvers.mst import minimum_spanning_storage

        best = minimum_spanning_storage(graph)
    return best
