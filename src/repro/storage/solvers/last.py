"""LAST — balancing the MST against the shortest-path tree.

Khuller, Raghavachari and Young's LAST algorithm, applicable in the
undirected Φ = Δ scenario (Table 7.1, Problems 4 and 6): walk the MST in
DFS order keeping a running root distance; whenever a vertex's distance
exceeds α times its shortest-path distance, graft its shortest path into
the tree. The result satisfies

    R_v ≤ α · d_SP(v)            for every version v,
    C   ≤ (1 + 2/(α-1)) · C_MST.
"""

from __future__ import annotations

from repro.storage.graph import ROOT, StorageGraph, StoragePlan
from repro.storage.solvers.mst import minimum_spanning_storage
from repro.storage.solvers.spt import shortest_path_tree


def last_tree(graph: StorageGraph, alpha: float = 2.0) -> StoragePlan:
    """Build the LAST tree for balance parameter α > 1."""
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if not graph.symmetric:
        raise ValueError("LAST applies to the undirected (Φ = Δ) scenario")

    mst = minimum_spanning_storage(graph)
    spt = shortest_path_tree(graph)
    sp_distance = spt.recreation_costs(graph)
    sp_parent = dict(spt.parent)

    # Child lists of the MST for the DFS.
    children: dict[int, list[int]] = {ROOT: []}
    for vertex in mst.parent:
        children.setdefault(vertex, [])
    for vertex, parent in mst.parent.items():
        children.setdefault(parent, []).append(vertex)

    distance: dict[int, float] = {ROOT: 0.0}
    parent: dict[int, int] = dict(mst.parent)

    def relax(u: int, v: int) -> None:
        weight = graph.recreation_weight(u, v)
        if distance.get(u, float("inf")) + weight < distance.get(
            v, float("inf")
        ):
            distance[v] = distance[u] + weight
            if v != ROOT:
                parent[v] = u

    def graft_shortest_path(v: int) -> None:
        """Relax edges along v's shortest path from the root."""
        path = [v]
        current = v
        while current != ROOT:
            current = sp_parent.get(current, ROOT)
            path.append(current)
        for u, w in zip(path[::-1], path[::-1][1:]):
            relax(u, w)

    # Iterative DFS over the MST.
    stack: list[tuple[int, int | None]] = [(ROOT, None)]
    visited: set[int] = set()
    while stack:
        vertex, via = stack.pop()
        if vertex in visited:
            continue
        visited.add(vertex)
        if via is not None:
            relax(via, vertex)
        if vertex != ROOT and distance.get(vertex, float("inf")) > (
            alpha * sp_distance[vertex]
        ):
            graft_shortest_path(vertex)
        for child in sorted(children.get(vertex, ()), reverse=True):
            stack.append((child, vertex))

    return StoragePlan(parent)
