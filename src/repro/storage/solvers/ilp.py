"""Exact ILP solutions via scipy's MILP solver (Section 7.2.3).

The formulation is Equation 7.1: binary x_uv per revealed edge, a
continuous recreation potential r_v per version, in-degree-one
constraints, and big-M linking constraints

    Φ_uv + r_u − r_v ≤ (1 − x_uv)·M

which double as cycle eliminators (any directed cycle of chosen edges
with positive Φ is infeasible). Intended for small instances and as the
optimality reference the heuristics are judged against in tests.
"""

from __future__ import annotations

from repro.storage.graph import ROOT, StorageGraph, StoragePlan

_EPSILON = 1e-6


def _solve(
    graph: StorageGraph,
    max_recreation: float | None,
    sum_recreation: float | None,
) -> StoragePlan:
    import numpy as np  # scipy is paid for by the exact solve alone
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges = sorted(graph.edges)
    num_edges = len(edges)
    versions = list(graph.vertices())
    num_versions = len(versions)
    version_index = {v: i for i, v in enumerate(versions)}

    # Variables: x_e (binary) for each edge, then r_v (continuous).
    num_vars = num_edges + num_versions
    cost = np.zeros(num_vars)
    for e, (source, target) in enumerate(edges):
        cost[e] = graph.edges[(source, target)][0]

    constraints: list = []

    # In-degree exactly one per version.
    in_degree = np.zeros((num_versions, num_vars))
    for e, (_source, target) in enumerate(edges):
        in_degree[version_index[target], e] = 1.0
    constraints.append(LinearConstraint(in_degree, lb=1.0, ub=1.0))

    # Recreation bound used to size the big-M.
    if max_recreation is not None:
        r_cap = max_recreation
    elif sum_recreation is not None:
        r_cap = sum_recreation
    else:
        raise ValueError("one of the recreation bounds is required")
    big_m = 2.0 * r_cap + max(
        (phi for (_d, phi) in graph.edges.values()), default=1.0
    )

    # Linking: Φ_uv + r_u − r_v ≤ (1 − x_uv)·M   (r_0 ≡ 0).
    linking = np.zeros((num_edges, num_vars))
    upper = np.zeros(num_edges)
    for e, (source, target) in enumerate(edges):
        phi = max(graph.edges[(source, target)][1], _EPSILON)
        linking[e, e] = big_m
        if source != ROOT:
            linking[e, num_edges + version_index[source]] = 1.0
        linking[e, num_edges + version_index[target]] = -1.0
        upper[e] = big_m - phi
    constraints.append(
        LinearConstraint(linking, lb=-np.inf, ub=upper)
    )

    if sum_recreation is not None:
        row = np.zeros((1, num_vars))
        row[0, num_edges:] = 1.0
        constraints.append(
            LinearConstraint(row, lb=-np.inf, ub=sum_recreation)
        )

    lower = np.zeros(num_vars)
    upper_bounds = np.ones(num_vars)
    upper_bounds[num_edges:] = r_cap if max_recreation is not None else np.inf
    bounds = Bounds(lb=lower, ub=upper_bounds)
    integrality = np.zeros(num_vars)
    integrality[:num_edges] = 1.0

    result = milp(
        c=cost,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
    )
    if not result.success:
        raise ValueError(
            f"ILP infeasible or failed: {result.message}"
        )
    chosen = result.x[:num_edges] > 0.5
    parent: dict[int, int] = {}
    for e, (source, target) in enumerate(edges):
        if chosen[e]:
            parent[target] = source
    plan = StoragePlan(parent)
    plan.validate(graph)
    return plan


def ilp_min_storage_max_recreation(
    graph: StorageGraph, max_recreation_budget: float
) -> StoragePlan:
    """Problem 6 exactly: min C subject to max R_i ≤ θ."""
    return _solve(graph, max_recreation=max_recreation_budget, sum_recreation=None)


def ilp_min_storage_sum_recreation(
    graph: StorageGraph, sum_recreation_budget: float
) -> StoragePlan:
    """Problem 5 exactly: min C subject to Σ R_i ≤ θ."""
    return _solve(graph, max_recreation=None, sum_recreation=sum_recreation_budget)
