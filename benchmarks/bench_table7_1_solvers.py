"""Table 7.1 — the problem/solver matrix of the storage engine.

Runs every problem variant on the same synthetic store and prints, per
problem, the solver used, its objective, the constraint status, and its
running time — the operational form of the paper's summary table.

Paper shape to match: P1 minimizes storage, P2 minimizes recreation;
the constrained variants interpolate, always satisfying their bound.
"""

from __future__ import annotations

import pytest

from benchmarks.common import fmt, measure, print_table
from repro.storage.solvers import solve
from repro.storage.solvers.mst import minimum_spanning_storage
from repro.storage.solvers.spt import shortest_path_tree
from repro.storage.synthetic import SyntheticConfig, build_store


def test_table7_1_matrix(benchmark):
    store = build_store(
        SyntheticConfig(num_versions=40, branching_factor=0.25, seed=21),
        extra_pairs=15,
    )
    graph = store.graph()
    mst = minimum_spanning_storage(graph)
    spt = shortest_path_tree(graph)
    beta = mst.total_storage_cost(graph) * 1.5
    theta_sum = spt.sum_recreation(graph) * 2
    theta_max = spt.max_recreation(graph) * 2

    cases = [
        (1, None, "MST/arborescence", "min C"),
        (2, None, "shortest-path tree", "min all R_i"),
        (3, beta, "LMG", "min ΣR_i s.t. C<=β"),
        (4, beta, "MP (binary search)", "min max R_i s.t. C<=β"),
        (5, theta_sum, "LMG", "min C s.t. ΣR_i<=θ"),
        (6, theta_max, "MP", "min C s.t. max R_i<=θ"),
    ]
    rows = []
    plans = {}
    for problem, threshold, solver_name, objective in cases:
        # Solver runs are millisecond-scale: report the median of 3.
        m = measure(solve, graph, problem, threshold, repeats=3, warmup=1)
        plan, seconds = m.result, m.wall_median
        plans[problem] = plan
        rows.append(
            (
                f"P{problem}",
                solver_name,
                objective,
                fmt(plan.total_storage_cost(graph), 6),
                fmt(plan.sum_recreation(graph), 6),
                fmt(plan.max_recreation(graph), 6),
                fmt(seconds * 1000, 3) + " ms",
            )
        )
    print_table(
        "Table 7.1: problems, solvers, and outcomes",
        ["problem", "solver", "objective", "C", "ΣR", "maxR", "time"],
        rows,
    )
    benchmark.pedantic(solve, args=(graph, 1), rounds=3, iterations=1)

    # Shape assertions.
    assert plans[1].total_storage_cost(graph) <= plans[2].total_storage_cost(
        graph
    )
    assert plans[2].sum_recreation(graph) <= plans[1].sum_recreation(graph)
    assert plans[3].total_storage_cost(graph) <= beta + 1e-6
    assert plans[4].total_storage_cost(graph) <= beta + 1e-6
    assert plans[5].sum_recreation(graph) <= theta_sum + 1e-6
    assert plans[6].max_recreation(graph) <= theta_max + 1e-6
    # Constrained solutions sit between the extremes.
    for problem in (5, 6):
        assert (
            plans[1].total_storage_cost(graph)
            <= plans[problem].total_storage_cost(graph) + 1e-6
        )
