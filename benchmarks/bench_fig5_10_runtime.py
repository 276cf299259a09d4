"""Figure 5.10 — partitioner running time on SCI datasets.

End-to-end binary-search time (solving Problem 5.1 at γ = 2|R|) and
per-iteration time for LyreSplit, Agglo and Kmeans.

Paper shape to match: LyreSplit is orders of magnitude faster than both
baselines — it runs on the version graph, they run on the bipartite
graph — and the gap widens with dataset size.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, membership_of, print_table, timed
from repro.partition.baselines import (
    agglo_partition,
    binary_search_capacity,
    kmeans_partition,
)
from repro.partition.lyresplit import lyresplit, lyresplit_for_budget
from repro.partition.version_graph import graph_from_history

DATASETS = ["SCI_S", "SCI_M", "SCI_L"]
BASELINE_TIME_BUDGET = 20.0  # the paper's 10-hour cap, scaled


def run_comparison(names: list[str], title: str) -> list[tuple]:
    rows = []
    speedups = {}
    for name in names:
        history = dataset(name)
        membership = membership_of(history)
        graph = graph_from_history(history)
        total = len(frozenset().union(*membership.values()))
        budget = 2.0 * total

        _p, lyre_total = timed(
            lyresplit_for_budget, graph, budget, membership=membership
        )
        _p, lyre_iteration = timed(lyresplit, graph, 0.5)

        _p, agglo_total = timed(
            binary_search_capacity,
            membership,
            budget,
            "agglo",
            time_budget=BASELINE_TIME_BUDGET,
        )
        _p, agglo_iteration = timed(
            agglo_partition, membership, capacity=budget,
            time_budget=BASELINE_TIME_BUDGET,
        )

        _p, kmeans_total = timed(
            binary_search_capacity,
            membership,
            budget,
            "kmeans",
            time_budget=BASELINE_TIME_BUDGET,
        )
        _p, kmeans_iteration = timed(
            kmeans_partition, membership, k=8,
            time_budget=BASELINE_TIME_BUDGET,
        )

        rows.append(
            (
                name,
                fmt(lyre_total, 3),
                fmt(agglo_total, 3),
                fmt(kmeans_total, 3),
                fmt(lyre_iteration, 3),
                fmt(agglo_iteration, 3),
                fmt(kmeans_iteration, 3),
            )
        )
        speedups[name] = (
            agglo_total / max(lyre_total, 1e-9),
            kmeans_total / max(lyre_total, 1e-9),
        )
    print_table(
        title,
        [
            "dataset",
            "LyreSplit total s",
            "Agglo total s",
            "Kmeans total s",
            "LyreSplit iter s",
            "Agglo iter s",
            "Kmeans iter s",
        ],
        rows,
    )
    print(
        "speedups (Agglo/LyreSplit, Kmeans/LyreSplit):",
        {k: (fmt(a, 3), fmt(b, 3)) for k, (a, b) in speedups.items()},
    )
    return rows


def test_fig5_10_running_time_sci(benchmark):
    run_comparison(DATASETS, "Figure 5.10: partitioner running time (SCI)")
    graph = graph_from_history(dataset("SCI_M"))
    benchmark.pedantic(lyresplit, args=(graph, 0.5), rounds=3, iterations=1)

    # Shape: LyreSplit beats both baselines by a wide margin on the
    # largest dataset.
    history = dataset("SCI_L")
    membership = membership_of(history)
    graph_l = graph_from_history(history)
    total = len(frozenset().union(*membership.values()))
    _p, lyre = timed(
        lyresplit_for_budget, graph_l, 2.0 * total, membership=membership
    )
    _p, agglo = timed(
        agglo_partition, membership, capacity=2.0 * total,
        time_budget=BASELINE_TIME_BUDGET,
    )
    assert agglo > 10 * lyre
