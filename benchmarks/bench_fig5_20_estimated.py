"""Figure 5.20 — estimated storage vs estimated checkout cost (SCI).

The cost-model-only companion to Figure 5.8: the same knob sweeps, but
reporting the *estimated* record-count costs the optimizers themselves
minimize, with no physical store in the loop. Paper shape: same
dominance ordering as the wall-clock figure, confirming the cost model
drives the right decisions. Asserted, as for Figure 5.8: across
LyreSplit's δ sweep, estimated storage never falls and estimated C_avg
never rises.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, membership_of, print_table
from repro.partition.baselines import agglo_partition, kmeans_partition
from repro.partition.lyresplit import lyresplit
from repro.partition.version_graph import graph_from_history

DELTAS = [0.15, 0.3, 0.5, 0.7, 0.9]

#: The L datasets get fewer baseline points and a tighter cutoff — the
#: bipartite-graph baselines are the scaling bottleneck (that asymmetry
#: is Figure 5.10's result), and the estimated-cost curves only need a
#: few points to show each algorithm's frontier.
BASELINE_CUTOFF_SECONDS = 15.0


def run_estimated(names: list[str], title_prefix: str) -> None:
    for name in names:
        history = dataset(name)
        membership = membership_of(history)
        graph = graph_from_history(history)
        total = len(frozenset().union(*membership.values()))
        is_large = name.endswith("_L")
        capacity_factors = (0.5, 1.0) if is_large else (0.3, 0.5, 0.8, 1.0)
        ks = (4, 8) if is_large else (2, 4, 8, 16)
        rows = []
        storages, checkouts = [], []
        for delta in DELTAS:
            partitioning = lyresplit(graph, delta).partitioning
            storages.append(partitioning.storage_cost(membership))
            checkouts.append(partitioning.checkout_cost(membership))
            rows.append(
                (
                    "LyreSplit",
                    f"delta={delta}",
                    storages[-1],
                    fmt(checkouts[-1], 5),
                )
            )
        for factor in capacity_factors:
            partitioning = agglo_partition(
                membership,
                capacity=factor * total,
                time_budget=BASELINE_CUTOFF_SECONDS,
            )
            rows.append(
                (
                    "Agglo",
                    f"BC={factor}|R|",
                    partitioning.storage_cost(membership),
                    fmt(partitioning.checkout_cost(membership), 5),
                )
            )
        for k in ks:
            partitioning = kmeans_partition(
                membership, k=k, time_budget=BASELINE_CUTOFF_SECONDS
            )
            rows.append(
                (
                    "Kmeans",
                    f"K={k}",
                    partitioning.storage_cost(membership),
                    fmt(partitioning.checkout_cost(membership), 5),
                )
            )
        print_table(
            f"{title_prefix} [{name}]",
            ["algorithm", "knob", "storage (records)", "C_avg (records)"],
            rows,
        )
        assert storages == sorted(storages), (name, storages)
        assert checkouts == sorted(checkouts, reverse=True), (name, checkouts)


def test_fig5_20_estimated_sci(benchmark):
    run_estimated(
        ["SCI_S", "SCI_M", "SCI_L"],
        "Figure 5.20: estimated storage vs estimated checkout (SCI)",
    )
    graph = graph_from_history(dataset("SCI_M"))
    benchmark.pedantic(lyresplit, args=(graph, 0.5), rounds=3, iterations=1)
