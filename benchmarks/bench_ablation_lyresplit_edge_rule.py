"""Ablation — LyreSplit's split-edge picking rule.

The guarantee of Theorem 5.2 holds for *any* light-edge choice; the
paper picks the version-balancing edge (tie-broken on records) over the
min-weight edge. This ablation quantifies that choice: balanced cuts
give fewer recursion levels (hence a tighter (1+δ)^ℓ storage factor) and
usually a better realized storage/checkout point.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, membership_of, print_table
from repro.partition.lyresplit import lyresplit
from repro.partition.version_graph import graph_from_history

DATASETS = ["SCI_S", "SCI_M", "CUR_M"]
DELTAS = [0.3, 0.5, 0.7]


def test_ablation_edge_rule(benchmark):
    rows = []
    depth_totals = {"balanced": 0, "min_weight": 0}
    for name in DATASETS:
        history = dataset(name)
        graph = graph_from_history(history)
        membership = membership_of(history)
        for delta in DELTAS:
            for rule in ("balanced", "min_weight"):
                result = lyresplit(graph, delta, edge_rule=rule)
                depth_totals[rule] += result.recursion_depth
                rows.append(
                    (
                        name,
                        delta,
                        rule,
                        result.partitioning.num_partitions,
                        result.recursion_depth,
                        result.partitioning.storage_cost(membership),
                        fmt(
                            result.partitioning.checkout_cost(membership), 5
                        ),
                    )
                )
    print_table(
        "Ablation: LyreSplit edge-picking rule",
        ["dataset", "delta", "rule", "K", "depth ℓ", "storage", "C_avg"],
        rows,
    )
    graph = graph_from_history(dataset("SCI_M"))
    benchmark.pedantic(
        lyresplit, args=(graph, 0.5), kwargs={"edge_rule": "balanced"},
        rounds=3, iterations=1,
    )
    # The balanced rule needs no more recursion levels overall.
    assert depth_totals["balanced"] <= depth_totals["min_weight"]
