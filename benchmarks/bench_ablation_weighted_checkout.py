"""Extension — weighted checkout frequencies (Section 5.3.2).

The paper develops the weighted generalization analytically but reports
no experiment for it. This bench constructs a skewed workload — recent
versions checked out far more often, the scenario the section motivates —
and compares unweighted LyreSplit against the weighted variant on the
weighted checkout cost C_w, at matched storage.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, membership_of, print_table
from repro.partition.lyresplit import lyresplit
from repro.partition.version_graph import graph_from_history
from repro.partition.weighted import lyresplit_weighted


def test_ablation_weighted_checkout(benchmark):
    deltas = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.85)
    rows = []
    improvements = {}
    for name in ("SCI_S", "SCI_M"):
        history = dataset(name)
        membership = membership_of(history)
        graph = graph_from_history(history)
        vids = [c.vid for c in history.commits]
        # Hot set: a few mid-history "canonical" versions the whole team
        # repeatedly checks out — the scenario Section 5.3.2 motivates.
        middle = len(vids) // 2
        hot = set(vids[middle : middle + 3])
        frequencies = {vid: (200 if vid in hot else 1) for vid in vids}
        total = len(frozenset().union(*membership.values()))
        budget = 2.0 * total

        # Best weighted cost each variant achieves within the SAME
        # storage budget, sweeping δ for both.
        def best_within_budget(weighted: bool):
            best_cost = float("inf")
            best_storage = 0
            for delta in deltas:
                if weighted:
                    result = lyresplit_weighted(
                        graph, delta, frequencies, membership=membership
                    )
                else:
                    result = lyresplit(graph, delta)
                storage = result.partitioning.storage_cost(membership)
                if storage > budget:
                    continue
                cost = result.partitioning.weighted_checkout_cost(
                    membership, frequencies
                )
                if cost < best_cost:
                    best_cost, best_storage = cost, storage
            return best_cost, best_storage

        unweighted_cost, unweighted_storage = best_within_budget(False)
        weighted_cost, weighted_storage = best_within_budget(True)
        improvements[name] = unweighted_cost / weighted_cost
        rows.append(
            (
                name,
                budget,
                unweighted_storage,
                fmt(unweighted_cost, 5),
                weighted_storage,
                fmt(weighted_cost, 5),
                fmt(improvements[name], 4) + "x",
            )
        )
    print_table(
        "Extension: weighted checkout at matched budget (hot mid-history)",
        [
            "dataset",
            "budget γ",
            "unweighted S",
            "unweighted C_w",
            "weighted S",
            "weighted C_w",
            "C_w gain",
        ],
        rows,
    )
    graph = graph_from_history(dataset("SCI_S"))
    frequencies = {c.vid: 1 for c in dataset("SCI_S").commits}
    benchmark.pedantic(
        lyresplit_weighted, args=(graph, 0.5, frequencies),
        rounds=3, iterations=1,
    )
    # At matched storage, the weighted variant never loses materially on
    # the cost it optimizes, and wins clearly where plain LyreSplit puts
    # the hot versions inside a large partition.
    assert all(gain > 0.9 for gain in improvements.values())
    assert any(gain >= 1.1 for gain in improvements.values())
