"""Figure 5.12 — partitioner running time on CUR datasets.

The DAG analogue of Figure 5.10: LyreSplit first reduces the version DAG
to a tree, then runs as before; the baselines are unaffected by DAG
shape but still pay bipartite-graph costs.
"""

from __future__ import annotations

from benchmarks.bench_fig5_10_runtime import run_comparison
from benchmarks.common import dataset, timed
from repro.partition.lyresplit import lyresplit
from repro.partition.version_graph import graph_from_history

DATASETS = ["CUR_S", "CUR_M", "CUR_L"]


def test_fig5_12_running_time_cur(benchmark):
    run_comparison(DATASETS, "Figure 5.12: partitioner running time (CUR)")
    graph = graph_from_history(dataset("CUR_M"))
    benchmark.pedantic(lyresplit, args=(graph, 0.5), rounds=3, iterations=1)

    # Shape: the DAG-to-tree reduction keeps LyreSplit sub-second even
    # on the largest CUR dataset.
    history = dataset("CUR_L")
    graph_l = graph_from_history(history)
    _p, seconds = timed(lyresplit, graph_l, 0.5)
    assert seconds < 2.0
