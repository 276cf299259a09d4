"""Figure 5.7 — validation of the checkout cost model.

Measures checkout (rlist-join-data) for the three join algorithms under
both physical clusterings, varying the partition size |R_k| and the
version size |rlist|. Reported in both wall time and the engine's
device-independent weighted I/O units.

Paper shape to match:
* hash join: cost linear in |R_k| for every |rlist|, any clustering;
* merge join (clustered on rid): linear in |R_k|;
* index-nested-loop (clustered): flat while |rlist| << |R_k|, linear
  once |rlist| is comparable to |R_k|;
* index-nested-loop (unclustered): pure random I/O per probed rid.
"""

from __future__ import annotations

import random

from benchmarks.common import fmt, measure, print_table
from repro.relational.costs import CostAccountant
from repro.relational.joins import JOIN_ALGORITHMS
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import ClusterOrder, Table
from repro.relational.types import INT

TABLE_SIZES = [2_000, 6_000, 12_000, 20_000]
RLIST_SIZES = [100, 1_000, 5_000]

#: Grid cells are millisecond-scale, where a single wall-clock sample
#: is noise-dominated; each cell reports the median of this many runs
#: (plus one warmup).
GRID_REPEATS = 3


def make_data_table(size: int, cluster: ClusterOrder) -> Table:
    schema = Schema(
        [ColumnDef("rid", INT)]
        + [ColumnDef(f"a{i}", INT) for i in range(5)],
        primary_key=("rid",),
    )
    table = Table(
        "data", schema, accountant=CostAccountant(), cluster_order=cluster
    )
    rng = random.Random(size)
    for rid in range(1, size + 1):
        table.insert((rid, *(rng.randrange(1000) for _ in range(5))))
    return table


def run_grid(cluster: ClusterOrder) -> list[tuple]:
    rows = []
    rng = random.Random(7)
    tables = {size: make_data_table(size, cluster) for size in TABLE_SIZES}
    for join_name, join in JOIN_ALGORITHMS.items():
        for rlist_size in RLIST_SIZES:
            for size in TABLE_SIZES:
                if rlist_size > size:
                    continue
                table = tables[size]
                rlist = sorted(rng.sample(range(1, size + 1), rlist_size))
                table.accountant.reset()
                m = measure(
                    join, rlist, table, "rid",
                    repeats=GRID_REPEATS, warmup=1,
                )
                # Joins are read-only, so each of the warmup+measured
                # runs contributes identical I/O; normalize to one run.
                io = table.accountant.snapshot().weighted_io() / (
                    GRID_REPEATS + 1
                )
                rows.append(
                    (
                        join_name,
                        rlist_size,
                        size,
                        fmt(m.wall_median * 1000, 3) + " ms",
                        int(io),
                    )
                )
    return rows


def test_fig5_7_clustered_on_rid(benchmark):
    rows = run_grid(ClusterOrder.RID)
    print_table(
        "Figure 5.7(a-c): checkout cost, data table clustered on rid",
        ["join", "|rlist|", "|R_k|", "wall", "weighted_io"],
        rows,
    )
    table = make_data_table(TABLE_SIZES[0], ClusterOrder.RID)
    rlist = list(range(1, 101))
    benchmark.pedantic(
        JOIN_ALGORITHMS["hash"], args=(rlist, table, "rid"),
        rounds=3, iterations=1,
    )
    by_key = {
        (j, rl, s): io for j, rl, s, _w, io in rows
    }
    # Hash join linear in |R_k| (io within 20% of proportionality).
    small = by_key[("hash", 100, 2_000)]
    large = by_key[("hash", 100, 20_000)]
    assert 8 <= large / small <= 12
    # INL clustered: flat in |R_k| while |rlist| fixed and small.
    inl_small = by_key[("index_nested_loop", 100, 2_000)]
    inl_large = by_key[("index_nested_loop", 100, 20_000)]
    assert inl_large <= inl_small * 1.5


def test_fig5_7_clustered_on_pk(benchmark):
    rows = run_grid(ClusterOrder.PRIMARY_KEY)
    print_table(
        "Figure 5.7(d-f): checkout cost, data table clustered on PK",
        ["join", "|rlist|", "|R_k|", "wall", "weighted_io"],
        rows,
    )
    table = make_data_table(TABLE_SIZES[0], ClusterOrder.PRIMARY_KEY)
    rlist = list(range(1, 101))
    benchmark.pedantic(
        JOIN_ALGORITHMS["index_nested_loop"], args=(rlist, table, "rid"),
        rounds=3, iterations=1,
    )
    by_key = {
        (j, rl, s): io for j, rl, s, _w, io in rows
    }
    # Hash join is insensitive to the physical layout (same io either way).
    assert by_key[("hash", 100, 20_000)] == by_key[("hash", 1_000, 20_000)]


def test_fig5_7_overall_takeaway(benchmark):
    """The takeaway the paper adopts: hash join has stable performance
    regardless of layout, so the checkout cost model C_i ∝ |R_k| is
    sound. Here: hash-join weighted io identical across clusterings, and
    within each clustering linear in |R_k|."""
    ios = {}
    for cluster in (ClusterOrder.RID, ClusterOrder.PRIMARY_KEY):
        table = make_data_table(6_000, cluster)
        rlist = sorted(random.Random(3).sample(range(1, 6_001), 500))
        table.accountant.reset()
        JOIN_ALGORITHMS["hash"](rlist, table, "rid")
        ios[cluster] = table.accountant.snapshot().weighted_io()
    print_table(
        "Figure 5.7 takeaway: hash join stability across layouts",
        ["clustering", "weighted_io"],
        [(c.value, int(v)) for c, v in ios.items()],
    )
    assert ios[ClusterOrder.RID] == ios[ClusterOrder.PRIMARY_KEY]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
