"""Figure 5.17 — online maintenance and migration, γ = 1.5|R|.

Streams a history commit-by-commit through the partitioned store with
online maintenance, tracking how the live checkout cost C_avg diverges
from LyreSplit's C*_avg and when the migration engine fires, for several
tolerance factors µ; then compares intelligent vs naive migration cost.

Paper shape to match: C_avg hugs C*_avg between migrations; larger µ →
fewer migrations; intelligent migration moves a fraction of the records
naive rebuilds do (~1/10 at µ=1.05 in the paper).
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, history_schema, print_table
from repro.core.cvd import CVD
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.database import Database

GAMMA = 1.5
MUS = [1.05, 1.5, 2.0]


def stream_history(history, gamma: float, mu: float, strategy: str):
    db = Database()
    schema = history_schema(history)
    store = PartitionedRlistStore(
        db,
        history.name,
        schema,
        storage_threshold_factor=gamma,
        tolerance=mu,
        auto_migrate=True,
        migration_strategy=strategy,
    )
    CVD.from_history(
        db, history, name=history.name, model=store, schema=schema
    )
    return store


def run_online(gamma: float, title: str) -> None:
    history = dataset("SCI_M")
    rows = []
    migration_counts = {}
    moved_records = {}
    for mu in MUS:
        store = stream_history(history, gamma, mu, "intelligent")
        _t, best = store.best_partitioning()
        migration_counts[mu] = len(store.migrations)
        moved_records[("intelligent", mu)] = sum(
            m.records_inserted + m.records_deleted for m in store.migrations
        )
        rows.append(
            (
                f"mu={mu}",
                len(store.migrations),
                fmt(store.current_checkout_cost(), 5),
                fmt(best, 5),
                moved_records[("intelligent", mu)],
                fmt(
                    sum(m.wall_seconds for m in store.migrations), 3
                )
                + " s",
            )
        )
    print_table(
        title,
        [
            "tolerance",
            "migrations",
            "final C_avg",
            "final C*_avg",
            "records moved",
            "migration wall",
        ],
        rows,
    )

    naive = stream_history(history, gamma, 1.05, "naive")
    naive_moved = sum(
        m.records_inserted + m.records_deleted for m in naive.migrations
    )
    print(
        f"migration cost at mu=1.05: intelligent="
        f"{moved_records[('intelligent', 1.05)]} records, "
        f"naive={naive_moved} records"
    )
    return migration_counts, moved_records[("intelligent", 1.05)], naive_moved


def test_fig5_17_online_gamma_1_5(benchmark):
    migration_counts, intelligent_moved, naive_moved = run_online(
        GAMMA, "Figure 5.17: online maintenance + migration (γ=1.5|R|)"
    )
    history = dataset("SCI_S")
    benchmark.pedantic(
        stream_history, args=(history, GAMMA, 1.5, "intelligent"),
        rounds=1, iterations=1,
    )
    # Shape: larger tolerance → no more migrations than smaller.
    assert migration_counts[2.0] <= migration_counts[1.05]
    # Shape: intelligent migration moves fewer records than naive.
    assert intelligent_moved < naive_moved
