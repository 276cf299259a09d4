"""A data-science-team scenario with partitioning and VQuel.

Simulates the paper's motivating computational-biology workflow: a team
repeatedly branches an evolving dataset, analyses and edits private
copies, and commits results back — producing the SCI-style branched
history of Chapter 5. The example then:

1. shows how checkout cost degrades as the CVD grows;
2. runs the LyreSplit partition optimizer under a 2x storage budget and
   measures the improvement;
3. turns on online maintenance + migration for subsequent commits;
4. asks cross-version questions with VQuel (Chapter 6).

Run:  python examples/team_analysis.py
"""

import time

from repro.core.cvd import CVD
from repro.datasets.benchmark import BenchmarkConfig, generate_sci
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT
from repro.vquel import Repository, run_query


def mean_checkout_seconds(model, vids) -> float:
    started = time.perf_counter()
    for vid in vids:
        model.checkout_columns(vid)
    return (time.perf_counter() - started) / len(vids)


def main() -> None:
    # A branched team history: 8 analysts, ~8k records.
    history = generate_sci(
        BenchmarkConfig(
            num_branches=8, target_records=8_000, ops_per_commit=120, seed=77
        ),
        name="team",
    )
    schema = Schema(
        [ColumnDef(f"feature{i}", INT) for i in range(history.num_attributes)]
    )
    print(
        f"generated team history: {history.num_versions} versions, "
        f"{history.num_records} records, "
        f"{history.num_bipartite_edges} version-record memberships"
    )

    # ------------------------------------------------------------------
    # Unpartitioned store: checkout scans the whole data table.
    # ------------------------------------------------------------------
    plain = CVD.from_history(
        Database(), history, name="team", model="split_by_rlist",
        schema=schema,
    )
    sample = [c.vid for c in history.commits][:: max(1, history.num_versions // 12)]
    before = mean_checkout_seconds(plain.model, sample)
    print(f"\nunpartitioned checkout: {before * 1000:.2f} ms/version")

    # ------------------------------------------------------------------
    # Partitioned store + LyreSplit under gamma = 2|R|.
    # ------------------------------------------------------------------
    db = Database()
    store = PartitionedRlistStore(
        db, "team", schema, storage_threshold_factor=2.0, tolerance=1.5
    )
    cvd = CVD.from_history(db, history, name="team", model=store, schema=schema)
    target, best_cost = store.best_partitioning()
    stats = store.migrate_to(target)
    after = mean_checkout_seconds(store, sample)
    print(
        f"partitioned into {target.num_partitions} partitions "
        f"(migration moved {stats.records_inserted + stats.records_deleted} "
        f"records in {stats.wall_seconds * 1000:.1f} ms)"
    )
    print(
        f"partitioned checkout:   {after * 1000:.2f} ms/version "
        f"({before / max(after, 1e-9):.1f}x faster), storage "
        f"{store.current_storage_cost()} records vs {history.num_records} "
        "deduplicated"
    )

    # ------------------------------------------------------------------
    # New commits flow through online maintenance.
    # ------------------------------------------------------------------
    store.auto_migrate = True
    head = cvd.versions.latest_vid()
    head_rows = store.checkout_columns(head)[1]
    new_vid = cvd.commit(
        head_rows + [(999_999,) * history.num_attributes],
        parents=[head],
        message="nightly ingest",
        author="pipeline",
    )
    print(
        f"\ncommitted v{new_vid} online; store now has "
        f"{len(store._partitions)} partitions, "
        f"{len(store.migrations)} migrations so far"
    )

    # ------------------------------------------------------------------
    # VQuel over the version graph.
    # ------------------------------------------------------------------
    recent = history.subset(
        [c.vid for c in history.commits[:12]]
    )
    small_cvd = CVD.from_history(
        Database(), recent, name="team", schema=schema
    )
    repo = Repository.from_cvd(small_cvd, relation_name="Measurements")
    result = run_query(
        repo,
        """
        range of V is Version
        range of P is V.P(1)
        retrieve unique V.id
        where abs(count(V.Relations.Tuples) - count(P.Relations.Tuples)) >= 20
        """,
    )
    print(
        "\nVQuel: versions whose record count moved by >= 20 vs their "
        f"parent: {[row[0] for row in result.rows]}"
    )

    result = run_query(
        repo,
        """
        range of V is Version
        range of T is V.Relations(name = "Measurements").Tuples
        retrieve into S (V.id as id, count(T) as n)
        retrieve S.id, S.n where S.n = max(S.n)
        """,
    )
    print(f"VQuel: largest version: {result.rows}")


if __name__ == "__main__":
    main()
