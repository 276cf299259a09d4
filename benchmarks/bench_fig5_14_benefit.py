"""Figure 5.14 — checkout time and storage with/without partitioning (SCI).

For each SCI dataset: mean wall-clock checkout and storage for the
unpartitioned split-by-rlist store versus LyreSplit partitionings at
γ = 1.5|R| and γ = 2|R|.

Paper shape to match: with ≤ 2x storage, checkout drops several-fold,
and the reduction grows with dataset size (3x → 10x → 21x at paper
scale).
"""

from __future__ import annotations


from benchmarks.common import (
    dataset,
    fmt,
    history_schema,
    membership_of,
    print_table,
    sample_vids,
    timed,
)
from repro.core.cvd import CVD
from repro.partition.lyresplit import lyresplit_for_budget
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.partition.version_graph import graph_from_history
from repro.relational.database import Database

GAMMAS = [1.5, 2.0]


def measure(history, gamma: float | None) -> tuple[float, float]:
    """(mean checkout seconds, storage MB) for a γ-partitioned store
    (γ=None: unpartitioned split-by-rlist)."""
    db = Database()
    schema = history_schema(history)
    if gamma is None:
        cvd = CVD.from_history(
            db, history, name=history.name, model="split_by_rlist",
            schema=schema,
        )
        model = cvd.model
    else:
        store = PartitionedRlistStore(db, history.name, schema)
        cvd = CVD.from_history(
            db, history, name=history.name, model=store, schema=schema
        )
        membership = membership_of(history)
        graph = graph_from_history(history)
        total = len(frozenset().union(*membership.values()))
        result = lyresplit_for_budget(
            graph, gamma * total, membership=membership
        )
        store.migrate_to(result.partitioning)
        model = store
    vids = sample_vids(history, 15)
    _res, seconds = timed(lambda: [model.checkout_columns(v) for v in vids])
    return seconds / len(vids), cvd.storage_bytes() / 1e6


def run_benefit(names, title) -> dict[str, dict]:
    rows = []
    measurements: dict[str, dict] = {}
    for name in names:
        history = dataset(name)
        base_seconds, base_mb = measure(history, None)
        entry = {"none": (base_seconds, base_mb)}
        row = [name, fmt(base_seconds * 1000, 3), fmt(base_mb, 4)]
        for gamma in GAMMAS:
            seconds, mb = measure(history, gamma)
            entry[gamma] = (seconds, mb)
            row.extend([fmt(seconds * 1000, 3), fmt(mb, 4)])
        measurements[name] = entry
        rows.append(tuple(row))
    print_table(
        title,
        [
            "dataset",
            "no-part ms",
            "no-part MB",
            "γ=1.5|R| ms",
            "γ=1.5|R| MB",
            "γ=2|R| ms",
            "γ=2|R| MB",
        ],
        rows,
    )
    for name, entry in measurements.items():
        base = entry["none"][0]
        print(
            f"{name}: checkout speedup at γ=2|R| = "
            f"{fmt(base / max(entry[2.0][0], 1e-9), 3)}x"
        )
    return measurements


def test_fig5_14_partitioning_benefit_sci(benchmark):
    measurements = run_benefit(
        ["SCI_S", "SCI_M", "SCI_L"],
        "Figure 5.14: with/without partitioning (SCI)",
    )
    history = dataset("SCI_S")
    benchmark.pedantic(measure, args=(history, 2.0), rounds=1, iterations=1)
    # Shape: partitioned checkout beats unpartitioned on every dataset,
    # within ~2x the baseline storage. (Relative speedups across dataset
    # sizes are too wall-clock-noisy to assert on a shared machine; the
    # growth trend is visible in the printed table.)
    for name, entry in measurements.items():
        base_seconds, base_mb = entry["none"]
        part_seconds, part_mb = entry[2.0]
        assert part_seconds < base_seconds
        assert part_mb <= 2.6 * base_mb
    speedup_large = (
        measurements["SCI_L"]["none"][0] / measurements["SCI_L"][2.0][0]
    )
    assert speedup_large > 1.3
