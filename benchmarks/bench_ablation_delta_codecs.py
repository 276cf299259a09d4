"""Ablation — delta codec choice in the Chapter 7 storage engine.

The engine is codec-agnostic; this ablation compares line-diff, XOR and
(for keyed tabular artifacts) cell-diff codecs on the same history under
the min-storage plan: compression achieved, plan shape, and retrieval
wall time.
"""

from __future__ import annotations


from benchmarks.common import fmt, print_table, timed
from repro.storage.deltas import CellDeltaCodec, LineDeltaCodec, XorDeltaCodec
from repro.storage.engine import VersionedStore
from repro.storage.synthetic import SyntheticConfig, generate_text_history


def build_variants():
    config = SyntheticConfig(
        num_versions=35, branching_factor=0.2, edits_per_version=20, seed=61
    )
    artifacts, parents = generate_text_history(config)

    stores = {}
    line = VersionedStore(LineDeltaCodec())
    for vid in sorted(artifacts):
        line.add_version(vid, artifacts[vid], parents[vid])
    stores["line"] = line

    xor = VersionedStore(XorDeltaCodec())
    for vid in sorted(artifacts):
        xor.add_version(
            vid, bytes("\n".join(artifacts[vid]), "utf8"), parents[vid]
        )
    stores["xor"] = xor

    # The cell codec works on *keyed* tables: build it a real keyed
    # history (stable rids) rather than index-keyed lines, whose keys
    # would shift on insertion just like XOR's byte positions do.
    from repro.datasets.benchmark import BenchmarkConfig, generate_sci

    history = generate_sci(
        BenchmarkConfig(
            target_records=2_000, ops_per_commit=60, seed=62
        ),
        name="keyed",
    )
    cell = VersionedStore(CellDeltaCodec())
    vid_map = {}
    for index, commit in enumerate(history.commits, start=1):
        keyed = {
            rid: history.payloads[rid] for rid in sorted(commit.rids)
        }
        vid_map[commit.vid] = index
        cell.add_version(
            index, keyed, tuple(vid_map[p] for p in commit.parents)
        )
    stores["cell"] = cell
    return stores


def test_ablation_delta_codecs(benchmark):
    stores = build_variants()
    rows = []
    ratios = {}
    for name, store in stores.items():
        plan = store.plan(1)
        graph = store.graph()
        full = sum(
            graph.edges[(0, v)][0] for v in graph.vertices()
        )
        compressed = plan.total_storage_cost(graph)
        ratios[name] = full / compressed
        vids = list(graph.vertices())[::5]
        _res, seconds = timed(lambda s=store, v=vids: [s.retrieve(x) for x in v])
        rows.append(
            (
                name,
                fmt(full / 1e3, 4) + " KB",
                fmt(compressed / 1e3, 4) + " KB",
                fmt(ratios[name], 4) + "x",
                len(plan.materialized()),
                fmt(seconds / len(vids) * 1000, 3) + " ms",
            )
        )
    print_table(
        "Ablation: delta codec under the min-storage plan",
        [
            "codec",
            "all materialized",
            "plan storage",
            "compression",
            "materialized versions",
            "retrieve wall",
        ],
        rows,
    )
    benchmark.pedantic(
        stores["line"].retrieve, args=(10,), rounds=3, iterations=1
    )
    # Alignment-aware codecs compress substantially; XOR barely helps on
    # insert/delete-heavy text because insertions shift every downstream
    # byte — exactly why the paper treats the differencing mechanism as
    # a pluggable choice per data type (Section 7.2.1).
    assert ratios["line"] > 3
    assert ratios["cell"] > 3
    assert ratios["xor"] >= 1.0
    assert ratios["line"] > 2 * ratios["xor"]
    # Retrieval correctness across codecs (first, middle, last version).
    for name, store in stores.items():
        vids = sorted(store._artifacts)
        for vid in (vids[0], vids[len(vids) // 2], vids[-1]):
            assert store.retrieve(vid) == store._artifacts[vid], name
