"""Section 8.8 — preliminary evaluation of lineage inference.

The paper reports precision/recall of inferred derivation edges on
internal corpora; we synthesize unregistered repositories with known
ground truth and sweep corpus size, timestamp availability/noise, and
schema-change rate. Also reports the sketch-pruning speedup of
Section 8.6.

Paper shape to match: high precision/recall when timestamps order the
artifacts; graceful degradation without them (orientation becomes the
hard part, so undirected scores stay high); row-preserving schema
operations still linked.
"""

from __future__ import annotations


from benchmarks.common import fmt, print_table, timed
from repro.provenance import InferenceConfig, evaluate_edges, infer_lineage
from repro.provenance.synthetic import RepositoryConfig, generate_repository

SCENARIOS = {
    "timestamps": RepositoryConfig(num_artifacts=25, seed=51),
    "noisy timestamps": RepositoryConfig(
        num_artifacts=25, seed=52, timestamp_noise=15.0
    ),
    "no timestamps": RepositoryConfig(
        num_artifacts=25, seed=53, drop_timestamps=True
    ),
    "schema-heavy": RepositoryConfig(
        num_artifacts=25, seed=54, schema_change_probability=0.45
    ),
}


def test_ch8_accuracy_by_scenario(benchmark):
    rows = []
    metrics_by_name = {}
    for name, config in SCENARIOS.items():
        artifacts, truth = generate_repository(config)
        edges, seconds = timed(infer_lineage, artifacts)
        metrics = evaluate_edges([e.as_pair() for e in edges], truth)
        metrics_by_name[name] = metrics
        rows.append(
            (
                name,
                fmt(metrics.precision, 3),
                fmt(metrics.recall, 3),
                fmt(metrics.f1, 3),
                fmt(metrics.undirected_f1, 3),
                fmt(seconds, 3) + " s",
            )
        )
    print_table(
        "Section 8.8: lineage inference accuracy by scenario",
        ["scenario", "precision", "recall", "F1", "undirected F1", "time"],
        rows,
    )
    artifacts, _truth = generate_repository(SCENARIOS["timestamps"])
    benchmark.pedantic(infer_lineage, args=(artifacts,), rounds=1, iterations=1)

    assert metrics_by_name["timestamps"].f1 >= 0.8
    assert (
        metrics_by_name["no timestamps"].undirected_f1
        >= metrics_by_name["no timestamps"].f1
    )
    assert metrics_by_name["schema-heavy"].f1 >= 0.7


def test_ch8_scaling_with_corpus_size(benchmark):
    rows = []
    for size in (10, 20, 40, 60):
        config = RepositoryConfig(num_artifacts=size, seed=60 + size)
        artifacts, truth = generate_repository(config)
        edges, seconds = timed(infer_lineage, artifacts)
        metrics = evaluate_edges([e.as_pair() for e in edges], truth)
        rows.append(
            (
                size,
                fmt(metrics.f1, 3),
                fmt(seconds, 3) + " s",
            )
        )
    print_table(
        "Section 8.8: accuracy and cost vs corpus size",
        ["artifacts", "F1", "inference time"],
        rows,
    )
    artifacts, _ = generate_repository(RepositoryConfig(num_artifacts=20, seed=80))
    benchmark.pedantic(infer_lineage, args=(artifacts,), rounds=1, iterations=1)
    assert all(float(r[1]) >= 0.6 for r in rows)


def test_ch8_sketch_pruning(benchmark):
    """Section 8.6 acceleration: the candidate floor prunes dissimilar
    pairs before any exact comparison."""
    config = RepositoryConfig(num_artifacts=30, seed=71)
    artifacts, truth = generate_repository(config)
    pruned_config = InferenceConfig(candidate_floor=0.05)
    exhaustive_config = InferenceConfig(candidate_floor=0.0)
    pruned_edges, pruned_seconds = timed(
        infer_lineage, artifacts, pruned_config
    )
    exhaustive_edges, exhaustive_seconds = timed(
        infer_lineage, artifacts, exhaustive_config
    )
    pruned_metrics = evaluate_edges(
        [e.as_pair() for e in pruned_edges], truth
    )
    exhaustive_metrics = evaluate_edges(
        [e.as_pair() for e in exhaustive_edges], truth
    )
    print_table(
        "Section 8.6: sketch pruning vs exhaustive pairing",
        ["mode", "F1", "time"],
        [
            ("pruned", fmt(pruned_metrics.f1, 3), fmt(pruned_seconds, 3)),
            (
                "exhaustive",
                fmt(exhaustive_metrics.f1, 3),
                fmt(exhaustive_seconds, 3),
            ),
        ],
    )
    benchmark.pedantic(
        infer_lineage, args=(artifacts, pruned_config), rounds=1, iterations=1
    )
    # Pruning must not cost accuracy on these insert-heavy histories.
    assert pruned_metrics.f1 >= exhaustive_metrics.f1 - 0.1
