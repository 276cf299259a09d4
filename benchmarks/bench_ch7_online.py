"""Extension — online storage planning vs the static optimum.

Chapter 7 notes its formulation is static and leaves the online problem
(versions arriving continuously) to future work. This bench streams a
history through the online planner under a recreation budget θ and
compares its storage against the static MP plan computed with all
versions known, across replan tolerances µ.

Expected shape: the online plan stays within µ of the static optimum by
construction; tighter µ triggers more replans but lower storage.
"""

from __future__ import annotations


from benchmarks.common import fmt, print_table, timed
from repro.storage.deltas import LineDeltaCodec
from repro.storage.online import OnlineVersionedStore
from repro.storage.solvers.mp import mp_min_storage
from repro.storage.synthetic import SyntheticConfig, generate_text_history


def test_ch7_online_vs_static(benchmark):
    artifacts, parents = generate_text_history(
        SyntheticConfig(
            num_versions=40, branching_factor=0.2, edits_per_version=20,
            seed=93,
        )
    )
    codec = LineDeltaCodec()
    theta = max(
        codec.materialize_cost(a)[1] for a in artifacts.values()
    ) * 2.0

    rows = []
    for mu in (1.1, 1.5, 2.5):
        store = OnlineVersionedStore(
            LineDeltaCodec(), max_recreation=theta, tolerance=mu
        )

        def stream(s=store):
            for vid in sorted(artifacts):
                s.add_version(vid, artifacts[vid], parents[vid])

        _res, seconds = timed(stream)
        static = mp_min_storage(store.graph(), theta)
        static_storage = static.total_storage_cost(store.graph())
        rows.append(
            (
                f"mu={mu}",
                fmt(store.total_storage_cost(), 6),
                fmt(static_storage, 6),
                fmt(store.total_storage_cost() / static_storage, 4) + "x",
                store.stats.replans,
                len(store.plan().materialized()),
                fmt(seconds, 3) + " s",
            )
        )
        assert store.total_storage_cost() <= mu * static_storage * 1.01
    print_table(
        "Extension: online planner vs static MP (θ = 2x max materialize)",
        [
            "tolerance",
            "online storage",
            "static storage",
            "ratio",
            "replans",
            "materialized",
            "stream time",
        ],
        rows,
    )

    store = OnlineVersionedStore(
        LineDeltaCodec(), max_recreation=theta, tolerance=1.5
    )
    for vid in sorted(artifacts)[:10]:
        store.add_version(vid, artifacts[vid], parents[vid])
    benchmark.pedantic(
        store.add_version,
        args=(11, artifacts[11], parents[11]),
        rounds=1,
        iterations=1,
    )
