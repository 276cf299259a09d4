"""Registry of runner-executable benchmarks.

A bench module exposes small measurement units to the unified
runner (``python -m benchmarks``) by decorating a callable::

    @quick_bench(
        "fig4_1/commit_rlist_xs",
        setup=_make_history,          # untimed; its return is the arg
        repeats=3,
        counters=("cvd.commit.",),    # counter prefixes to export
    )
    def bench_commit(history):
        load_cvd(history, "split_by_rlist")

The decorated function is the *measured* unit: the runner calls
``setup()`` once (untimed), runs ``fn(state)`` ``warmup`` times, resets
the telemetry registry, then times ``repeats`` runs and exports the
median wall/CPU seconds plus any telemetry counters matching the
declared prefixes (divided by the number of measured runs, so the
exported counter describes one run).

Names are ``<figure-or-chapter>/<unit>`` and must be unique across the
whole suite; they are the keys of ``BENCH_<sha>.json`` and of
``benchmarks/baselines.json``, so renaming one is a baseline change.
There is one tier, the quick one: every unit runs in CI well under a
minute. orpheusd and the storage layouts are measured end to end by
``benchmarks/e2e``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark unit."""

    name: str
    fn: Callable
    setup: Callable | None = None
    repeats: int = 5
    warmup: int = 1
    #: Telemetry counter name prefixes whose per-run values are
    #: exported alongside the timings (e.g. rows moved, join volumes).
    counters: tuple[str, ...] = field(default_factory=tuple)


#: name -> spec; populated at import time by the bench modules.
REGISTRY: dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate bench name {spec.name!r}")
    if "/" not in spec.name:
        raise ValueError(
            f"bench name {spec.name!r} must be '<group>/<unit>'"
        )
    REGISTRY[spec.name] = spec
    return spec


def quick_bench(
    name: str,
    *,
    setup: Callable | None = None,
    repeats: int = 5,
    warmup: int = 1,
    counters: tuple[str, ...] = (),
):
    """Decorator registering ``fn`` as a runner-executable bench."""

    def decorate(fn: Callable) -> Callable:
        register(
            BenchSpec(
                name=name,
                fn=fn,
                setup=setup,
                repeats=repeats,
                warmup=warmup,
                counters=tuple(counters),
            )
        )
        return fn

    return decorate


def benches(pattern: str | None = None):
    """Registered specs whose name contains ``pattern``, sorted by name
    (deterministic run order)."""
    specs = [
        spec
        for spec in REGISTRY.values()
        if pattern is None or pattern in spec.name
    ]
    return sorted(specs, key=lambda spec: spec.name)
