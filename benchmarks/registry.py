"""Registry of runner-executable benchmarks.

A bench module exposes small, tagged measurement units to the unified
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: The quick tier: small-scale, CI-runnable in well under a minute each.
QUICK = "quick"

#: The service-scale tier: multi-client load ramps against a live
#: daemon (tens of simulated clients, seconds per step). Deliberately
#: NOT part of the quick tier: run it with
#: ``python -m benchmarks --tier service-scale``.
SERVICE_SCALE = "service-scale"


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark unit."""

    name: str
    fn: Callable
    setup: Callable | None = None
    repeats: int = 5
    warmup: int = 1
    tags: tuple[str, ...] = (QUICK,)
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
    tags: tuple[str, ...] = (QUICK,),
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
                tags=tuple(tags),
                counters=tuple(counters),
            )
        )
        return fn

    return decorate


def benches(tag: str | None = QUICK, pattern: str | None = None):
    """Registered specs filtered by tag and substring pattern, sorted
    by name (deterministic run order)."""
    specs = [
        spec
        for spec in REGISTRY.values()
        if (tag is None or tag in spec.tags)
        and (pattern is None or pattern in spec.name)
    ]
    return sorted(specs, key=lambda spec: spec.name)
