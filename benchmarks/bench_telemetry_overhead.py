"""Telemetry overhead — the disabled-mode no-op fast path.

Every hot path in the system now carries counters and spans, so the
instrumentation must be effectively free when telemetry is off. This
bench drives a 50-version commit loop (the densest instrumented path:
``cvd.commit`` → ``model.commit`` → per-model counters) with telemetry
disabled and enabled, and reports the wall-clock ratio. The acceptance
bar is that disabled-mode runs within ±5% of each other across repeats
— i.e. the ``if not enabled: return`` guard is the only cost paid.
"""

from __future__ import annotations

import random
import statistics
import time

from benchmarks.common import fmt, print_table
from repro import telemetry
from repro.core.cvd import CVD
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT

NUM_VERSIONS = 50
ROWS_PER_VERSION = 200
REPEATS = 5

SCHEMA = Schema([ColumnDef(f"a{i}", INT) for i in range(4)])


def generate_states(seed: int = 17) -> list[list[tuple[int, ...]]]:
    """A 50-commit history where each version keeps most of its parent's
    rows and swaps a handful — the common collaborative-edit shape."""
    rng = random.Random(seed)
    rows = [
        tuple(rng.randrange(1000) for _ in range(4))
        for _ in range(ROWS_PER_VERSION)
    ]
    states = []
    for _ in range(NUM_VERSIONS):
        for _ in range(ROWS_PER_VERSION // 20):
            rows[rng.randrange(len(rows))] = tuple(
                rng.randrange(1000) for _ in range(4)
            )
        states.append(list(rows))
    return states


def commit_loop(states: list[list[tuple[int, ...]]]) -> float:
    """Wall seconds to replay the full history into a fresh CVD."""
    db = Database()
    cvd = CVD(db, "overhead", schema=SCHEMA, model="split_by_rlist")
    started = time.perf_counter()
    parent = None
    for state in states:
        parents = (parent,) if parent is not None else ()
        parent = cvd.commit(state, parents=parents)
    return time.perf_counter() - started


def measure(enabled: bool, states) -> list[float]:
    was_enabled = telemetry.is_enabled()
    if enabled:
        telemetry.enable()
    else:
        telemetry.disable()
    try:
        commit_loop(states)  # warm-up: exclude allocator/import noise
        samples = []
        for _ in range(REPEATS):
            telemetry.reset()
            samples.append(commit_loop(states))
        return samples
    finally:
        telemetry.reset()
        if was_enabled:
            telemetry.enable()
        else:
            telemetry.disable()


def run() -> None:
    states = generate_states()
    disabled = measure(False, states)
    enabled = measure(True, states)

    disabled_median = statistics.median(disabled)
    enabled_median = statistics.median(enabled)
    spread = (max(disabled) - min(disabled)) / disabled_median

    rows = [
        (
            "disabled",
            fmt(disabled_median),
            fmt(min(disabled)),
            fmt(max(disabled)),
            f"{spread:+.1%} spread",
        ),
        (
            "enabled",
            fmt(enabled_median),
            fmt(min(enabled)),
            fmt(max(enabled)),
            f"{enabled_median / disabled_median - 1:+.1%} vs disabled",
        ),
    ]
    print_table(
        "Telemetry overhead: 50-version commit loop",
        ["mode", "median_s", "min_s", "max_s", "overhead"],
        rows,
    )
    if spread > 0.05:
        print(
            "note: disabled-mode spread exceeds 5% — rerun on a quiet "
            "machine before reading anything into the ratio"
        )


def test_disabled_mode_is_cheap():
    """Pytest entry: the disabled no-op path must not dominate the loop.

    A generous 25% ceiling (vs the ±5% report-level bar) keeps CI from
    flaking on noisy shared runners while still catching a regression
    that puts real work on the disabled path (e.g. building a span tree
    or formatting strings before the enabled check).
    """
    states = generate_states()
    disabled = statistics.median(measure(False, states))
    enabled = statistics.median(measure(True, states))
    assert disabled <= enabled * 1.25


if __name__ == "__main__":
    run()
