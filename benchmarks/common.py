"""Shared infrastructure for the benchmark harness.

Every bench prints the same rows/series its paper table or figure
reports, at laptop scale. Absolute numbers are not comparable with the
paper's workstation + PostgreSQL setup; the *shape* — which approach
wins, growth trends, crossovers — is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.cvd import CVD
from repro.datasets.benchmark import standard_datasets
from repro.datasets.history import VersionedHistory
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT


@functools.lru_cache(maxsize=None)
def dataset(name: str) -> VersionedHistory:
    """Cached standard dataset by name (SCI_S/M/L, CUR_S/M/L)."""
    return standard_datasets([name])[name]


def history_schema(history: VersionedHistory) -> Schema:
    return Schema(
        [ColumnDef(f"a{i}", INT) for i in range(history.num_attributes)]
    )


def load_cvd(history: VersionedHistory, model) -> CVD:
    """Replay a history into a fresh CVD under the given model (a name
    or a prebuilt DataModel factory taking (db, name, schema))."""
    db = Database()
    schema = history_schema(history)
    if callable(model) and not isinstance(model, str):
        model = model(db, history.name, schema)
    return CVD.from_history(
        db, history, name=history.name, model=model, schema=schema
    )


def membership_of(history: VersionedHistory):
    return {c.vid: c.rids for c in history.commits}


@dataclass
class Measurement:
    """Warmup + median-of-k measurement of one callable.

    ``result`` is the return value of the last measured run. Samples
    are parallel lists: ``wall_samples[i]`` and ``cpu_samples[i]``
    describe the same run.
    """

    result: object
    wall_samples: list[float]
    cpu_samples: list[float]

    @property
    def wall_median(self) -> float:
        return statistics.median(self.wall_samples)

    @property
    def wall_min(self) -> float:
        return min(self.wall_samples)

    @property
    def wall_max(self) -> float:
        return max(self.wall_samples)

    @property
    def cpu_median(self) -> float:
        return statistics.median(self.cpu_samples)

    def to_dict(self) -> dict:
        return {
            "wall_s": {
                "median": self.wall_median,
                "min": self.wall_min,
                "max": self.wall_max,
                "samples": len(self.wall_samples),
            },
            "cpu_s": {
                "median": self.cpu_median,
                "min": min(self.cpu_samples),
                "max": max(self.cpu_samples),
            },
        }


def measure(
    func: Callable,
    *args,
    repeats: int = 3,
    warmup: int = 1,
    **kwargs,
) -> Measurement:
    """Run ``func`` ``warmup`` untimed times, then ``repeats`` timed
    times, recording wall and CPU seconds per run.

    This is the shared measurement primitive for every bench: a single
    sample is noise-dominated at laptop-scale millisecond workloads, so
    report medians from here rather than one ``perf_counter`` delta.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        func(*args, **kwargs)
    wall_samples: list[float] = []
    cpu_samples: list[float] = []
    result = None
    for _ in range(repeats):
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result = func(*args, **kwargs)
        wall_samples.append(time.perf_counter() - wall0)
        cpu_samples.append(time.process_time() - cpu0)
    return Measurement(result, wall_samples, cpu_samples)


def timed(func: Callable, *args, **kwargs) -> tuple[object, float]:
    """(result, wall seconds) — one unwarmed sample via :func:`measure`.

    Only appropriate for seconds-scale one-shot work (full history
    replays) where repeats would be prohibitive and the signal dwarfs
    timer noise; anything millisecond-scale should use
    ``measure(...).wall_median`` instead.
    """
    m = measure(func, *args, repeats=1, warmup=0, **kwargs)
    return m.result, m.wall_samples[0]


def sample_vids(history: VersionedHistory, count: int = 25) -> list[int]:
    """Deterministic sample of versions for checkout measurements (the
    paper samples 100 random versions; we sample evenly)."""
    vids = [c.vid for c in history.commits]
    if len(vids) <= count:
        return vids
    step = len(vids) / count
    return [vids[int(i * step)] for i in range(count)]


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Fixed-width table printer; also exports the series as CSV.

    Every printed table lands in ``results/<slug>.csv`` so the figures
    can be re-plotted without re-running the harness.
    """
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    _export_csv(title, headers, rows)


def _results_dir():
    import pathlib

    results_dir = pathlib.Path(__file__).parent.parent / "results"
    results_dir.mkdir(exist_ok=True)
    return results_dir


def _slug(title: str) -> str:
    import re

    return re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")[:80]


def _export_csv(title: str, headers: list[str], rows: list[tuple]) -> None:
    import csv

    with open(_results_dir() / f"{_slug(title)}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


def fmt(value: float, digits: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)
