"""Noise-aware benchmark regression gating.

Compares a benchmark run (the payload ``benchmarks/runner.py`` emits as
``BENCH_<sha>.json``) against a committed baseline
(``benchmarks/baselines.json``) and classifies every bench:

* ``ok`` — within tolerance of the baseline;
* ``regression`` — slower than baseline by more than the relative
  tolerance AND the absolute floor (both must trip: the floor keeps
  microsecond-scale benches from flagging on scheduler noise, the
  relative tolerance keeps second-scale benches honest);
* ``improvement`` — faster by the same margins (suggests a baseline
  update so future regressions are measured from the new level);
* ``new`` — bench has no baseline entry yet;
* ``removed`` — baseline entry has no bench in this run (suppressed
  for filtered/partial runs);
* ``skipped`` — unusable numbers (NaN, zero or negative time) on
  either side; never a regression, always called out.

The default tolerance is ±10% relative with a 2 ms absolute floor —
the ≤10% jitter band a laptop-scale run exhibits — and a baseline file
may override both for its whole suite.

``python -m benchmarks --check`` exits non-zero iff at least one
verdict is ``regression``; ``--update-baseline`` rewrites the
baseline from the run's medians (a ``--filter``-ed run only its own
rows).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Relative slowdown tolerated before a bench is called a regression.
DEFAULT_REL_TOL = 0.10
#: Absolute wall-second delta below which differences are noise.
DEFAULT_ABS_FLOOR_S = 0.002

BASELINE_KIND = "orpheus-bench-baseline"
#: Must match benchmarks.runner.BENCH_SCHEMA_VERSION.
BASELINE_SCHEMA_VERSION = 1

OK = "ok"
REGRESSION = "regression"
IMPROVEMENT = "improvement"
NEW = "new"
REMOVED = "removed"
SKIPPED = "skipped"


@dataclass
class BenchVerdict:
    """Comparison outcome for one bench name."""

    name: str
    verdict: str
    baseline_s: float | None = None
    current_s: float | None = None
    detail: str = ""

    @property
    def ratio(self) -> float | None:
        if (
            self.baseline_s is None
            or self.current_s is None
            or self.baseline_s <= 0
        ):
            return None
        return self.current_s / self.baseline_s

    def to_dict(self) -> dict:
        record = {"name": self.name, "verdict": self.verdict}
        if self.baseline_s is not None:
            record["baseline_s"] = self.baseline_s
        if self.current_s is not None:
            record["current_s"] = self.current_s
        if self.ratio is not None:
            record["ratio"] = round(self.ratio, 4)
        if self.detail:
            record["detail"] = self.detail
        return record


@dataclass
class RegressionReport:
    """All verdicts plus suite-level notes."""

    verdicts: list[BenchVerdict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rel_tol: float = DEFAULT_REL_TOL
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S

    def _count(self, kind: str) -> int:
        return sum(1 for v in self.verdicts if v.verdict == kind)

    @property
    def has_regressions(self) -> bool:
        return self._count(REGRESSION) > 0

    @property
    def exit_code(self) -> int:
        return 1 if self.has_regressions else 0

    def to_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_floor_s": self.abs_floor_s,
            "regressions": self._count(REGRESSION),
            "improvements": self._count(IMPROVEMENT),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        lines = [
            f"regression check (rel_tol ±{self.rel_tol:.0%}, "
            f"abs floor {self.abs_floor_s * 1000:g} ms)"
        ]
        for v in sorted(self.verdicts, key=lambda v: v.name):
            base = f"{v.baseline_s:.6f}s" if v.baseline_s is not None else "-"
            cur = f"{v.current_s:.6f}s" if v.current_s is not None else "-"
            ratio = f" ({v.ratio:.2f}x)" if v.ratio is not None else ""
            detail = f"  {v.detail}" if v.detail else ""
            lines.append(
                f"[{v.verdict.upper():<11}] {v.name:<40} "
                f"base={base} now={cur}{ratio}{detail}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(
            f"verdict: {self._count(REGRESSION)} regression(s), "
            f"{self._count(IMPROVEMENT)} improvement(s), "
            f"{self._count(NEW)} new, {self._count(REMOVED)} removed"
        )
        if self._count(IMPROVEMENT) or self._count(NEW):
            lines.append(
                "hint: run `python -m benchmarks --update-baseline` to adopt "
                "the new numbers"
            )
        return "\n".join(lines) + "\n"


def breaches(
    delta: float, base: float, rel_tol: float, abs_floor: float
) -> bool:
    """The one noise rule: ``delta`` over ``base`` counts only when it
    exceeds the relative tolerance AND the absolute floor, so jitter on
    a fast operation cannot trip a gate and a slow one stays honest."""
    return delta > base * rel_tol and delta > abs_floor


def _usable(value) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and value > 0
    )


def _bench_wall(entry: dict) -> float | None:
    """Median wall seconds from either a run record (nested dict) or a
    baseline record (flat float)."""
    wall = entry.get("wall_s")
    if isinstance(wall, dict):
        wall = wall.get("median")
    return wall


def compare(
    baseline_benches: dict,
    current_benches: dict,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
    partial: bool = False,
) -> RegressionReport:
    """Classify every bench in the union of the two sets.

    ``partial`` marks a filtered run: baseline entries absent from the
    run are then expected and not reported as ``removed``.
    """
    report = RegressionReport(rel_tol=rel_tol, abs_floor_s=abs_floor_s)
    for name in sorted(set(baseline_benches) | set(current_benches)):
        base_entry = baseline_benches.get(name)
        cur_entry = current_benches.get(name)
        if base_entry is None:
            report.verdicts.append(
                BenchVerdict(
                    name,
                    NEW,
                    current_s=_bench_wall(cur_entry),
                    detail="no baseline entry yet",
                )
            )
            continue
        if cur_entry is None:
            if not partial:
                report.verdicts.append(
                    BenchVerdict(
                        name,
                        REMOVED,
                        baseline_s=_bench_wall(base_entry),
                        detail="baseline entry has no bench in this run",
                    )
                )
            continue
        base = _bench_wall(base_entry)
        cur = _bench_wall(cur_entry)
        if not _usable(base) or not _usable(cur):
            report.verdicts.append(
                BenchVerdict(
                    name,
                    SKIPPED,
                    baseline_s=base if isinstance(base, (int, float)) else None,
                    current_s=cur if isinstance(cur, (int, float)) else None,
                    detail="unusable timing (NaN, zero, or negative)",
                )
            )
            continue
        delta = cur - base
        if breaches(delta, base, rel_tol, abs_floor_s):
            verdict = REGRESSION
            detail = f"+{delta / base:.1%} over baseline"
        elif breaches(-delta, base, rel_tol, abs_floor_s):
            verdict = IMPROVEMENT
            detail = f"{delta / base:.1%} under baseline"
        else:
            verdict = OK
            detail = ""
        report.verdicts.append(
            BenchVerdict(
                name, verdict, baseline_s=base, current_s=cur, detail=detail
            )
        )
    return report


def load_baseline(path: Path | str) -> dict | None:
    """Parse a baseline file; None when absent. Raises ValueError on a
    file that exists but is not a baseline payload."""
    path = Path(path)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "benches" not in data:
        raise ValueError(f"{path} is not a bench baseline file")
    return data


def baseline_from_payload(payload: dict) -> dict:
    """Distill a run payload into a committed-baseline document (flat
    medians only — sample lists and counters stay in the history files)."""
    benches = {}
    for name, record in sorted(payload.get("benches", {}).items()):
        entry = {"wall_s": _bench_wall(record)}
        cpu = record.get("cpu_s")
        if isinstance(cpu, dict):
            cpu = cpu.get("median")
        if cpu is not None:
            entry["cpu_s"] = cpu
        benches[name] = entry
    return {
        "kind": BASELINE_KIND,
        "schema_version": payload.get(
            "schema_version", BASELINE_SCHEMA_VERSION
        ),
        "git_sha": payload.get("git_sha", "unknown"),
        "created_at": time.time(),
        "rel_tol": DEFAULT_REL_TOL,
        "abs_floor_s": DEFAULT_ABS_FLOOR_S,
        "benches": benches,
    }


def write_baseline(
    path: Path | str, payload: dict, partial: bool = False
) -> Path:
    """Write the baseline for ``payload``. ``partial`` marks a filtered
    run: its rows replace their namesakes in the existing file, every
    other row of which is kept. Raises ``ValueError``, writing nothing,
    when that file exists but cannot be merged into (unreadable, or of
    another schema version): only a full run may replace it."""
    path = Path(path)
    document = baseline_from_payload(payload)
    existing = load_baseline(path) if partial else None
    if existing is not None:
        if existing.get("schema_version") != document["schema_version"]:
            raise ValueError(
                f"{path} has schema_version {existing.get('schema_version')!r}, "
                f"this run {document['schema_version']!r}: "
                "re-freeze it from an unfiltered run"
            )
        document["benches"] = {**existing["benches"], **document["benches"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def check_payload(
    payload: dict,
    baseline_path: Path | str,
    partial: bool = False,
) -> RegressionReport:
    """The ``python -m benchmarks --check`` entry: compare a run payload with
    the baseline file, folding file-level problems into report notes."""
    try:
        baseline = load_baseline(baseline_path)
    except (ValueError, json.JSONDecodeError) as error:
        report = RegressionReport()
        report.notes.append(f"baseline unreadable: {error}")
        report.verdicts.extend(
            BenchVerdict(name, NEW, current_s=_bench_wall(entry))
            for name, entry in sorted(payload.get("benches", {}).items())
        )
        return report
    if baseline is None:
        report = compare({}, payload.get("benches", {}), partial=partial)
        report.notes.append(
            f"no baseline at {baseline_path}; every bench is new — "
            f"run `python -m benchmarks --update-baseline` to create one"
        )
        return report
    rel_tol = baseline.get("rel_tol", DEFAULT_REL_TOL)
    abs_floor = baseline.get("abs_floor_s", DEFAULT_ABS_FLOOR_S)
    base_version = baseline.get("schema_version")
    run_version = payload.get("schema_version")
    if base_version != run_version:
        report = RegressionReport(rel_tol=rel_tol, abs_floor_s=abs_floor)
        report.notes.append(
            f"baseline schema_version {base_version} != run "
            f"schema_version {run_version}; timings not compared — "
            f"run `python -m benchmarks --update-baseline`"
        )
        return report
    report = compare(
        baseline.get("benches", {}),
        payload.get("benches", {}),
        rel_tol=rel_tol,
        abs_floor_s=abs_floor,
        partial=partial,
    )
    return report
