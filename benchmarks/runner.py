"""The unified benchmark runner behind ``python -m benchmarks``.

Discovers every ``benchmarks/bench_*.py`` module (each registers its
runner-executable units via :mod:`benchmarks.registry`), runs them
with shared warmup + median-of-k measurement
(:func:`benchmarks.common.measure`), and emits a schema-versioned
result file:

* ``BENCH_<git-sha>.json`` at the repository root — the performance
  trajectory snapshot every PR is judged against;
* a copy under ``results/bench_history/`` so successive runs
  accumulate into a comparable series.

Per bench it records median/min/max wall seconds, median CPU seconds,
the process RSS high-water mark, and the telemetry counters the bench
declared (rows moved, join volumes, ...), normalized to one run.

Regression gating (``--check`` / ``--update-baseline``) delegates to
:mod:`repro.observe.regress` against ``benchmarks/baselines.json``;
``--check`` also says when that file no longer matches the registered
benches (:func:`stale_baseline_notes`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks import registry
from benchmarks.common import measure
from repro import telemetry

#: Version of the BENCH_*.json payload layout. Bump on breaking shape
#: changes; the regression gate refuses to compare across versions.
BENCH_SCHEMA_VERSION = 1

#: Marker distinguishing our payloads from other JSON lying around.
BENCH_KIND = "orpheus-bench"

_PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = _PACKAGE_DIR.parent
DEFAULT_BASELINE = _PACKAGE_DIR / "baselines.json"
HISTORY_DIRNAME = Path("results") / "bench_history"

def discover() -> list[str]:
    """Import every bench module so its units register; returns the
    module names imported. Import errors propagate — a bench module
    that cannot import is a broken suite, not a skippable bench."""
    names = []
    for path in sorted(_PACKAGE_DIR.glob("bench_*.py")):
        name = f"benchmarks.{path.stem}"
        importlib.import_module(name)
        names.append(name)
    return names


def stale_baseline_notes(baseline_path: Path) -> list[str]:
    """The baseline's rows against the registered benches, whatever
    this run's ``--filter``: quick benches with no row
    (unbaselined) and rows with no quick bench (orphaned). A missing,
    unreadable or other-schema baseline is
    :func:`repro.observe.regress.check_payload`'s to report."""
    from repro.observe import regress

    try:
        baseline = regress.load_baseline(baseline_path)
    except (ValueError, json.JSONDecodeError):
        return []
    if baseline is None:
        return []
    if baseline.get("schema_version") != BENCH_SCHEMA_VERSION:
        return []
    registered = {spec.name for spec in registry.benches()}
    rows = set(baseline.get("benches", {}))
    notes = []
    if registered - rows:
        notes.append(
            f"baseline is stale: {len(registered - rows)} quick bench(es) "
            f"unbaselined ({', '.join(sorted(registered - rows))}) — run "
            f"`python -m benchmarks --update-baseline`"
        )
    if rows - registered:
        notes.append(
            f"baseline is stale: {len(rows - registered)} orphaned "
            f"entr(ies) with no quick bench ({', '.join(sorted(rows - registered))})"
        )
    return notes


def git_sha(repo_root: Path = REPO_ROOT) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _max_rss_kb() -> int | None:
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, kilobytes on Linux
        rss //= 1024
    return int(rss)


def run_spec(spec: registry.BenchSpec, repeats: int | None = None) -> dict:
    """Execute one bench unit and return its result record.

    Setup is untimed; warmup runs are excluded from both the timing
    samples and the exported counters (the registry is reset after
    warmup, so counters describe measured runs only, divided down to
    one run).
    """
    state = spec.setup() if spec.setup is not None else None
    args = () if state is None else (state,)
    k = repeats if repeats is not None else spec.repeats
    for _ in range(spec.warmup):
        spec.fn(*args)
    telemetry.reset()
    m = measure(spec.fn, *args, repeats=k, warmup=0)
    counters = {}
    if spec.counters:
        snapshot = telemetry.snapshot()
        for name, value in sorted(snapshot.counters.items()):
            if any(name.startswith(prefix) for prefix in spec.counters):
                counters[name] = value / k
    record = m.to_dict()
    rss = _max_rss_kb()
    if rss is not None:
        record["max_rss_kb"] = rss
    if counters:
        record["counters"] = counters
    return record


def run_benches(
    pattern: str | None = None,
    repeats: int | None = None,
    echo=None,
) -> dict:
    """Run the selected benches and return the full payload dict."""
    specs = registry.benches(pattern)
    was_enabled = telemetry.is_enabled()
    telemetry.enable()
    benches = {}
    try:
        for spec in specs:
            if echo:
                echo(f"bench {spec.name} ...")
            started = time.perf_counter()
            benches[spec.name] = run_spec(spec, repeats)
            if echo:
                wall = benches[spec.name]["wall_s"]["median"]
                echo(
                    f"bench {spec.name}: median {wall:.6f}s "
                    f"(ran in {time.perf_counter() - started:.2f}s)"
                )
    finally:
        telemetry.reset()
        if not was_enabled:
            telemetry.disable()
    return {
        "kind": BENCH_KIND,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "created_at": time.time(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "benches": benches,
    }


def write_payload(payload: dict, repo_root: Path = REPO_ROOT) -> list[Path]:
    """Write ``BENCH_<sha>.json`` at the repo root and mirror it into
    ``results/bench_history/``; returns the paths written."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    root_path = repo_root / f"BENCH_{payload['git_sha']}.json"
    history_dir = repo_root / HISTORY_DIRNAME
    history_dir.mkdir(parents=True, exist_ok=True)
    history_path = history_dir / root_path.name
    root_path.write_text(text)
    history_path.write_text(text)
    return [root_path, history_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Unified benchmark runner with JSON trajectory "
        "output and baseline regression gating.",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only benches whose name contains SUBSTR",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override each bench's measured-run count",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benches and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full result payload to stdout",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="skip writing BENCH_<sha>.json / results/bench_history/",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline; exit 1 on "
        "confirmed regressions",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="with --check: report regressions against the frozen "
        "baseline but exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from this run's medians "
        "(with --filter: only the rows that ran)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline file (default benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--repo-root",
        type=Path,
        default=REPO_ROOT,
        help=argparse.SUPPRESS,  # test hook: where BENCH_*.json lands
    )
    args = parser.parse_args(argv)

    discover()
    if args.list:
        for spec in registry.benches(args.filter):
            sys.stdout.write(
                f"{spec.name}  repeats={spec.repeats} warmup={spec.warmup}\n"
            )
        return 0

    echo = lambda msg: sys.stderr.write(msg + "\n")
    payload = run_benches(args.filter, args.repeats, echo=echo)
    if not payload["benches"]:
        sys.stderr.write("no benches matched\n")
        return 2
    if not args.no_write:
        for path in write_payload(payload, args.repo_root):
            echo(f"wrote {path}")
    if args.json:
        sys.stdout.write(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    from repro.observe import regress

    if args.update_baseline:
        try:
            regress.write_baseline(
                args.baseline, payload, partial=args.filter is not None
            )
        except ValueError as exc:  # nothing to merge a filtered run into
            sys.stderr.write(f"baseline not updated: {exc}\n")
            return 2
        echo(f"baseline updated: {args.baseline}")
        return 0
    if args.check:
        report = regress.check_payload(
            payload, args.baseline, partial=args.filter is not None
        )
        report.notes.extend(stale_baseline_notes(args.baseline))
        sys.stdout.write(report.render_text())
        if report.has_regressions and not args.warn_only:
            return 1
        if report.has_regressions:
            echo("warn-only mode: regressions reported, exit 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
