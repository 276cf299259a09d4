"""The unified benchmark runner behind ``python -m benchmarks`` and
``orpheus bench``.

Discovers every ``benchmarks/bench_*.py`` module (each registers its
runner-executable units via :mod:`benchmarks.registry`), runs the
requested tier with shared warmup + median-of-k measurement
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
:mod:`repro.observe.regress` against ``benchmarks/baselines.json``.
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

#: ``--check`` gates between two benches of the same run, ``(bench,
#: reference, factor)``: ROADMAP 1(d)'s "paged <= pickle", with the 10 %
#: its exit criterion allows at this fixture size; and the version
#: cache's reason to exist — the same number of inline checkouts must
#: cost a hit at most 0.6x a miss (0.3x measured), so a cache that
#: does nothing fails. A ratio within one run is machine-independent,
#: so these fail ``--check`` even under ``--warn-only``.
RELATIONAL_GATES = (
    ("storage/checkout_cold_paged", "storage/checkout_cold_pickle", 1.10),
    ("service/checkout_cached", "service/checkout_cold", 0.6),
)


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
    # A bench returning a dict is reporting structured results beyond
    # wall time (e.g. the service-scale ramp's per-step shed rate and
    # p99); carry it into BENCH_<sha>.json verbatim.
    if isinstance(m.result, dict):
        record["extra"] = m.result
    record["tags"] = list(spec.tags)
    return record


def run_benches(
    tag: str | None = registry.QUICK,
    pattern: str | None = None,
    repeats: int | None = None,
    echo=None,
) -> dict:
    """Run the selected benches and return the full payload dict."""
    specs = registry.benches(tag, pattern)
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
        "tier": tag or "all",
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
        "--quick",
        action="store_true",
        help="run the quick tier (the default)",
    )
    parser.add_argument(
        "--tier",
        default=None,
        metavar="TAG",
        help="run the benches carrying this tier tag instead of the "
        f"quick tier (e.g. {registry.SERVICE_SCALE})",
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
        "baseline but exit 0 (same-run gates still fail)",
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
    tier = args.tier if args.tier is not None else registry.QUICK
    if args.list:
        for spec in registry.benches(tier, args.filter):
            sys.stdout.write(
                f"{spec.name}  repeats={spec.repeats} "
                f"warmup={spec.warmup} tags={','.join(spec.tags)}\n"
            )
        return 0

    echo = lambda msg: sys.stderr.write(msg + "\n")
    payload = run_benches(tier, args.filter, args.repeats, echo=echo)
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
        gates = regress.relate(
            payload["benches"], RELATIONAL_GATES, report.abs_floor_s
        )
        report.verdicts.extend(gates)
        sys.stdout.write(report.render_text())
        gate_failed = any(v.verdict == regress.REGRESSION for v in gates)
        if gate_failed or (report.has_regressions and not args.warn_only):
            return 1
        if report.has_regressions:
            echo("warn-only mode: regressions reported, exit 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
