"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e run``     — run workloads, print every metric
``python -m benchmarks.e2e compare`` — A/B (or A/A) two result files
``python3 benchmarks/e2e/run.py``    — the ``BENCHMARK.json`` command: one
workload per call, one JSON object as the last line of standard output.

``run`` measures each workload in a fresh process through the same
``run.py`` the driver uses, so a workload's memory and CPU readings never
include what an earlier workload left in the interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from .compare import compare_files
from .harness import REFERENCE_SECONDS, WORK_DIR, Bench, bench_spec, host_info
from .workloads import WORKLOADS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="repeatable; default: all five",
    )
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    run.add_argument("--trace", action="store_true", help="add per-layer metrics")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument("--smoke", action="store_true", help="tiny fixture and counts")
    run.add_argument("--out", default=None, metavar="FILE", help="write results as JSON")
    compare = sub.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    spec = bench_spec()
    if args.command == "compare":
        return compare_files(args.a, args.b, spec)
    document = {"host": host_info(), "seconds": args.seconds, "runs": []}
    os.makedirs(WORK_DIR, exist_ok=True)
    for _ in range(args.repeat):
        for name in args.workload or list(WORKLOADS):
            result = _run_in_child(name, args)
            print_report(result, spec)
            document["runs"].append(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0 if all(run["correct"] for run in document["runs"]) else 1


def _run_in_child(name: str, args: argparse.Namespace) -> dict:
    handle, result_path = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
    os.close(handle)
    command = [
        sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        "--result", result_path,
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(command, capture_output=True, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"{name} exited {child.returncode}:\n{child.stderr}")
        with open(result_path) as result:
            return json.load(result)
    finally:
        os.unlink(result_path)


def print_report(result: dict, spec: dict, out=sys.stdout) -> None:
    """Every metric by name with its unit, sample counts beside timings."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    samples = " ".join(f"{k}={v}" for k, v in sorted(result["samples"].items()))
    out.write(
        f"== {result['workload']} seed={result['seed']} "
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} samples: {samples} "
        f"steal={result['quiet']['steal_frac']:.3f}\n"
    )
    for problem in result["problems"]:
        out.write(f"   PROBLEM: {problem}\n")
    # A traced result's per-layer table already holds the per-op report.
    second = ("per_layer", result["per_layer"]) if "per_layer" in result else (
        "ops", result["report"]
    )
    for title, metrics in (("end_to_end", result["end_to_end"]), second):
        for name, value in metrics.items():
            shown = "null" if value is None else f"{value:.6g}"
            out.write(f"   {title:<10} {name:<36} {shown:>12} {units[name]}\n")
    out.flush()


def contract_main(argv: list[str] | None = None) -> int:
    """``--workload W --seed N --seconds S --trace 0|1`` → one result
    line holding exactly the metrics ``BENCHMARK.json`` names for that
    mode (``None`` per-layer readings print as 0: the layer did nothing)."""
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fixture and counts")
    parser.add_argument("--result", default=None, metavar="FILE", help="full result as JSON")
    args = parser.parse_args(argv)
    spec = bench_spec()
    host_info()  # for its load warning
    with Bench(args.seed, smoke=args.smoke) as bench:
        result = bench.run(args.workload, args.seconds, trace=bool(args.trace))
    print_report(result, spec, out=sys.stderr)
    if args.result:
        with open(args.result, "w") as handle:
            json.dump(result, handle)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        value = result[section][metric["name"]]
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": metric["unit"],
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0
