"""``compare A.json B.json``: one row per workload × end-to-end metric.

Each file is a ``run --repeat N --out`` document. A row shows both
medians, the bound ``BENCHMARK.json`` fixes for the metric, and a
verdict: ``worse`` when B's median is worse than A's by more than the
bound, ``unresolved`` when either side's run-to-run spread (interquartile
range ÷ median) is wider than the bound, ``ok`` otherwise. Exit status is
1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    bound = metric["bound"]
    median_a, median_b = statistics.median(a), statistics.median(b)
    if metric["better"] == "lower":
        worse = median_b > median_a * (1 + bound)
    else:
        worse = median_b < median_a * (1 - bound)
    if worse:
        return "worse"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    return "ok"


def _values(path: str) -> dict[tuple[str, str], list[float]]:
    with open(path) as handle:
        document = json.load(handle)
    values: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        for name, value in run["end_to_end"].items():
            if value is not None:
                values.setdefault((run["workload"], name), []).append(value)
    return values


def compare_files(path_a: str, path_b: str, spec: dict, out=sys.stdout) -> int:
    a, b = _values(path_a), _values(path_b)
    worst = 0
    out.write(
        f"{'workload':<15} {'metric':<27} {'A median':>12} {'B median':>12} "
        f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict\n"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], metric)
            worst |= result == "worse"
            out.write(
                f"{workload:<15} {metric['name']:<27} "
                f"{statistics.median(a[key]):>12.6g} "
                f"{statistics.median(b[key]):>12.6g} "
                f"{spread(a[key]):>9.4f} {spread(b[key]):>9.4f} "
                f"{metric['bound']:>6}  {result}\n"
            )
    return int(worst)
