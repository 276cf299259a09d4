"""The one timing verdict: ``python -m benchmarks.e2e compare A.json B.json``.

A row is ``worse`` when B's median is worse than A's by more than the
metric's ``BENCHMARK.json`` bound, ``unresolved`` when either side spreads
wider than the bound, ``ok`` otherwise; the exit status is 1 when any row
is ``worse``. These are the edges a regression gate has to get right:
the boundary, the direction, noise, and rows one side lacks.
"""

from __future__ import annotations

import io
import json

import pytest

from benchmarks.e2e import cli
from benchmarks.e2e.compare import compare_files, spread, verdict
from benchmarks.e2e.harness import bench_spec

LOWER = {"name": "checkout_p50_ms", "better": "lower", "bound": 0.1}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
STEADY = [10.0, 10.1, 9.9, 10.0]


def spec(*metrics: dict, workloads=("hot_read",)) -> dict:
    return {
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": list(metrics),
    }


def write(path, runs: list[tuple[str, dict]]) -> str:
    """A ``run --repeat N --out`` document: one run per (workload, metrics)."""
    document = {
        "runs": [
            {"workload": workload, "end_to_end": metrics}
            for workload, metrics in runs
        ]
    }
    path.write_text(json.dumps(document))
    return str(path)


def compared(tmp_path, a_runs, b_runs, the_spec) -> tuple[int, list[list[str]]]:
    """Exit status and the table's rows, split into fields."""
    out = io.StringIO()
    status = compare_files(
        write(tmp_path / "a.json", a_runs),
        write(tmp_path / "b.json", b_runs),
        the_spec,
        out=out,
    )
    header, *rows = out.getvalue().splitlines()
    assert header.split()[:2] == ["workload", "metric"]
    return status, [row.split() for row in rows]


# -- one row's verdict ----------------------------------------------------
def test_within_the_bound_is_ok():
    assert verdict(STEADY, [10.8, 10.9, 10.7, 10.8], LOWER) == "ok"


def test_just_past_the_bound_is_worse():
    assert verdict([1.0], [1.101], LOWER) == "worse"


def test_exactly_at_the_bound_is_ok():
    # The comparison is strict; 0.25 keeps the product exactly representable.
    assert verdict([1.0], [1.25], {**LOWER, "bound": 0.25}) == "ok"
    assert verdict([1.0], [0.75], {**HIGHER, "bound": 0.25}) == "ok"


def test_three_x_slowdown_is_worse():
    assert verdict([0.010], [0.030], LOWER) == "worse"


def test_an_improvement_is_never_worse():
    assert verdict(STEADY, [5.0, 5.1, 4.9, 5.0], LOWER) == "ok"
    assert verdict(STEADY, [20.0, 20.1, 19.9, 20.0], HIGHER) == "ok"


def test_higher_is_better_flags_a_drop():
    assert verdict(STEADY, [8.0, 8.1, 7.9, 8.0], HIGHER) == "worse"
    assert verdict(STEADY, [8.0, 8.1, 7.9, 8.0], LOWER) == "ok"


def test_a_wide_spread_on_either_side_is_unresolved():
    noisy = [7.0, 10.0, 13.0, 10.0]
    assert verdict(noisy, STEADY, LOWER) == "unresolved"
    assert verdict(STEADY, noisy, LOWER) == "unresolved"


def test_noise_never_hides_a_regression():
    assert verdict(STEADY, [15.0, 20.0, 25.0, 20.0], LOWER) == "worse"


def test_the_median_decides_so_one_outlier_is_not_worse():
    assert verdict([10.0] * 5, [10.0, 10.0, 10.0, 10.0, 1000.0], LOWER) == "unresolved"


def test_spread_is_the_interquartile_range_over_the_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert spread([5.0]) == 0.0
    assert spread([]) == 0.0
    assert spread([0.0, 0.0, 0.0]) == 0.0
    assert spread([4.0, 4.0, 4.0]) == 0.0


@pytest.mark.parametrize(
    "metric", bench_spec()["end_to_end"], ids=lambda metric: metric["name"]
)
def test_every_declared_metric_is_gated_at_its_bound(metric):
    """Each end-to-end metric of ``BENCHMARK.json`` has a bound the gate
    can use, and a change past it in the bad direction is ``worse``."""
    assert metric["better"] in ("lower", "higher")
    assert 0 < metric["bound"] < 1
    sign = 1 if metric["better"] == "lower" else -1
    past = 100.0 * (1 + sign * metric["bound"] * 1.5)
    within = 100.0 * (1 + sign * metric["bound"] * 0.5)
    assert verdict([100.0], [past], metric) == "worse"
    assert verdict([100.0], [within], metric) == "ok"
    assert verdict([past], [100.0], metric) == "ok"


# -- two result files -----------------------------------------------------
def test_a_file_compared_with_itself_passes(tmp_path):
    runs = [("hot_read", {"checkout_p50_ms": v}) for v in STEADY]
    status, rows = compared(tmp_path, runs, runs, spec(LOWER))
    assert status == 0
    assert [row[-1] for row in rows] == ["ok"]


def test_one_worse_row_fails_the_whole_comparison(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": 10.0, "ops_per_s": 100.0})]
    b = [("hot_read", {"checkout_p50_ms": 10.0, "ops_per_s": 50.0})]
    status, rows = compared(tmp_path, a, b, spec(LOWER, HIGHER))
    assert status == 1
    assert [(row[1], row[-1]) for row in rows] == [
        ("checkout_p50_ms", "ok"),
        ("ops_per_s", "worse"),
    ]


def test_unresolved_rows_do_not_fail_the_comparison(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": v}) for v in STEADY]
    b = [("hot_read", {"checkout_p50_ms": v}) for v in (7.0, 10.0, 13.0, 10.0)]
    status, rows = compared(tmp_path, a, b, spec(LOWER))
    assert status == 0
    assert [row[-1] for row in rows] == ["unresolved"]


def test_a_metric_one_file_lacks_gets_no_row(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": 10.0, "ops_per_s": 100.0})]
    b = [("hot_read", {"checkout_p50_ms": 10.0})]
    status, rows = compared(tmp_path, a, b, spec(LOWER, HIGHER))
    assert status == 0
    assert [row[1] for row in rows] == ["checkout_p50_ms"]
    status, rows = compared(tmp_path, b, a, spec(LOWER, HIGHER))
    assert [row[1] for row in rows] == ["checkout_p50_ms"]


def test_a_null_value_is_skipped_not_a_regression(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": 10.0}), ("hot_read", {"checkout_p50_ms": 10.0})]
    b = [("hot_read", {"checkout_p50_ms": None}), ("hot_read", {"checkout_p50_ms": 10.5})]
    status, rows = compared(tmp_path, a, b, spec(LOWER))
    assert status == 0
    assert rows == [["hot_read", "checkout_p50_ms", "10", "10.5", "0.0000",
                     "0.0000", "0.1", "ok"]]
    status, rows = compared(
        tmp_path, a, [("hot_read", {"checkout_p50_ms": None})], spec(LOWER)
    )
    assert (status, rows) == (0, [])


def test_only_the_declared_workloads_and_metrics_are_compared(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": 10.0, "made_up_ms": 1.0}),
         ("made_up", {"checkout_p50_ms": 10.0})]
    b = [("hot_read", {"checkout_p50_ms": 10.0, "made_up_ms": 9.0}),
         ("made_up", {"checkout_p50_ms": 90.0})]
    status, rows = compared(tmp_path, a, b, spec(LOWER))
    assert status == 0
    assert [row[:2] for row in rows] == [["hot_read", "checkout_p50_ms"]]


def test_rows_follow_the_declared_order(tmp_path):
    runs = [
        ("cold_read", {"ops_per_s": 1.0, "checkout_p50_ms": 1.0}),
        ("hot_read", {"ops_per_s": 1.0, "checkout_p50_ms": 1.0}),
    ]
    the_spec = spec(LOWER, HIGHER, workloads=("hot_read", "cold_read"))
    _status, rows = compared(tmp_path, runs, runs, the_spec)
    assert [row[:2] for row in rows] == [
        ["hot_read", "checkout_p50_ms"],
        ["hot_read", "ops_per_s"],
        ["cold_read", "checkout_p50_ms"],
        ["cold_read", "ops_per_s"],
    ]


def test_each_metric_is_judged_at_its_own_bound(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": 10.0})]
    b = [("hot_read", {"checkout_p50_ms": 14.0})]
    assert compared(tmp_path, a, b, spec(LOWER))[0] == 1
    loose = {**LOWER, "bound": 0.5}
    status, rows = compared(tmp_path, a, b, spec(loose))
    assert status == 0
    assert rows[0][-2:] == ["0.5", "ok"]


def test_the_medians_of_repeated_runs_are_compared(tmp_path):
    a = [("hot_read", {"checkout_p50_ms": v}) for v in (9.0, 10.0, 11.0)]
    b = [("hot_read", {"checkout_p50_ms": v}) for v in (10.0, 10.0, 10.5)]
    _status, rows = compared(tmp_path, a, b, spec({**LOWER, "bound": 0.25}))
    assert rows[0][2:4] == ["10", "10"]


# -- the command ----------------------------------------------------------
def test_the_command_exits_with_the_verdict(tmp_path):
    """``compare`` judges against the repository's own ``BENCHMARK.json``."""
    workload = bench_spec()["workloads"][0]["name"]
    a = write(tmp_path / "a.json", [(workload, {"checkout_p50_ms": 10.0})] * 3)
    b = write(tmp_path / "b.json", [(workload, {"checkout_p50_ms": 30.0})] * 3)
    assert cli.main(["compare", a, a]) == 0
    assert cli.main(["compare", a, b]) == 1
    assert cli.main(["compare", b, a]) == 0


def test_the_command_wants_two_files(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["compare", "only-one.json"])
    assert exit_info.value.code == 2
    assert "the following arguments are required: b" in capsys.readouterr().err
