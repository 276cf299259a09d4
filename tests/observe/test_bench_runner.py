"""The unified benchmark runner end to end, against a stub registry.

The stub bench sleeps for a test-controlled duration, so these tests
prove the acceptance contract directly: an injected 3x slowdown makes
``orpheus bench --check`` exit non-zero, while <=10% jitter on the same
bench is tolerated.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks import registry, runner
from benchmarks.registry import BenchSpec
from repro import cli, telemetry

#: Controlled by each test; the stub bench sleeps this long per run.
DURATION = {"s": 0.05}


def _stub_sleep():
    time.sleep(DURATION["s"])


def _stub_counting():
    telemetry.count("stub.rows", 100)


@pytest.fixture
def stub_suite(monkeypatch):
    """An isolated registry holding only the stub benches, with module
    discovery disabled so the real bench suite never loads."""
    was_enabled = telemetry.is_enabled()
    monkeypatch.setattr(registry, "REGISTRY", {})
    monkeypatch.setattr(runner, "discover", lambda: [])
    registry.register(
        BenchSpec("stub/sleep", _stub_sleep, repeats=3, warmup=0)
    )
    registry.register(
        BenchSpec(
            "stub/rows",
            _stub_counting,
            repeats=4,
            warmup=1,
            counters=("stub.",),
        )
    )
    DURATION["s"] = 0.05
    yield
    telemetry.reset()
    if was_enabled:
        telemetry.enable()
    else:
        telemetry.disable()


def run_main(tmp_path, *extra, baseline=None):
    argv = ["--no-write", "--repo-root", str(tmp_path)]
    if baseline is not None:
        argv += ["--baseline", str(baseline)]
    return runner.main(argv + list(extra))


# --- registry ---------------------------------------------------------


def test_registry_rejects_duplicates_and_flat_names(stub_suite):
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(BenchSpec("stub/sleep", _stub_sleep))
    with pytest.raises(ValueError, match="group"):
        registry.register(BenchSpec("noslash", _stub_sleep))


def test_benches_filters_by_pattern(stub_suite):
    assert [s.name for s in registry.benches(pattern="rows")] == [
        "stub/rows"
    ]
    assert [s.name for s in registry.benches()] == [
        "stub/rows",
        "stub/sleep",
    ]


# --- payload shape ----------------------------------------------------


def test_payload_schema_fields(stub_suite):
    payload = runner.run_benches(pattern="stub/rows")
    assert payload["kind"] == runner.BENCH_KIND
    assert payload["schema_version"] == runner.BENCH_SCHEMA_VERSION
    assert "git_sha" in payload and "created_at" in payload
    assert set(payload["host"]) == {"python", "platform"}
    record = payload["benches"]["stub/rows"]
    assert set(record["wall_s"]) == {"median", "min", "max", "samples"}
    assert "cpu_s" in record
    assert record["tags"] == [registry.QUICK]


def test_counters_normalized_per_run(stub_suite):
    payload = runner.run_benches(pattern="stub/rows")
    record = payload["benches"]["stub/rows"]
    # 4 measured runs x 100 rows, divided by 4; the warmup run was
    # excluded by the post-warmup telemetry reset.
    assert record["counters"]["stub.rows"] == pytest.approx(100)


def test_run_benches_restores_telemetry_state(stub_suite):
    telemetry.disable()
    runner.run_benches(pattern="stub/rows")
    assert not telemetry.is_enabled()
    telemetry.enable()
    runner.run_benches(pattern="stub/rows")
    assert telemetry.is_enabled()


def test_write_payload_emits_root_and_history_copies(stub_suite, tmp_path):
    payload = runner.run_benches(pattern="stub/rows")
    paths = runner.write_payload(payload, tmp_path)
    assert paths[0] == tmp_path / f"BENCH_{payload['git_sha']}.json"
    assert paths[1].parent == tmp_path / "results" / "bench_history"
    loaded = json.loads(paths[0].read_text())
    assert loaded == json.loads(paths[1].read_text())
    assert loaded["kind"] == runner.BENCH_KIND


# --- CLI surface ------------------------------------------------------


def test_main_list_and_no_match(stub_suite, tmp_path, capsys):
    assert run_main(tmp_path, "--list") == 0
    assert "stub/sleep" in capsys.readouterr().out
    assert run_main(tmp_path, "--filter", "nothing-matches") == 2


def test_main_writes_bench_json(stub_suite, tmp_path):
    code = runner.main(
        ["--repo-root", str(tmp_path), "--filter", "stub/rows"]
    )
    assert code == 0
    written = list(tmp_path.glob("BENCH_*.json"))
    assert len(written) == 1
    assert json.loads(written[0].read_text())["schema_version"] == 1


def test_update_baseline_writes_file(stub_suite, tmp_path):
    baseline = tmp_path / "baselines.json"
    code = run_main(
        tmp_path,
        "--filter",
        "stub/rows",
        "--update-baseline",
        baseline=baseline,
    )
    assert code == 0
    doc = json.loads(baseline.read_text())
    assert doc["kind"] == "orpheus-bench-baseline"
    assert "stub/rows" in doc["benches"]


def test_filtered_update_baseline_keeps_unfiltered_rows(stub_suite, tmp_path):
    baseline = tmp_path / "baselines.json"
    assert run_main(tmp_path, "--update-baseline", baseline=baseline) == 0
    before = json.loads(baseline.read_text())["benches"]
    assert set(before) == {"stub/rows", "stub/sleep"}
    DURATION["s"] = 0.08
    assert (
        run_main(
            tmp_path, "--filter", "stub/sleep", "--update-baseline",
            baseline=baseline,
        )
        == 0
    )
    after = json.loads(baseline.read_text())["benches"]
    assert after["stub/rows"] == before["stub/rows"]
    assert after["stub/sleep"]["wall_s"] > before["stub/sleep"]["wall_s"]
    # A file the filtered run cannot merge into is left as it is.
    baseline.write_text("{not json")
    assert (
        run_main(
            tmp_path, "--filter", "stub/sleep", "--update-baseline",
            baseline=baseline,
        )
        == 2
    )
    assert baseline.read_text() == "{not json"


def test_check_applies_the_same_run_gates(stub_suite, tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baselines.json"
    assert run_main(tmp_path, "--update-baseline", baseline=baseline) == 0
    monkeypatch.setattr(
        runner, "RELATIONAL_GATES", (("stub/sleep", "stub/rows", 1.10),)
    )
    capsys.readouterr()
    assert run_main(tmp_path, "--check", baseline=baseline) == 1  # 50 ms vs ~0
    assert "stub/sleep <= 1.1x stub/rows" in capsys.readouterr().out
    monkeypatch.setattr(
        runner, "RELATIONAL_GATES", (("stub/rows", "stub/sleep", 1.10),)
    )
    assert run_main(tmp_path, "--check", baseline=baseline) == 0


def test_same_run_gate_fails_even_under_warn_only(
    stub_suite, tmp_path, monkeypatch, capsys
):
    """A ratio of two benches of one run does not depend on the
    machine, so --warn-only (for the frozen baselines) does not excuse
    it; a factor < 1 gate passes, fails, and abstains like any other."""
    baseline = tmp_path / "baselines.json"
    assert run_main(tmp_path, "--update-baseline", baseline=baseline) == 0
    check = ("--check", "--warn-only")
    monkeypatch.setattr(
        runner, "RELATIONAL_GATES", (("stub/sleep", "stub/rows", 0.6),)
    )
    capsys.readouterr()
    assert run_main(tmp_path, *check, baseline=baseline) == 1
    assert "stub/sleep <= 0.6x stub/rows" in capsys.readouterr().out
    monkeypatch.setattr(
        runner, "RELATIONAL_GATES", (("stub/rows", "stub/sleep", 0.6),)
    )
    assert run_main(tmp_path, *check, baseline=baseline) == 0
    assert "stub/rows <= 0.6x stub/sleep" in capsys.readouterr().out
    # One side filtered out of the run: the gate says nothing.
    assert (
        run_main(tmp_path, "--filter", "stub/rows", *check, baseline=baseline)
        == 0
    )
    assert "0.6x" not in capsys.readouterr().out


# --- regression gating (the acceptance contract) ----------------------


def test_injected_3x_slowdown_fails_check(stub_suite, tmp_path, capsys):
    baseline = tmp_path / "baselines.json"
    DURATION["s"] = 0.05
    assert (
        run_main(
            tmp_path,
            "--filter",
            "stub/sleep",
            "--update-baseline",
            baseline=baseline,
        )
        == 0
    )

    # <=10% jitter (4% nominal; sleep overshoot stays well inside the
    # band at this scale) must pass...
    DURATION["s"] = 0.052
    assert (
        run_main(
            tmp_path, "--filter", "stub/sleep", "--check", baseline=baseline
        )
        == 0
    )

    # ...while a 3x slowdown must flag and exit non-zero.
    DURATION["s"] = 0.15
    capsys.readouterr()
    code = run_main(
        tmp_path, "--filter", "stub/sleep", "--check", baseline=baseline
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[REGRESSION" in out
    assert "stub/sleep" in out


def test_warn_only_reports_but_exits_zero(stub_suite, tmp_path, capsys):
    baseline = tmp_path / "baselines.json"
    DURATION["s"] = 0.05
    run_main(
        tmp_path,
        "--filter",
        "stub/sleep",
        "--update-baseline",
        baseline=baseline,
    )
    DURATION["s"] = 0.15
    capsys.readouterr()
    code = run_main(
        tmp_path,
        "--filter",
        "stub/sleep",
        "--check",
        "--warn-only",
        baseline=baseline,
    )
    assert code == 0
    assert "[REGRESSION" in capsys.readouterr().out


def test_check_without_baseline_passes(stub_suite, tmp_path, capsys):
    code = run_main(
        tmp_path,
        "--filter",
        "stub/rows",
        "--check",
        baseline=tmp_path / "absent.json",
    )
    assert code == 0
    assert "no baseline" in capsys.readouterr().out


def test_orpheus_bench_forwards_to_runner(stub_suite, tmp_path, capsys):
    """The ``orpheus bench --check`` path itself — the CLI must forward
    flags to the runner and propagate its exit code."""
    baseline = tmp_path / "baselines.json"
    DURATION["s"] = 0.05
    assert (
        cli.main(
            [
                "bench",
                "--no-write",
                "--filter",
                "stub/sleep",
                "--update-baseline",
                "--baseline",
                str(baseline),
            ]
        )
        == 0
    )
    DURATION["s"] = 0.15
    capsys.readouterr()
    code = cli.main(
        [
            "bench",
            "--no-write",
            "--filter",
            "stub/sleep",
            "--check",
            "--baseline",
            str(baseline),
        ]
    )
    assert code == 1
    assert "[REGRESSION" in capsys.readouterr().out
