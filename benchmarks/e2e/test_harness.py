"""Self-tests of the benchmark harness (``pytest benchmarks/e2e``).

Not part of tier-1 (``testpaths`` stays ``tests``): these check the
harness's own arithmetic, determinism and naming, and that a ``--smoke``
run of all five workloads finishes quickly and emits exactly the
metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import io
import json
import random
import re
import time

import pytest

from benchmarks.e2e import fixtures, orpheusd, quiet
from benchmarks.e2e.compare import compare_files, spread, verdict
from benchmarks.e2e.harness import Bench, bench_spec
from benchmarks.e2e.spans import Recorder, Span, percentile, self_times, wrapped
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- arithmetic ----------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([1.0, 9.0], 0.0) == 1.0
    assert percentile([1.0, 9.0], 1.0) == 9.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_is_span_minus_covered_children():
    spans = [
        Span("t", 0, None, "root", "harness", 0, 100),
        Span("t", 1, 0, "a", "x", 10, 30),
        Span("t", 2, 0, "b", "x", 20, 50),  # overlaps a: counted once
        Span("t", 3, 0, "c", "x", 90, 120),  # clipped to the parent
        Span("t", 4, 2, "d", "y", 25, 45),
    ]
    own = self_times(spans)
    assert own[0] == 100 - (40 + 10)
    assert own[1] == 20
    assert own[2] == 30 - 20
    assert own[4] == 20


def test_recorder_nests_and_wrapped_restores_the_original():
    class Layer:
        def work(self, x):
            return x + 1

    recorder = Recorder()
    original = Layer.work
    with wrapped(recorder, [(Layer, "work", "layer.work", "layer")]):
        with recorder.span("op", "harness") as root:
            assert Layer().work(1) == 2
    assert Layer.work is original
    child = recorder.spans[1]
    assert (child.name, child.layer, child.parent) == ("layer.work", "layer", root.span_id)
    assert root.start_ns <= child.start_ns <= child.end_ns <= root.end_ns
    placed = recorder.add(root, "daemon.execute", "daemon", root.start_ns - 5, 10**12)
    assert (placed.start_ns, placed.end_ns) == (root.start_ns, root.end_ns)


# -- determinism ---------------------------------------------------------
def test_zipf_sampler_is_deterministic_per_seed_and_recent_heavy():
    def draws(seed):
        rng = random.Random(seed)
        return [fixtures.recent_version(rng, 24) for _ in range(2000)]

    first = draws(1)
    assert first == draws(1)
    assert first != draws(2)
    assert set(first) <= set(range(1, 25))
    counts = {v: first.count(v) for v in (24, 23, 1)}
    assert counts[24] > counts[23] > counts[1]


def test_oracle_is_seeded_and_rows_are_fixed_width():
    one, again, other = (fixtures.Oracle(s, fixtures.SMOKE) for s in (1, 1, 2))
    assert one.rows == again.rows
    assert one.rows != other.rows
    assert one.user_bytes() == other.user_bytes()
    spec = fixtures.SMOKE
    assert one.newest == spec.versions
    for vid in range(2, one.newest + 1):
        parent, child = set(one.rows[vid - 1]), set(one.rows[vid])
        assert len(child) == spec.rows
        assert len(parent - child) == int(spec.rows * spec.churn)
        assert list(one.rows[vid]) == sorted(one.rows[vid])


# -- compare -------------------------------------------------------------
def test_compare_verdicts_and_exit_status(tmp_path):
    lower = {"name": "checkout_p50_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.1}
    steady = [10.0, 10.1, 9.9, 10.0]
    assert spread([5.0]) == 0.0
    assert verdict(steady, [10.5, 10.6, 10.4, 10.5], lower) == "ok"
    assert verdict(steady, [11.5, 11.6, 11.4, 11.5], lower) == "worse"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], lower) == "ok"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], higher) == "worse"
    assert verdict(steady, [7.0, 10.0, 13.0, 10.0], lower) == "unresolved"

    def document(p50):
        runs = [
            {"workload": "hot_read", "end_to_end": {"checkout_p50_ms": v}}
            for v in p50
        ]
        return json.dumps({"runs": runs})

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(document(steady))
    b.write_text(document([20.0, 20.1, 19.9, 20.0]))
    out = io.StringIO()
    assert compare_files(str(a), str(a), bench_spec(), out=out) == 0
    assert compare_files(str(a), str(b), bench_spec(), out=out) == 1
    assert "worse" in out.getvalue()


# -- hygiene -------------------------------------------------------------
def test_daemon_that_never_answers_fails_loudly_and_is_reaped(tmp_path, monkeypatch):
    monkeypatch.setattr(orpheusd, "BOOT_TIMEOUT_S", 0.0)
    with pytest.raises(RuntimeError, match="orpheusd"):
        orpheusd.Daemon(str(tmp_path), cache_mb=1.0)
    assert orpheusd._live == []


def test_quiet_gate_holds_through_steal_and_remeasures_once(tmp_path, monkeypatch):
    # Each window reads cpu_ticks twice; 60 % stolen for two windows, then quiet.
    readings = iter([(0, 0), (60, 100), (60, 100), (120, 200), (120, 200), (121, 300)])
    monkeypatch.setattr(quiet, "cpu_ticks", lambda: next(readings))
    monkeypatch.setattr(quiet.time, "sleep", lambda seconds: None)
    gate = quiet.QuietGate(str(tmp_path))
    gate.hold()
    assert gate.held_s == 2 * quiet.WINDOW_S
    assert not gate.should_remeasure(0.01, pass_s=10.0)
    assert gate.should_remeasure(0.5, pass_s=10.0)
    assert not gate.should_remeasure(0.5, pass_s=10.0)  # one retry per run
    assert gate._spent() == pytest.approx(2 * quiet.WINDOW_S + 10.0)
    # The budget belongs to the checkout: a later run sees it used up.
    (tmp_path / "quiet_budget").write_text(str(quiet.CHECKOUT_BUDGET_S))
    assert not quiet.QuietGate(str(tmp_path)).should_remeasure(0.5, pass_s=10.0)


# -- names and the smoke run ---------------------------------------------
def test_benchmark_json_is_well_formed():
    spec = bench_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_metrics_quickly():
    spec = bench_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    started = time.perf_counter()
    with Bench(seed=2, smoke=True) as bench:
        results = [bench.run(name, trace=True) for name in WORKLOADS]
    assert time.perf_counter() - started < 15.0
    for result in results:
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["end_to_end"]) == end_to_end
        assert set(result["per_layer"]) == per_layer
        assert all(v is not None and v > 0 for v in result["end_to_end"].values())
    by_name = {r["workload"]: r["per_layer"] for r in results}
    assert by_name["hot_read"]["cache.hit_rate"] == 1.0
    assert by_name["cold_read"]["cache.hit_rate"] == 0.0
    assert by_name["cold_read"]["partition.count"] >= 1
    assert by_name["oneshot_pickle"]["pagestore.faults"] == 0
    assert by_name["oneshot_paged"]["pagestore.faults"] > 0
    assert by_name["collab_rw"]["cache.invalidations"] >= 1
