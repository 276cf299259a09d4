"""Edge cases of the noise-aware benchmark regression detector."""

from __future__ import annotations

import json
import math

import pytest

from repro.observe import regress
from repro.observe.regress import (
    IMPROVEMENT,
    NEW,
    OK,
    REGRESSION,
    REMOVED,
    SKIPPED,
    check_payload,
    compare,
    load_baseline,
    write_baseline,
)


def bench(wall, cpu=None):
    entry = {"wall_s": {"median": wall, "min": wall, "max": wall}}
    if cpu is not None:
        entry["cpu_s"] = {"median": cpu}
    return entry


def payload(benches, schema_version=regress.BASELINE_SCHEMA_VERSION):
    return {
        "kind": "orpheus-bench",
        "schema_version": schema_version,
        "git_sha": "deadbeef",
        "benches": benches,
    }


def verdict_of(report, name):
    return next(v for v in report.verdicts if v.name == name)


def test_within_tolerance_is_ok():
    report = compare({"a": {"wall_s": 1.0}}, {"a": bench(1.08)})
    assert verdict_of(report, "a").verdict == OK
    assert not report.has_regressions
    assert report.exit_code == 0


def test_three_x_slowdown_is_regression():
    report = compare({"a": {"wall_s": 0.010}}, {"a": bench(0.030)})
    v = verdict_of(report, "a")
    assert v.verdict == REGRESSION
    assert v.ratio == pytest.approx(3.0)
    assert report.exit_code == 1


def test_regression_exactly_at_threshold_is_ok():
    # delta == base * rel_tol: the comparison is strict, so exactly-at-
    # threshold never flags (noise lands on the boundary all the time).
    # rel_tol 0.25 keeps delta and threshold exactly representable.
    report = compare({"a": {"wall_s": 1.0}}, {"a": bench(1.25)}, rel_tol=0.25)
    assert verdict_of(report, "a").verdict == OK


def test_just_past_threshold_is_regression():
    report = compare({"a": {"wall_s": 1.0}}, {"a": bench(1.101)})
    assert verdict_of(report, "a").verdict == REGRESSION


def test_abs_floor_suppresses_fast_bench_noise():
    # 50% slower but only 0.5 ms absolute: under the 2 ms floor → OK.
    report = compare({"a": {"wall_s": 0.001}}, {"a": bench(0.0015)})
    assert verdict_of(report, "a").verdict == OK


def test_improvement_beyond_tolerance():
    report = compare({"a": {"wall_s": 1.0}}, {"a": bench(0.5)})
    v = verdict_of(report, "a")
    assert v.verdict == IMPROVEMENT
    assert report.exit_code == 0
    assert "update-baseline" in report.render_text()


def test_new_bench_without_baseline_entry():
    report = compare({}, {"a": bench(0.01)})
    assert verdict_of(report, "a").verdict == NEW
    assert report.exit_code == 0


def test_removed_bench():
    report = compare({"a": {"wall_s": 1.0}}, {})
    assert verdict_of(report, "a").verdict == REMOVED
    assert report.exit_code == 0


def test_partial_run_suppresses_removed():
    report = compare({"a": {"wall_s": 1.0}}, {}, partial=True)
    assert report.verdicts == []


def test_nan_and_zero_times_are_skipped_not_regressions():
    baseline = {
        "nan_base": {"wall_s": math.nan},
        "zero_base": {"wall_s": 0.0},
        "neg_cur": {"wall_s": 1.0},
        "nan_cur": {"wall_s": 1.0},
    }
    current = {
        "nan_base": bench(1.0),
        "zero_base": bench(1.0),
        "neg_cur": bench(-1.0),
        "nan_cur": bench(math.nan),
    }
    report = compare(baseline, current)
    assert all(v.verdict == SKIPPED for v in report.verdicts)
    assert report.exit_code == 0


def test_missing_wall_field_is_skipped():
    report = compare({"a": {"wall_s": 1.0}}, {"a": {"counters": {}}})
    assert verdict_of(report, "a").verdict == SKIPPED


def test_check_payload_no_baseline_file(tmp_path):
    report = check_payload(
        payload({"a": bench(0.01)}), tmp_path / "baselines.json"
    )
    assert verdict_of(report, "a").verdict == NEW
    assert any("no baseline" in note for note in report.notes)
    assert report.exit_code == 0


def test_check_payload_unreadable_baseline(tmp_path):
    path = tmp_path / "baselines.json"
    path.write_text("{not json")
    report = check_payload(payload({"a": bench(0.01)}), path)
    assert any("unreadable" in note for note in report.notes)
    assert verdict_of(report, "a").verdict == NEW
    assert report.exit_code == 0


def test_check_payload_schema_mismatch_compares_nothing(tmp_path):
    path = tmp_path / "baselines.json"
    write_baseline(path, payload({"a": bench(1.0)}))
    report = check_payload(
        payload({"a": bench(9.0)}, schema_version=99), path
    )
    assert report.verdicts == []
    assert any("schema_version" in note for note in report.notes)
    assert report.exit_code == 0


def test_write_and_load_baseline_round_trip(tmp_path):
    path = tmp_path / "baselines.json"
    write_baseline(path, payload({"a": bench(0.5, cpu=0.4)}))
    baseline = load_baseline(path)
    assert baseline["kind"] == regress.BASELINE_KIND
    assert baseline["benches"]["a"]["wall_s"] == 0.5
    assert baseline["benches"]["a"]["cpu_s"] == 0.4
    # The distilled baseline compares clean against its own source run.
    report = check_payload(payload({"a": bench(0.5)}), path)
    assert verdict_of(report, "a").verdict == OK


def test_a_partial_baseline_update_keeps_the_other_rows(tmp_path):
    path = tmp_path / "baselines.json"
    write_baseline(path, payload({"a": bench(1.0), "b": bench(2.0)}))
    write_baseline(path, payload({"b": bench(3.0), "c": bench(4.0)}), partial=True)
    benches = load_baseline(path)["benches"]
    assert {name: row["wall_s"] for name, row in benches.items()} == {
        "a": 1.0, "b": 3.0, "c": 4.0,
    }
    # A full run still replaces the file: rows it did not produce go.
    write_baseline(path, payload({"c": bench(5.0)}))
    assert set(load_baseline(path)["benches"]) == {"c"}
    # No file yet: the partial run's rows alone.
    path.unlink()
    write_baseline(path, payload({"a": bench(1.0)}), partial=True)
    assert set(load_baseline(path)["benches"]) == {"a"}


@pytest.mark.parametrize(
    "existing", ["{not json", "[]", '{"benches": {}, "schema_version": -1}']
)
def test_a_partial_update_refuses_a_file_it_cannot_merge_into(tmp_path, existing):
    """Writing the filtered rows alone would silently drop every other
    row — the bug ``partial`` exists to remove."""
    path = tmp_path / "baselines.json"
    path.write_text(existing)
    with pytest.raises(ValueError):
        write_baseline(path, payload({"a": bench(1.0)}), partial=True)
    assert path.read_text() == existing
    # An unfiltered run is how such a file gets replaced.
    write_baseline(path, payload({"a": bench(1.0)}))
    assert set(load_baseline(path)["benches"]) == {"a"}


def test_load_baseline_rejects_non_baseline_json(tmp_path):
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_baseline(path)


def test_baseline_tolerances_override_defaults(tmp_path):
    path = tmp_path / "baselines.json"
    write_baseline(path, payload({"a": bench(1.0)}))
    doc = json.loads(path.read_text())
    doc["rel_tol"] = 0.5
    path.write_text(json.dumps(doc))
    # 1.4x would regress at the default ±10% but passes at ±50%.
    report = check_payload(payload({"a": bench(1.4)}), path)
    assert verdict_of(report, "a").verdict == OK
    assert report.rel_tol == 0.5


def test_render_text_lists_every_verdict():
    report = compare(
        {"slow": {"wall_s": 0.01}, "gone": {"wall_s": 1.0}},
        {"slow": bench(0.05), "fresh": bench(0.01)},
    )
    text = report.render_text()
    assert "[REGRESSION" in text
    assert "[REMOVED" in text
    assert "[NEW" in text
    assert "1 regression(s)" in text
