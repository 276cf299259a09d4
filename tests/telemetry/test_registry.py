"""Registry semantics: counters, gauges, histograms, spans, thread
safety, and the disabled no-op fast path."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import telemetry
from repro.telemetry.registry import RESERVOIR_CAP, Histogram, Registry
from repro.telemetry.snapshot import Snapshot


class TestCounters:
    def test_increment_and_snapshot(self):
        telemetry.enable()
        telemetry.count("rows")
        telemetry.count("rows", 4)
        assert telemetry.snapshot().counters["rows"] == 5

    def test_counters_reader_keeps_non_zero_names_with_the_prefix(self):
        registry = Registry(enabled=True)
        for name, amount in (("a.x", 2), ("a.zero", 0), ("b.y", 1)):
            registry.inc(name, amount)
        assert registry.counters("a.") == {"a.x": 2}
        assert registry.counters() == {"a.x": 2, "b.y": 1}

    def test_disabled_records_nothing(self):
        telemetry.disable()
        telemetry.count("rows", 100)
        telemetry.gauge("depth", 3)
        telemetry.observe("latency", 0.5)
        assert telemetry.snapshot().is_empty()

    def test_reset_clears_but_keeps_enabled(self):
        telemetry.enable()
        telemetry.count("rows")
        telemetry.reset()
        assert telemetry.snapshot().is_empty()
        assert telemetry.is_enabled()


class TestGauges:
    def test_last_value_wins(self):
        telemetry.enable()
        telemetry.gauge("partitions", 4)
        telemetry.gauge("partitions", 9)
        assert telemetry.snapshot().gauges["partitions"] == 9


class TestHistogram:
    def test_summary_math(self):
        h = Histogram("x")
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            h.add(value)
        s = h.summary()
        assert s["count"] == 5
        assert s["total"] == 15.0
        assert s["min"] == 1.0
        assert s["max"] == 5.0
        assert s["p50"] == 3.0
        assert s["p95"] == 5.0

    def test_reservoir_decimation_keeps_count_exact(self):
        h = Histogram("x")
        n = RESERVOIR_CAP * 3
        for i in range(n):
            h.add(float(i))
        s = h.summary()
        assert s["count"] == n
        assert s["min"] == 0.0
        assert s["max"] == float(n - 1)
        assert len(h.values) < RESERVOIR_CAP
        assert h.stride > 1
        # Decimation is even, so the median estimate stays close.
        assert abs(s["p50"] - n / 2) / n < 0.05

    def test_empty_percentile_is_none(self):
        h = Histogram("x")
        assert h.percentile(0.5) is None
        assert h.summary()["min"] is None


class TestSpans:
    def test_nesting_builds_tree(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        root = telemetry.last_span_tree()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.duration_s is not None

    def test_exception_closes_span_with_error_status(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("bad")
        root = telemetry.last_span_tree()
        assert root.status == "error"
        assert "bad" in root.error
        assert telemetry.snapshot().spans["boom"]["errors"] == 1
        # The contextvar was reset: a new span is again a root.
        with telemetry.span("after"):
            pass
        assert telemetry.last_span_tree().name == "after"

    def test_current_span_attrs(self):
        telemetry.enable()
        with telemetry.span("work", dataset="d"):
            node = telemetry.current_span()
            node.set_attr("vid", 7)
        root = telemetry.last_span_tree()
        assert root.attrs == {"dataset": "d", "vid": 7}
        assert "vid=7" in root.render()

    def test_disabled_span_is_shared_noop(self):
        telemetry.disable()
        assert telemetry.span("a") is telemetry.span("b")
        with telemetry.span("a"):
            assert telemetry.current_span() is None
        assert telemetry.last_span_tree() is None

    def test_span_durations_aggregate_per_name(self):
        telemetry.enable()
        for _ in range(3):
            with telemetry.span("step"):
                pass
        stats = telemetry.snapshot().spans["step"]
        assert stats["count"] == 3
        assert stats["errors"] == 0
        assert stats["seconds"]["count"] == 3


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self):
        registry = Registry(enabled=True)
        per_thread = 2000

        def work():
            for _ in range(per_thread):
                registry.inc("hits")
                registry.observe("lat", 1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_value("hits") == 8 * per_thread
        assert registry.snapshot().histograms["lat"]["count"] == 8 * per_thread


class TestSnapshotMerge:
    """Snapshots no longer merge: one registry holds what ``orpheus
    stats`` mines, and its snapshot serializes as it is."""

    def test_json_round_trip(self):
        telemetry.enable()
        telemetry.count("c", 3)
        telemetry.observe("h", 1.5)
        with telemetry.span("s"):
            pass
        snap = telemetry.snapshot()
        assert json.loads(snap.to_json()) == snap.to_dict()


class TestRenderers:
    def test_prometheus_format(self):
        telemetry.enable()
        telemetry.count("command.checkout.rows", 12)
        telemetry.observe("cvd.checkout.latency_seconds", 0.25)
        with telemetry.span("cli.checkout"):
            pass
        text = telemetry.snapshot().render_prometheus()
        assert "# TYPE repro_command_checkout_rows counter" in text
        assert "repro_command_checkout_rows 12" in text
        assert (
            'repro_cvd_checkout_latency_seconds{quantile="0.5"} 0.25' in text
        )
        assert "repro_span_cli_checkout_seconds_count 1" in text

    def test_text_render_mentions_everything(self):
        telemetry.enable()
        telemetry.count("c", 1)
        telemetry.gauge("g", 2)
        telemetry.observe("h", 3.0)
        with telemetry.span("s"):
            pass
        text = telemetry.snapshot().render_text()
        for token in ("c", "g", "h", "s", "counters", "gauges"):
            assert token in text

    def test_empty_render(self):
        assert Snapshot().render_text() == "no telemetry recorded\n"
        assert Snapshot().render_prometheus() == ""


class TestLogBridge:
    def test_emits_one_json_line_per_span(self):
        telemetry.enable()
        stream = io.StringIO()
        telemetry.log.enable(stream)
        with telemetry.span("outer"):
            with telemetry.span("inner", vid=3):
                pass
        telemetry.log.disable()
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [l["name"] for l in lines] == ["inner", "outer"]
        assert lines[0]["parent"] == "outer"
        assert lines[0]["attrs"] == {"vid": 3}
        assert all(l["event"] == "span" for l in lines)

    def test_disabled_bridge_emits_nothing(self):
        telemetry.enable()
        stream = io.StringIO()
        telemetry.log.enable(stream)
        telemetry.log.disable()
        with telemetry.span("quiet"):
            pass
        assert stream.getvalue() == ""
