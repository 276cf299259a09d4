"""The observability surface: ServiceMetrics rollups, the ``stats``
protocol op, the Prometheus HTTP sidecar, the bounded slow-request log,
the doctor probe over it, and the ``orpheus top`` dashboard."""

from __future__ import annotations

import dataclasses
import json
import re
import urllib.error
import urllib.request

import pytest

from repro.observe.doctor import probe_slow_requests
from repro.observe.top import render_frame, run_top
from repro.service.daemon import ServiceConfig
from repro.service.httpmon import MetricsServer
from repro.service.metrics import RECENT_CAP, ServiceMetrics
from repro.service.protocol import Request
from repro.service.tracing import RequestTrace, SlowLog

from .conftest import seed_dataset

PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def make_trace(
    op: str = "checkout",
    status: str = "ok",
    error_type: str | None = None,
    session_id: int | None = 1,
    user: str = "ada",
    dataset: str | None = "inter",
) -> RequestTrace:
    """A finished RequestTrace with all four phases marked."""
    params: dict = {}
    if dataset:
        params["dataset"] = dataset
    rtrace = RequestTrace.from_request(
        Request(op=op, params=params), session=None
    )
    rtrace.session_id = session_id
    rtrace.user = user
    rtrace.mark_admitted()
    rtrace.mark_started()
    rtrace.mark_executed()
    rtrace.mark_sent()
    rtrace.finish(status, error_type)
    return rtrace


class TestServiceMetrics:
    def test_rollups_by_op_session_dataset(self):
        metrics = ServiceMetrics()
        metrics.record(make_trace())
        metrics.record(make_trace(op="commit"))
        metrics.record(
            make_trace(status="busy", error_type="QueueFullError"),
        )
        metrics.record(
            make_trace(status="error", error_type="ValueError"),
            slow=True,
        )
        payload = metrics.to_dict(recent=8)
        assert payload["requests"] == {
            "total": 4, "errors": 1, "busy": 1, "slow": 1,
            "deadline_exceeded": 0, "degraded": 0, "worker_errors": 0,
        }
        checkout = payload["by_op"]["checkout"]
        assert checkout["count"] == 3
        assert checkout["busy"] == 1 and checkout["errors"] == 1
        assert checkout["latency"]["count"] == 3
        assert set(checkout["phases"]) == {
            "admission", "queue_wait", "execute", "serialize",
        }
        assert payload["by_session"]["1"]["count"] == 4
        assert payload["by_session"]["1"]["user"] == "ada"
        assert payload["by_dataset"]["inter"]["count"] == 4
        assert len(payload["recent"]) == 4
        assert payload["recent"][-1]["error_type"] == "ValueError"

    def test_recent_ring_is_bounded(self):
        metrics = ServiceMetrics()
        for _ in range(RECENT_CAP + 6):
            metrics.record(make_trace())
        assert len(metrics.to_dict(recent=1000)["recent"]) == RECENT_CAP

    def test_ring_keeps_finished_traces_and_renders_the_newest_on_read(self):
        metrics = ServiceMetrics()
        traces = [make_trace(op=f"op{index}") for index in range(5)]
        for rtrace in traces:
            metrics.record(rtrace)
        assert list(metrics.recent) == traces  # kept as recorded
        assert "recent" not in metrics.to_dict()
        recent = metrics.to_dict(recent=2)["recent"]
        assert [tree["op"] for tree in recent] == ["op3", "op4"]
        assert [tree["trace_id"] for tree in recent] == [
            rtrace.trace_id for rtrace in traces[-2:]
        ]

    def test_ring_size_and_daemon_waits_are_not_settable(self):
        fields = {field.name for field in dataclasses.fields(ServiceConfig)}
        assert fields.isdisjoint(
            {"recent_traces", "drain_timeout", "request_timeout"}
        )
        with pytest.raises(TypeError):
            ServiceMetrics(recent_cap=4)
        assert ServiceMetrics().recent.maxlen == RECENT_CAP

    def test_prometheus_exposition_well_formed(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            metrics.record(make_trace())
        metrics.record(make_trace(op="commit", status="error",
                                  error_type="ValueError"))
        text = metrics.render_prometheus(
            extra_counters={"cache_hits_total": 5},
            extra_gauges={"read_queue_depth": 0},
        )
        type_families = []
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE "):
                type_families.append(line.split()[2])
                continue
            if line.startswith("#"):
                continue
            assert PROM_LINE.match(line), f"malformed line: {line!r}"
            value = line.rsplit(" ", 1)[1]
            float(value)  # parses
        # TYPE declared exactly once per family.
        assert len(type_families) == len(set(type_families))
        assert "orpheusd_requests_total 4" in text
        assert "orpheusd_errors_total 1" in text
        assert "orpheusd_cache_hits_total 5" in text
        assert "orpheusd_read_queue_depth 0" in text
        assert 'orpheusd_op_requests_total{op="checkout"} 3' in text
        assert re.search(
            r'orpheusd_request_seconds\{op="checkout",quantile="0\.99"\} ',
            text,
        )
        assert re.search(
            r'orpheusd_phase_seconds\{op="checkout",phase="queue_wait",'
            r'quantile="0\.95"\} ',
            text,
        )


class TestStatsOp:
    def test_stats_payload_shape(self, workspace, daemon_factory, tmp_path):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
                stats = client.stats()
            for key in (
                "requests", "by_op", "by_session", "by_dataset",
                "server", "scheduler", "cache", "sessions", "slow",
                "uptime_s",
            ):
                assert key in stats, f"stats missing {key!r}"
            assert "recent" not in stats  # only on request
            assert stats["requests"]["total"] >= 1
            assert stats["server"]["pid"] > 0
            assert stats["slow"]["count"] == 0
            assert stats["cache"]["entries"] >= 0

    def test_span_trees_render_only_for_a_recent_read(
        self, workspace, daemon_factory, monkeypatch
    ):
        """The ring keeps finished requests: 50 of them render no span
        tree, and ``stats --recent 3`` renders the newest three, whole."""
        rendered = []
        to_span_tree = RequestTrace.to_span_tree

        def counting(rtrace):
            rendered.append(rtrace.trace_id)
            return to_span_tree(rtrace)

        monkeypatch.setattr(RequestTrace, "to_span_tree", counting)
        seed_dataset(workspace)
        with daemon_factory(slow_ms=60_000) as handle:
            with handle.client() as client:
                traces = []
                for _ in range(50):
                    client.checkout("inter", [1], inline=True)
                    traces.append(client.last_trace["trace_id"])
                assert rendered == []
                recent = client.stats(recent=3)["recent"]
        assert rendered == traces[-3:]
        assert [tree["trace_id"] for tree in recent] == traces[-3:]
        for tree in recent:
            assert (tree["name"], tree["op"], tree["status"]) == (
                "service.request", "checkout", "ok",
            )
            assert tree["cached"] is True
            phases = [child["name"] for child in tree["children"]]
            assert phases == [
                "service.admission", "service.queue_wait",
                "service.execute", "service.serialize",
            ]
            (grafted,) = tree["children"][2]["children"]
            assert grafted["name"] == "service.checkout"

    def test_status_op_still_reports_slow_and_metrics(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                status = client.status()
            assert "slow" in status
            assert status["server"]["metrics"] is None  # no --metrics-port


class _FakeDaemon:
    def __init__(self):
        self.draining = False

    def render_metrics(self):
        return "orpheusd_requests_total 7\n"

    def stats_payload(self, recent: int = 0):
        return {"requests": {"total": 7}}


class TestMetricsServer:
    def test_endpoints(self):
        fake = _FakeDaemon()
        server = MetricsServer(fake, port=0).start()
        try:
            base = f"http://{server.address}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                assert b"orpheusd_requests_total 7" in response.read()
            with urllib.request.urlopen(f"{base}/stats") as response:
                assert json.load(response)["requests"]["total"] == 7
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.read().strip() == b"ok"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope")
            assert excinfo.value.code == 404
            # A draining daemon fails its health check (load balancers
            # stop routing to it) but keeps serving metrics.
            fake.draining = True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/healthz")
            assert excinfo.value.code == 503
        finally:
            server.stop()

    def test_daemon_integration_and_status_file(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        with daemon_factory(metrics_port=0) as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
            # The ephemeral port is discoverable from the status file —
            # how CI (and humans) find the scrape endpoint.
            status_file = workspace / ".orpheus" / "service.json"
            address = json.loads(status_file.read_text())["metrics"]
            assert address == handle.daemon._metrics_server.address
            text = urllib.request.urlopen(
                f"http://{address}/metrics"
            ).read().decode()
            match = re.search(
                r"^orpheusd_requests_total (\d+)$", text, re.M
            )
            assert match and int(match.group(1)) >= 1
            assert 'orpheusd_op_requests_total{op="checkout"}' in text


class TestSlowLog:
    def test_threshold_filters(self, tmp_path):
        log = SlowLog(str(tmp_path), threshold_ms=10_000)
        assert log.consider(make_trace()) is False
        assert log.stats()["count"] == 0
        eager = SlowLog(str(tmp_path), threshold_ms=0)
        assert eager.consider(make_trace()) is True
        assert eager.stats()["count"] == 1

    def test_env_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORPHEUS_SLOW_MS", "123.5")
        assert SlowLog(str(tmp_path)).threshold_ms == 123.5
        monkeypatch.setenv("ORPHEUS_SLOW_MS", "junk")
        assert SlowLog(str(tmp_path)).threshold_ms == 500.0

    def test_compaction_keeps_newest_half(self, tmp_path):
        log = SlowLog(str(tmp_path), threshold_ms=0, max_entries=8)
        for index in range(20):
            log.append({"name": "service.request", "seq": index})
        entries = log.read()
        assert len(entries) <= 8
        assert entries[-1]["seq"] == 19  # newest survives compaction
        assert log.appended == 20

    def test_torn_tail_tolerated(self, tmp_path):
        log = SlowLog(str(tmp_path), threshold_ms=0)
        log.append({"name": "service.request", "duration_s": 0.25})
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # crash mid-write
        fresh = SlowLog(str(tmp_path), threshold_ms=0)
        assert len(fresh.read()) == 1
        assert fresh.stats()["p99_ms"] == 250.0


class TestSlowRequestsProbe:
    def test_empty_log_is_ok(self, workspace):
        result = probe_slow_requests(str(workspace))
        assert result.severity == "ok"
        assert "no slow requests" in result.summary

    def test_few_entries_ok(self, workspace):
        log = SlowLog(str(workspace), threshold_ms=0)
        log.append({"name": "service.request", "duration_s": 0.9})
        result = probe_slow_requests(str(workspace))
        assert result.severity == "ok"
        assert result.data["count"] == 1

    def test_growth_warns(self, workspace):
        log = SlowLog(str(workspace), threshold_ms=0)
        for _ in range(50):
            log.append({"name": "service.request", "duration_s": 0.6})
        result = probe_slow_requests(str(workspace))
        assert result.severity == "warn"
        assert "growing" in result.summary
        assert "orpheus top" in result.remediation

    def test_p99_budget_breach_warns(self, workspace, monkeypatch):
        log = SlowLog(str(workspace), threshold_ms=0)
        log.append({"name": "service.request", "duration_s": 2.0})
        monkeypatch.setenv("ORPHEUS_SLOW_P99_BUDGET_MS", "1000")
        result = probe_slow_requests(str(workspace))
        assert result.severity == "warn"
        assert "breaches" in result.summary
        assert result.data["budget_ms"] == 1000.0
        # Under budget: back to OK.
        monkeypatch.setenv("ORPHEUS_SLOW_P99_BUDGET_MS", "5000")
        assert probe_slow_requests(str(workspace)).severity == "ok"


class TestTopDashboard:
    def test_render_frame_live_payload(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
                stats = client.stats()
        frame = render_frame(stats)
        assert "orpheusd pid" in frame
        assert "serving" in frame
        assert "checkout" in frame
        assert "queue-p95" in frame

    def test_render_frame_rates_use_previous_poll(self):
        prev = {"requests": {"total": 10}, "by_op": {}}
        stats = {
            "server": {"pid": 1}, "uptime_s": 4.0,
            "requests": {"total": 20, "errors": 0, "busy": 0, "slow": 0},
            "by_op": {}, "scheduler": {}, "cache": {}, "sessions": {},
            "slow": {},
        }
        frame = render_frame(stats, prev, interval=2.0)
        assert "(5.0/s)" in frame

    def test_run_top_once_json(
        self, workspace, daemon_factory, tmp_path, capsys
    ):
        import io

        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
            buffer = io.StringIO()
            assert run_top(
                root=str(workspace), once=True, as_json=True,
                stream=buffer,
            ) == 0
            payload = json.loads(buffer.getvalue())
            assert payload["requests"]["total"] >= 1

    def test_run_top_iterations_bound(self, workspace, daemon_factory):
        import io

        seed_dataset(workspace)
        with daemon_factory():
            buffer = io.StringIO()
            assert run_top(
                root=str(workspace), interval=0.1, iterations=2,
                stream=buffer,
            ) == 0
            # Two frames, each starting with the clear-screen escape.
            assert buffer.getvalue().count("\x1b[2J") == 2

    def test_run_top_no_daemon_errors(self, workspace, capsys):
        assert run_top(root=str(workspace), once=True) == 1
        assert "orpheus top" in capsys.readouterr().err

    def test_cli_top_once_json(
        self, workspace, daemon_factory, tmp_path, capsys
    ):
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
            capsys.readouterr()  # drop the seed-dataset init banner
            assert main(
                ["--root", str(workspace), "top", "--once", "--json"]
            ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"]["total"] >= 1
        assert "scheduler" in payload


class TestFaultOutcomeCounters:
    """Deadline sheds and degraded refusals are load policy, not
    failures: they get dedicated counters and never inflate errors."""

    def test_deadline_and_degraded_never_count_as_errors(self):
        metrics = ServiceMetrics()
        metrics.record(make_trace())
        metrics.record(make_trace(
            op="commit", status="deadline_exceeded",
            error_type="DeadlineExceededError",
        ))
        metrics.record(make_trace(
            op="commit", status="degraded", error_type="DegradedError",
        ))
        payload = metrics.to_dict()
        requests = payload["requests"]
        assert requests["errors"] == 0
        assert requests["deadline_exceeded"] == 1
        assert requests["degraded"] == 1
        commit = payload["by_op"]["commit"]
        assert commit["deadline_exceeded"] == 1
        assert commit["degraded"] == 1
        assert commit["errors"] == 0

    def test_prometheus_exposes_fault_outcome_families(self):
        metrics = ServiceMetrics()
        metrics.record(make_trace(status="deadline_exceeded",
                                  error_type="DeadlineExceededError"))
        metrics.record(make_trace(op="commit", status="degraded",
                                  error_type="DegradedError"))
        text = metrics.render_prometheus()
        assert "orpheusd_deadline_exceeded_responses_total 1" in text
        assert "orpheusd_degraded_responses_total 1" in text
        assert "orpheusd_errors_total 0" in text
