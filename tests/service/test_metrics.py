"""The observability surface: ServiceMetrics rollups, the ``stats``
protocol op, the Prometheus HTTP sidecar, and the ``orpheus top``
dashboard."""

from __future__ import annotations

import dataclasses
import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.observe.top import render_frame
from repro.service.daemon import ServiceConfig
from repro.service.httpmon import MetricsServer
from repro.service.metrics import (
    FAMILIES,
    RECENT_CAP,
    ServiceMetrics,
    exposition,
)
from repro.service.protocol import Request
from repro.service.recorder import flight_dir_path, read_slow
from repro.service.tracing import DEFAULT_SLOW_MS, RequestTrace

from .conftest import await_ledger, seed_dataset

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

    def test_every_rollup_classifies_an_outcome_alike(self):
        """One request of each status: the totals, the op, the session
        and the dataset each count it under the same outcome, so a
        deadline shed or a degraded refusal is an error in none."""
        metrics = ServiceMetrics()
        statuses = (
            "ok", "busy", "deadline_exceeded", "degraded", "error", "shutdown",
        )
        for status in statuses:
            metrics.record(make_trace(status=status, error_type="E"))
        payload = metrics.to_dict()
        outcomes = {
            "errors": 1, "busy": 1, "deadline_exceeded": 1, "degraded": 1,
            "worker_errors": 0,
        }
        rollups = {
            "requests": payload["requests"],
            "by_op": payload["by_op"]["checkout"],
            "by_session": payload["by_session"]["1"],
            "by_dataset": payload["by_dataset"]["inter"],
        }
        for name, rollup in rollups.items():
            assert {key: rollup[key] for key in outcomes} == outcomes, name
            assert rollup.get("count", rollup.get("total")) == len(statuses), name

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
        text = exposition({
            **metrics.to_dict(),
            "cache": {"hits": 5},
            "scheduler": {"read_queue_depth": 0},
        })
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


#: Every family ``/metrics`` exposes.
EXPOSED = {
    *(f"orpheusd_{family}" for family in FAMILIES),
    "orpheusd_scanned_rows_total", "orpheusd_scanned_bytes_total",
    "orpheusd_op_requests_total", "orpheusd_op_errors_total",
    "orpheusd_request_seconds", "orpheusd_phase_seconds",
}


class TestExposition:
    def test_metrics_is_the_report(self, workspace, daemon_factory):
        """``/metrics`` is a function of the report: the same families
        as ever, and each value the report's own."""
        seed_dataset(workspace)
        with daemon_factory() as handle, handle.client() as client:
            client.checkout("inter", [1], inline=True)
            client.checkout("inter", [1], inline=True)
            await_ledger(handle, lambda m: m.totals.count >= 2)
            report = handle.daemon.stats_payload()
        text = exposition(report)
        families = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert families == EXPOSED and len(EXPOSED) == 31
        samples = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
            if not line.startswith("#")
        )
        for family, (block, key) in FAMILIES.items():
            assert float(samples[f"orpheusd_{family}"]) == float(
                report[block][key]
            ), family
        assert float(samples["orpheusd_cache_hits_total"]) == 1
        checkout = report["by_op"]["checkout"]
        latency = checkout["latency"]
        assert float(samples['orpheusd_request_seconds_sum{op="checkout"}']) \
            == latency["total_s"]
        assert float(samples[
            'orpheusd_request_seconds{op="checkout",quantile="0.95"}'
        ]) == latency["p95_s"]
        assert int(samples[
            'orpheusd_phase_seconds_count{op="checkout",phase="execute"}'
        ]) == checkout["phases"]["execute"]["count"] == 2


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
                "server", "scheduler", "cache", "sessions", "uptime_s",
            ):
                assert key in stats, f"stats missing {key!r}"
            assert "recent" not in stats  # only on request
            assert stats["requests"]["total"] >= 1
            assert stats["server"]["pid"] > 0
            assert "slow" not in stats  # the ledger counts slow requests
            assert stats["requests"]["slow"] == 0
            assert stats["server"]["slow_ms"] == 500.0
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

    def test_stats_op_reports_the_slow_threshold_and_metrics(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory(slow_ms=120) as handle:
            with handle.client() as client:
                stats = client.stats()
            assert stats["server"]["slow_ms"] == 120
            assert stats["server"]["metrics"] is None  # no --metrics-port

    def test_the_slow_threshold_has_one_default(self):
        from repro.cli import _parse

        assert DEFAULT_SLOW_MS == 500.0
        assert ServiceConfig().slow_ms == DEFAULT_SLOW_MS
        assert _parse(["serve"]).slow_ms == DEFAULT_SLOW_MS

    def test_the_environment_does_not_set_the_slow_threshold(
        self, workspace, daemon_factory, monkeypatch
    ):
        """``serve --slow-ms`` is the one way to set the threshold."""
        monkeypatch.setenv("ORPHEUS_" + "SLOW_MS", "0")
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)
                stats = client.stats()
        assert stats["server"]["slow_ms"] == DEFAULT_SLOW_MS
        assert stats["requests"]["slow"] == 0
        assert read_slow(flight_dir_path(str(workspace))) == []

    def test_top_once_prints_the_slow_and_flight_lines(
        self, workspace, daemon_factory, capsys
    ):
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory(slow_ms=0) as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)
                client.checkout("inter", [1], inline=True)
            # A request is counted just after its response is sent; the
            # CLI asks on a new connection.
            deadline = time.monotonic() + 5.0
            while handle.daemon.metrics.to_dict()["requests"]["slow"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            capsys.readouterr()
            assert main(["--root", str(workspace), "top", "--once"]) == 0
            out = capsys.readouterr().out
        # The two checkouts were slow and recorded; the stats request
        # answering this is counted only after it is sent.
        assert " · slow 2 (over 0ms)" in out
        assert "\nflight: 2 request(s) recorded, 1 segment(s), " in out

    def test_doctor_checks_slow_requests_in_the_flight_probe(
        self, workspace, daemon_factory
    ):
        from repro.cli import load_state
        from repro.observe.doctor import run_doctor

        seed_dataset(workspace)
        with daemon_factory(slow_ms=0) as handle:
            with handle.client() as client:
                for _ in range(3):
                    client.checkout("inter", [1], inline=True)
        results = {
            result.probe: result
            for result in run_doctor(
                load_state(str(workspace)), str(workspace)
            ).results
        }
        assert "slow_requests" not in results
        flight = results["flight_recorder"]
        assert flight.severity == "ok", flight.summary
        assert flight.data["slow"] == 3
        assert flight.data["slow_ms"] == 0


class _FakeDaemon:
    def __init__(self):
        self.draining = False

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
            await_ledger(handle, "checkout")
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
            "server": {"pid": 1, "slow_ms": 500.0}, "uptime_s": 4.0,
            "requests": {"total": 20, "errors": 0, "busy": 0, "slow": 2},
            "by_op": {}, "scheduler": {}, "cache": {}, "sessions": {},
        }
        frame = render_frame(stats, prev, interval=2.0)
        assert "(5.0/s)" in frame
        assert "slow 2 (over 500ms)" in frame

    def test_render_frame_without_a_threshold_shows_the_bare_count(self):
        stats = {
            "server": {"pid": 1}, "uptime_s": 4.0,
            "requests": {"total": 20, "errors": 0, "busy": 0, "slow": 2},
            "by_op": {}, "scheduler": {}, "cache": {}, "sessions": {},
        }
        frame = render_frame(stats)
        assert "slow 2" in frame
        assert "(over" not in frame

    @staticmethod
    def _report(**blocks) -> dict:
        report = {
            "server": {"pid": 1, "socket": "/r/.orpheus/service.sock",
                       "datasets": 2, "metrics": None},
            "uptime_s": 4.0,
            "requests": {"total": 20, "errors": 0, "busy": 0, "slow": 0},
            "by_op": {}, "scheduler": {}, "cache": {}, "sessions": {},
        }
        report.update(blocks)
        return report

    def test_render_frame_names_socket_datasets_and_metrics_url(self):
        lines = render_frame(self._report()).splitlines()
        assert lines[1] == "socket: /r/.orpheus/service.sock · datasets 2"
        served = self._report()
        served["server"]["metrics"] = "127.0.0.1:9464"
        assert render_frame(served).splitlines()[1].endswith(
            " · datasets 2 · metrics http://127.0.0.1:9464/metrics"
        )

    def test_render_frame_shows_degraded_mode_only_while_degraded(self):
        healthy = render_frame(self._report(degrade={"degraded": False}))
        assert "[WARN]" not in healthy
        frame = render_frame(self._report(
            degrade={"degraded": True, "cause": "OSError: disk full"}
        ))
        assert frame.splitlines()[2:4] == [
            "[WARN] service_health[degraded] degraded read-only mode "
            "(OSError: disk full)",
            "       -> fix the storage fault behind the failing saves (disk "
            "full? permissions?); the daemon probes a save each "
            "housekeeping tick and exits degraded mode on success",
        ]

    def test_render_frame_counts_each_failure_outcome(self):
        frame = render_frame(self._report(
            requests={"total": 9, "worker_errors": 1, "deadline_exceeded": 3,
                      "degraded": 4},
            scheduler={"deadline_shed": 2},
        ))
        assert (
            "failures: 1 worker error(s), 3 deadline refusal(s) "
            "(2 shed in the queue), 4 degraded refusal(s), "
            "0 quarantine refusal(s)"
        ) in frame.splitlines()

    def test_render_frame_shows_the_flight_and_a_quarantine(self):
        report = self._report(
            flight={"records_written": 7, "segments": 2, "bytes": 2048},
            quarantine={"quarantined": 0, "refused_total": 0},
        )
        lines = render_frame(report).splitlines()
        assert "flight: 7 request(s) recorded, 2 segment(s), 2.0KB" in lines
        assert not [line for line in lines if line.startswith("[WARN]")]
        report["quarantine"] = {"quarantined": 1, "refused_total": 5}
        lines = render_frame(report).splitlines()
        assert lines[2] == (
            "[WARN] service_health[quarantine] 1 request digest(s) "
            "quarantined"
        )
        assert lines[3].endswith("then `orpheus remote -- flush-quarantine`")
        assert lines[5].endswith(", 5 quarantine refusal(s)")

    def test_render_frame_reads_the_live_slow_count_and_threshold(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory(slow_ms=0) as handle:
            with handle.client() as client:
                for _ in range(3):
                    client.checkout("inter", [1], inline=True)
                stats = client.stats()
        assert stats["requests"]["slow"] == 3
        assert "slow 3 (over 0ms)" in render_frame(stats)

    def test_top_once_prints_one_plain_frame(
        self, workspace, daemon_factory, tmp_path, capsys
    ):
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
            await_ledger(handle, "checkout")
            capsys.readouterr()  # drop the seed-dataset init banner
            assert main(["--root", str(workspace), "top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "\x1b[2J" not in out
        assert out.startswith("orpheusd pid ")
        assert re.search(r"^checkout\s+1\s", out, re.MULTILINE)

    def test_top_iterations_bound(self, workspace, daemon_factory, capsys):
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory():
            capsys.readouterr()
            assert main([
                "--root", str(workspace), "top",
                "--interval", "0.1", "--iterations", "2",
            ]) == 0
        # Two frames, each starting with the clear-screen escape.
        assert capsys.readouterr().out.count("\x1b[2J") == 2

    def test_top_without_a_daemon_errors(self, workspace, capsys):
        from repro.cli import main

        assert main(["--root", str(workspace), "top", "--once"]) == 1
        assert "orpheus top" in capsys.readouterr().err

    def test_raw_report_is_remote_json_stats(
        self, workspace, daemon_factory, tmp_path, capsys
    ):
        """``top`` only renders; the raw payload is ``remote --json
        stats``."""
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
            await_ledger(handle, "checkout")
            capsys.readouterr()  # drop the seed-dataset init banner
            assert main(
                ["--root", str(workspace), "remote", "--json", "stats"]
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
        text = exposition(metrics.to_dict())
        assert "orpheusd_deadline_exceeded_responses_total 1" in text
        assert "orpheusd_degraded_responses_total 1" in text
        assert "orpheusd_errors_total 0" in text

    def test_prometheus_exports_each_outcome_count_once(self):
        metrics = ServiceMetrics()
        for _ in range(3):
            metrics.record(make_trace(status="deadline_exceeded",
                                      error_type="DeadlineExceededError"))
        for _ in range(5):
            metrics.record(make_trace(op="commit", status="degraded",
                                      error_type="DegradedError"))
        samples = [
            line.split()
            for line in exposition(metrics.to_dict()).splitlines()
            if line.startswith("orpheusd_") and "{" not in line
        ]
        families = {}
        for name, value in samples:
            families.setdefault(value, []).append(name)
        assert families["3"] == ["orpheusd_deadline_exceeded_responses_total"]
        assert families["5"] == ["orpheusd_degraded_responses_total"]
        assert families["8"] == ["orpheusd_requests_total"]
