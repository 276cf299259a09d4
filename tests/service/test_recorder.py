"""Flight recorder: bounded segments, slow requests' spans,
torn-tail-tolerant reads, and the doctor/status surfaces over them."""

from __future__ import annotations

import inspect
import json
import os
from types import SimpleNamespace


from repro.observe.doctor import SLOW_LOG_WARN_ENTRIES, Checkup, run_probe
from repro.resilience import fsio
from repro.service.recorder import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_SEGMENT_BYTES,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    args_digest,
    flight_dir_path,
    flight_dir_status,
    list_segments,
    normalize_params,
    read_flight,
    read_segment,
    read_slow,
)
from repro.service.tracing import DEFAULT_SLOW_MS, RequestTrace
from tests.service.conftest import seed_dataset


def _entry(i: int, op: str = "checkout") -> dict:
    return {
        "kind": "request",
        "ts": 1000.0 + i,
        "op": op,
        "trace": f"trace{i:04d}",
        "digest": "d" * 16,
        "dataset": "inter",
        "versions": [1],
        "status": "ok",
        "total_s": 0.001,
    }


# ----------------------------------------------------------------------
# Normalization and digests
# ----------------------------------------------------------------------
def test_normalize_strips_envelope_and_none():
    params = {
        "dataset": "inter",
        "versions": [1, 2],
        "trace": {"trace_id": "x"},
        "id": 7,
        "file": None,
    }
    assert normalize_params(params) == {
        "dataset": "inter",
        "versions": [1, 2],
    }


def test_digest_stable_under_envelope_and_key_order():
    a = args_digest("checkout", {"dataset": "d", "versions": [3], "id": 1})
    b = args_digest(
        "checkout", {"versions": [3], "dataset": "d", "trace": {"t": 1}}
    )
    assert a == b and len(a) == 16
    assert a != args_digest("checkout", {"dataset": "d", "versions": [4]})
    assert a != args_digest("diff", {"dataset": "d", "versions": [3]})


# ----------------------------------------------------------------------
# Segments: header, rotation, pruning, torn tails
# ----------------------------------------------------------------------
def test_segment_starts_with_header(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_entry(0))
    recorder.close()
    segments = list_segments(flight_dir_path(str(tmp_path)))
    assert len(segments) == 1
    header, records, torn = read_segment(segments[0])
    assert header is not None and not torn
    assert header["schema"] == FLIGHT_SCHEMA_VERSION
    assert header["boot_id"] == recorder.boot_id
    assert header["pid"] == os.getpid()
    assert header["segment_bytes"] == recorder.segment_bytes
    assert header["max_segments"] == recorder.max_segments
    assert header["slow_ms"] == recorder.slow_ms == 500.0
    assert len(records) == 1 and records[0]["trace"] == "trace0000"


def test_rotation_and_pruning_bound_disk(tmp_path):
    recorder = FlightRecorder(
        root=str(tmp_path), segment_bytes=4096, max_segments=3,
    )
    for i in range(300):  # ~200 bytes/line >> 3 segments worth
        recorder.append(_entry(i))
    recorder.close()
    status = flight_dir_status(recorder.dir)
    assert status["segments"] <= 3
    assert status["bytes"] <= 3 * (4096 + 512)
    # Survivors are the newest segments, and every survivor re-states
    # the header so each file is independently parseable.
    flight = read_flight(recorder.dir)
    assert len(flight["headers"]) == status["segments"]
    traces = [r["trace"] for r in flight["records"]]
    assert traces == sorted(traces)
    assert traces[-1] == "trace0299"


def test_torn_tail_skipped_not_fatal(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    for i in range(5):
        recorder.append(_entry(i))
    recorder.close()
    segment = list_segments(recorder.dir)[-1]
    with open(segment, "ab") as handle:  # simulated crash mid-append
        handle.write(b'{"kind": "request", "op": "chec')
    header, records, torn = read_segment(segment)
    assert torn and header is not None
    assert [r["trace"] for r in records] == [
        f"trace{i:04d}" for i in range(5)
    ]
    flight = read_flight(recorder.dir)
    assert flight["torn_segments"] == [segment.name]
    assert flight_dir_status(recorder.dir)["newest_torn"]


def test_status_reports_counts_and_footprint(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    for i in range(3):
        recorder.append(_entry(i))
    status = recorder.status()
    assert status["records_written"] == 3
    assert status["segments"] == 1 and status["bytes"] > 0
    assert status["boot_id"] == recorder.boot_id
    recorder.close()


# ----------------------------------------------------------------------
# Daemon integration: requests land in the flight log
# ----------------------------------------------------------------------
def test_daemon_records_requests_with_phases(workspace, daemon_factory):
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
            client.checkout("inter", [1], inline=True)
            client.request("ls")
        boot_id = handle.daemon.boot_id
    flight = read_flight(flight_dir_path(str(workspace)))
    assert [h["boot_id"] for h in flight["headers"]] == [boot_id]
    ops = [r["op"] for r in flight["records"]]
    assert ops.count("checkout") == 2 and "ls" in ops
    assert "hello" not in ops  # handshake is not workload
    checkout = next(r for r in flight["records"] if r["op"] == "checkout")
    assert checkout["dataset"] == "inter"
    assert checkout["versions"] == [1]
    assert "params" not in checkout
    assert "trace" in checkout and "digest" in checkout
    assert {"admission", "queue_wait", "execute"} <= set(
        checkout["phases"]
    )
    cached = [
        r["cached"]
        for r in flight["records"]
        if r["op"] == "checkout" and "cached" in r
    ]
    assert cached == [False, True]


def test_daemon_flight_status_surfaces(workspace, daemon_factory):
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
            stats = client.stats()
            status = client.stats()
        assert stats["flight"]["records_written"] >= 1
        assert stats["server"]["boot_id"] == handle.daemon.boot_id
        assert status["flight"]["segments"] >= 1
        assert status["server"]["boot_id"] == handle.daemon.boot_id


def test_only_a_slow_request_carries_spans(workspace, daemon_factory):
    """Over ``slow_ms`` a record keeps its phase spans, the handler's
    subtree under ``service.execute``, and nothing the record already
    says; under it, no ``spans``."""
    seed_dataset(workspace)
    with daemon_factory(slow_ms=0) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
    with daemon_factory(slow_ms=60_000) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
    flight = read_flight(flight_dir_path(str(workspace)))
    assert [h["slow_ms"] for h in flight["headers"]] == [0, 60_000]
    slow, fast = [r for r in flight["records"] if r["op"] == "checkout"]
    assert "spans" not in fast
    assert [span["name"] for span in slow["spans"]] == [
        "service.admission", "service.queue_wait",
        "service.execute", "service.serialize",
    ]
    (handler,) = slow["spans"][2]["children"]
    assert handler["name"] == "service.checkout"
    carried = {"trace_id", "op", "status", "started_at", "dataset"}
    assert all(carried.isdisjoint(span) for span in slow["spans"])
    assert read_slow(flight_dir_path(str(workspace))) == [slow]


def test_every_request_is_recorded(workspace, daemon_factory):
    """The recorder takes no sample: each finished request is one
    record, so the slow view and the mined ``orpheus heat`` are
    complete."""
    seed_dataset(workspace)
    with daemon_factory() as handle:
        with handle.client() as client:
            for _ in range(20):
                client.checkout("inter", [1], inline=True)
            status = client.stats()
        recorder = handle.daemon.recorder
    records = read_flight(recorder.dir)["records"]
    assert [r["op"] for r in records].count("checkout") == 20
    assert len(records) == recorder.records_written
    assert set(status["flight"]) == {
        "boot_id", "records_written", "segment_bytes", "max_segments",
        "segments", "bytes", "path",
    }
    assert "sample" not in inspect.signature(FlightRecorder).parameters


def _finished_trace() -> RequestTrace:
    rtrace = RequestTrace("checkout", dataset="inter")
    rtrace.digest = "a" * 16
    rtrace.mark_admitted()
    rtrace.mark_started()
    rtrace.mark_executed()
    rtrace.mark_sent()
    rtrace.finish("ok")
    return rtrace


def test_record_adds_only_the_phase_spans_when_slow(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    rtrace = _finished_trace()
    request = SimpleNamespace(params={"dataset": "inter", "versions": [1]})
    recorder.record(rtrace, request)
    recorder.record(rtrace, request, slow=True)
    recorder.close()
    fast, slow = read_flight(recorder.dir)["records"]
    assert "spans" not in fast
    assert slow.pop("spans") == rtrace.phase_spans()
    assert slow == fast


def test_read_slow_keeps_captured_order_across_segments(tmp_path):
    recorder = FlightRecorder(
        root=str(tmp_path), segment_bytes=4096, max_segments=3,
    )
    for i in range(60):
        recorder.append(_slow_entry(i) if i % 3 == 0 else _entry(i))
    recorder.close()
    assert len(list_segments(recorder.dir)) == 3
    expected = [
        r for r in read_flight(recorder.dir)["records"] if "spans" in r
    ]
    assert len(expected) > 3
    assert read_slow(recorder.dir) == expected
    assert [r["trace"] for r in expected] == sorted(
        r["trace"] for r in expected
    )
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.data["slow"] == len(expected)


def test_read_slow_skips_a_torn_slow_tail(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_slow_entry(0))
    recorder.append(_slow_entry(1))
    recorder.close()
    with open(list_segments(recorder.dir)[-1], "ab") as handle:
        handle.write(fsio.jsonl_line(_slow_entry(2))[:-8])
    assert [r["trace"] for r in read_slow(recorder.dir)] == [
        "trace0000", "trace0001",
    ]


def test_a_record_merely_mentioning_spans_is_not_slow(tmp_path):
    """A string value quoting the marker is escaped, so it never matches;
    a nested ``spans`` key matches the marker but is not the record's."""
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(dict(_entry(0), dataset='"spans": [', user='"spans": [1]'))
    recorder.append(dict(_entry(1), error={"spans": [1]}))
    recorder.close()
    assert len(read_flight(recorder.dir)["records"]) == 2
    assert read_slow(recorder.dir) == []


# ----------------------------------------------------------------------
# Doctor probe
# ----------------------------------------------------------------------
def test_probe_ok_when_no_segments(tmp_path):
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "ok"
    assert "no flight segments" in result.summary


def _fill_two_segment_recorder(root) -> FlightRecorder:
    """A recorder bounded at 2 × 4 KiB, written well past its bound so
    it rotated and pruned down to it."""
    recorder = FlightRecorder(
        root=str(root), segment_bytes=4096, max_segments=2,
    )
    for i in range(100):
        recorder.append(_entry(i))
    recorder.close()
    return recorder


def test_probe_ok_at_the_recorders_bound(tmp_path):
    _fill_two_segment_recorder(tmp_path)
    status = flight_dir_status(flight_dir_path(str(tmp_path)))
    assert status["segments"] == 2
    assert (status["segment_bytes"], status["max_segments"]) == (4096, 2)
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "ok", result.summary
    assert result.data["bound_bytes"] == 2 * 4096


def test_probe_warns_when_pruning_failed(tmp_path):
    """More segments on disk than the newest header's ``max_segments``
    means pruning failed: the bytes exceed the recorder's bound."""
    recorder = _fill_two_segment_recorder(tmp_path)
    newest = list_segments(recorder.dir)[-1]
    for seq in range(3):  # what a prune that kept failing leaves
        (recorder.dir / f"flight-stale-{seq:06d}.jsonl").write_bytes(
            newest.read_bytes()
        )
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "warn"
    assert "pruning failed" in result.summary
    assert "oldest flight-*.jsonl" in result.remediation


def test_status_bound_falls_back_for_headers_without_it(tmp_path):
    directory = flight_dir_path(str(tmp_path))
    directory.mkdir(parents=True)
    (directory / "flight-old-000001.jsonl").write_bytes(
        fsio.jsonl_line({"kind": "header", "schema": 1, "boot_id": "old"})
        + fsio.jsonl_line(_entry(0))
    )
    status = flight_dir_status(directory)
    assert status["segment_bytes"] == DEFAULT_SEGMENT_BYTES
    assert status["max_segments"] == DEFAULT_MAX_SEGMENTS
    assert status["slow_ms"] == DEFAULT_SLOW_MS
    assert status["newest_torn"] is False


def test_status_states_the_newest_headers_slow_ms(tmp_path):
    for boot_id, slow_ms in (("aaaa", 0), ("bbbb", 250)):
        recorder = FlightRecorder(
            root=str(tmp_path), slow_ms=slow_ms, boot_id=boot_id,
        )
        recorder.append(_entry(0))
        recorder.close()
    directory = flight_dir_path(str(tmp_path))
    assert [
        read_segment(segment)[0]["slow_ms"]
        for segment in list_segments(directory)
    ] == [0, 250]
    assert flight_dir_status(directory)["slow_ms"] == 250


def test_status_reads_only_the_tail_of_a_full_segment(tmp_path, monkeypatch):
    """``stats``, ``status``, every ``orpheus top`` poll and every doctor
    run ask for the flight summary: it must not parse a 4 MiB segment
    to learn whether its last line is torn."""
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_entry(0))
    recorder.close()
    segment = list_segments(recorder.dir)[-1]
    line = fsio.jsonl_line(_entry(1))
    with open(segment, "ab") as handle:
        handle.write(line * (DEFAULT_SEGMENT_BYTES // len(line)))

    def refuse(path):
        raise AssertionError("flight_dir_status parsed the whole segment")

    monkeypatch.setattr(fsio, "read_jsonl", refuse)
    status = flight_dir_status(recorder.dir)
    assert status["bytes"] >= DEFAULT_SEGMENT_BYTES
    assert status["newest_torn"] is False
    with open(segment, "ab") as handle:
        handle.write(line[:-1])  # a crash mid-append: no newline
    assert flight_dir_status(recorder.dir)["newest_torn"] is True
    with open(segment, "ab") as handle:
        handle.write(b"\n" + b'{"kind": "request", "op"' + b"\n")
    assert flight_dir_status(recorder.dir)["newest_torn"] is True
    with open(segment, "ab") as handle:
        handle.write(line)  # a whole line after the garbage one
    assert flight_dir_status(recorder.dir)["newest_torn"] is False


def test_probe_warns_on_torn_tail_without_daemon(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_entry(0))
    recorder.close()
    segment = list_segments(recorder.dir)[-1]
    with open(segment, "ab") as handle:
        handle.write(b'{"torn')
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "warn"
    assert "torn tail" in result.summary
    assert "nothing to repair" in result.remediation


def _slow_entry(i: int, total_s: float = 0.6) -> dict:
    return dict(
        _entry(i),
        total_s=total_s,
        spans=[{"name": "service.execute", "duration_s": total_s}],
    )


def test_probe_counts_slow_requests(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path), slow_ms=250)
    recorder.append(_entry(0))
    recorder.append(_slow_entry(1, total_s=0.9))
    recorder.close()
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "ok", result.summary
    assert "1 slow request(s), p99 900ms" in result.summary
    data = result.data
    assert (data["slow"], data["slow_p99_ms"], data["slow_ms"]) == (
        1, 900.0, 250,
    )


def test_probe_warns_when_slow_requests_pile_up(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    for i in range(SLOW_LOG_WARN_ENTRIES):
        recorder.append(_slow_entry(i))
    recorder.close()
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "warn"
    assert "piling up" in result.summary
    assert "orpheus top" in result.remediation


def test_probe_p99_is_taken_over_every_slow_request(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path))
    count = SLOW_LOG_WARN_ENTRIES - 10
    for i in reversed(range(count)):
        recorder.append(_slow_entry(i, total_s=0.5 + i / 1000))
    recorder.close()
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "ok", result.summary
    assert result.data["slow"] == count
    assert result.data["slow_p99_ms"] == round((0.5 + (count - 1) / 1000) * 1000, 3)


class _CountingJson:
    """``fsio``'s ``json`` module, recording every text it parses."""

    def __init__(self) -> None:
        self.parsed: list[str] = []

    def loads(self, text):
        self.parsed.append(text)
        return json.loads(text)

    def dumps(self, *args, **kwargs):
        return json.dumps(*args, **kwargs)


def test_probe_parses_only_the_slow_records_of_a_full_segment(
    tmp_path, monkeypatch
):
    """Every doctor run asks for the slow requests: over a full segment
    of fast requests it parses the header and the final line, not one
    record per line."""
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_entry(0))
    recorder.close()
    segment = list_segments(recorder.dir)[-1]
    line = fsio.jsonl_line(_entry(1))
    with open(segment, "ab") as handle:
        handle.write(line * (DEFAULT_SEGMENT_BYTES // len(line)))

    counting = _CountingJson()
    monkeypatch.setattr(fsio, "json", counting)
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.severity == "ok", result.summary
    assert result.data["slow"] == 0
    assert result.data["bytes"] >= DEFAULT_SEGMENT_BYTES
    assert len(counting.parsed) <= 2  # the header and the torn check

    with open(segment, "ab") as handle:
        handle.write(fsio.jsonl_line(_slow_entry(2)) * 2 + line)
    counting.parsed.clear()
    (result,) = run_probe("flight_recorder", Checkup(root=str(tmp_path)))
    assert result.data["slow"] == 2
    fast = [text for text in counting.parsed if '"spans"' not in text]
    assert len(fast) <= 2, fast
    assert read_slow(recorder.dir) == [_slow_entry(2)] * 2


def test_write_error_counts_not_raises(tmp_path, monkeypatch):
    from repro import telemetry

    telemetry.enable()
    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append(_entry(0))

    class _Broken:
        def write(self, data):
            raise OSError("disk full")
        def flush(self):
            raise OSError("disk full")
        def close(self):
            pass

    recorder._handle = _Broken()
    recorder._segment_written = 0
    recorder.append(_entry(1))  # must swallow, not raise
    assert telemetry.snapshot().counters.get(
        "service.flight.write_errors"
    ) == 1


# ----------------------------------------------------------------------
# Fault outcomes in flight records
# ----------------------------------------------------------------------
def test_request_outcome_mapping():
    from repro.service.recorder import request_outcome

    assert request_outcome("deadline_exceeded", None) == "deadline_exceeded"
    assert request_outcome("degraded", None) == "degraded"
    assert request_outcome("error", "internal") == "worker_error"
    # ordinary cases carry no fault tag
    assert request_outcome("ok", None) is None
    assert request_outcome("busy", None) is None
    assert request_outcome("error", "user") is None


def test_record_stamps_outcome_and_error_kind(tmp_path):
    from types import SimpleNamespace

    from repro.service.tracing import RequestTrace

    recorder = FlightRecorder(root=str(tmp_path))
    rtrace = RequestTrace("commit", dataset="inter")
    rtrace.digest = "e" * 16
    rtrace.finish("error", "FailpointError", "internal")
    recorder.record(
        rtrace,
        SimpleNamespace(params={"dataset": "inter", "file": "w.csv"}),
    )
    healthy = RequestTrace("checkout", dataset="inter")
    healthy.digest = "f" * 16
    recorder.record(
        healthy, SimpleNamespace(params={"dataset": "inter"})
    )
    recorder.close()

    flight = read_flight(flight_dir_path(str(tmp_path)))
    records = [
        r for r in flight["records"] if r.get("kind") == "request"
    ]
    assert len(records) == 2
    crashed = next(r for r in records if r["op"] == "commit")
    assert crashed["outcome"] == "worker_error"
    assert crashed["error_kind"] == "internal"
    assert crashed["digest"] == "e" * 16  # dispatch digest reused
    clean = next(r for r in records if r["op"] == "checkout")
    assert "outcome" not in clean
    assert "error_kind" not in clean
