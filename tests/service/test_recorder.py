"""Flight recorder: bounded segments, deterministic sampling,
torn-tail-tolerant reads, and the doctor/status surfaces over them."""

from __future__ import annotations

import json
import os

import pytest

from repro.observe.doctor import probe_flight_recorder
from repro.resilience import fsio
from repro.service.recorder import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_SEGMENT_BYTES,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    _trace_keep,
    args_digest,
    flight_dir_path,
    flight_dir_status,
    list_segments,
    normalize_params,
    read_flight,
    read_segment,
)
from tests.service.conftest import seed_dataset


def _entry(i: int, op: str = "checkout") -> dict:
    return {
        "kind": "request",
        "ts": 1000.0 + i,
        "op": op,
        "trace": f"trace{i:04d}",
        "digest": "d" * 16,
        "params": {"dataset": "inter", "versions": [1]},
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


def test_trace_sampling_deterministic_and_proportional():
    keep_half = {t for t in (f"t{i}" for i in range(400))
                 if _trace_keep(t, 0.5)}
    # Same trace id always lands on the same side of the cut.
    assert keep_half == {
        t for t in (f"t{i}" for i in range(400)) if _trace_keep(t, 0.5)
    }
    assert 100 < len(keep_half) < 300  # roughly half, hash-distributed
    assert all(_trace_keep(f"t{i}", 1.0) for i in range(10))
    assert not any(_trace_keep(f"t{i}", 0.0) for i in range(10))


# ----------------------------------------------------------------------
# Segments: header, rotation, pruning, torn tails
# ----------------------------------------------------------------------
def test_segment_starts_with_header(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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
    assert len(records) == 1 and records[0]["trace"] == "trace0000"


def test_rotation_and_pruning_bound_disk(tmp_path):
    recorder = FlightRecorder(
        root=str(tmp_path), sample=1.0,
        segment_bytes=4096, max_segments=3,
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
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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


def test_sample_zero_is_disabled_and_writes_nothing(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path), sample=0.0)
    assert not recorder.enabled
    recorder.append(_entry(0))  # append still works if forced...
    status = recorder.status()
    assert status["enabled"] is False and status["sample"] == 0.0
    # ...but record() is the daemon's entry point and must no-op.
    class _Trace:
        trace_id = "t1"
    recorder.record(_Trace(), None)  # request never touched
    assert recorder.records_written == 1  # only the forced append


def test_status_reports_counts_and_footprint(tmp_path):
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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
    assert checkout["params"]["versions"] == [1]
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
            status = client.status()
        assert stats["flight"]["enabled"] is True
        assert stats["flight"]["sample"] == 1.0
        assert stats["flight"]["records_written"] >= 1
        assert stats["server"]["boot_id"] == handle.daemon.boot_id
        assert status["flight"]["segments"] >= 1
        assert status["server"]["boot_id"] == handle.daemon.boot_id


def test_daemon_sample_zero_records_nothing(workspace, daemon_factory):
    seed_dataset(workspace)
    with daemon_factory(flight_sample=0.0) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
            stats = client.stats()
        assert stats["flight"]["enabled"] is False
        assert stats["flight"]["records_written"] == 0
    assert flight_dir_status(flight_dir_path(str(workspace)))[
        "segments"
    ] == 0


# ----------------------------------------------------------------------
# Doctor probe
# ----------------------------------------------------------------------
def test_probe_ok_when_no_segments(tmp_path):
    result = probe_flight_recorder(str(tmp_path))
    assert result.severity == "ok"
    assert "no flight segments" in result.summary


def _fill_two_segment_recorder(root) -> FlightRecorder:
    """A recorder bounded at 2 × 4 KiB, written well past its bound so
    it rotated and pruned down to it."""
    recorder = FlightRecorder(
        root=str(root), sample=1.0, segment_bytes=4096, max_segments=2,
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
    result = probe_flight_recorder(str(tmp_path))
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
    result = probe_flight_recorder(str(tmp_path))
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
    assert status["newest_torn"] is False


def test_status_reads_only_the_tail_of_a_full_segment(tmp_path, monkeypatch):
    """``stats``, ``status``, every ``orpheus top`` poll and every doctor
    run ask for the flight summary: it must not parse a 4 MiB segment
    to learn whether its last line is torn."""
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
    recorder.append(_entry(0))
    recorder.close()
    segment = list_segments(recorder.dir)[-1]
    with open(segment, "ab") as handle:
        handle.write(b'{"torn')
    result = probe_flight_recorder(str(tmp_path))
    assert result.severity == "warn"
    assert "torn tail" in result.summary
    assert "orpheus replay" in result.remediation


def test_write_error_counts_not_raises(tmp_path, monkeypatch):
    from repro import telemetry

    telemetry.enable()
    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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

    recorder = FlightRecorder(root=str(tmp_path), sample=1.0)
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
