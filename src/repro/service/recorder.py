"""The workload flight recorder: what traffic did this daemon serve?

PR 6 made a *single* request observable end to end; this module makes
the *workload* observable. The daemon appends one JSON line per
finished request — including BUSY sheds, which are exactly the
requests a capacity story must not lose — to segmented, size-rotated
files under ``.orpheus/journal/flight/``::

    flight-<boot_id>-000001.jsonl
    flight-<boot_id>-000002.jsonl
    ...

Every segment starts with a **header record** naming the schema
version, the daemon pid, and its boot id (a fresh id per daemon start,
so readers can split a directory into serving epochs and ``orpheus
top`` can detect restarts). After the header, each line is one
**request record**:

    {"kind": "request", "ts": 1723....,   # arrival wall-clock
     "op": "checkout", "dataset": "inter", "session": 2,
     "trace": "9f2c64b01a77d3e8", "attempt": 0,
     "digest": "5ab0c9...",               # normalized-args digest
     "params": {"dataset": "inter", "versions": [3]},
     "status": "ok", "cached": true,
     "phases": {"admission": 1e-05, "queue_wait": 2e-4,
                "execute": 0.013, "serialize": 5e-5},
     "total_s": 0.0133}

``params`` is the normalized argument set (trace context and request
id stripped) — enough for :mod:`repro.service.replay` to re-issue the
workload; ``digest`` is its stable hash, so workload characterization
("how many distinct queries?") never needs to compare dicts.

Sampling (``orpheus serve --flight-sample``, default 1.0) is
deterministic per trace id: all BUSY retries of one logical operation
are kept or dropped together, and a replayed comparison stays
apples-to-apples. At ``0`` the record call is a single attribute test
— dialing the recorder down costs nothing measurable on the request
path.

Bounds: segments rotate at ``segment_bytes`` and at most
``max_segments`` are kept (oldest deleted), so an always-on recorder
cannot fill a disk. Appends flush per line but never fsync — the
flight record is observability, not durability; a torn tail from a
crash is skipped by readers the same way the journals tolerate it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid
from pathlib import Path

from repro import telemetry
from repro.resilience import fsio

#: Bumped on incompatible record-shape changes; readers refuse nothing
#: (forward-compatible key lookup) but replay warns on a mismatch.
FLIGHT_SCHEMA_VERSION = 1

FLIGHT_DIR = "flight"

#: Fraction of traces recorded by default (0 disables, 1 records all).
DEFAULT_SAMPLE = 1.0

#: Rotation defaults; ``orpheus serve --flight-segment-mb /
#: --flight-segments`` override.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_SEGMENTS = 8

#: Request params that are transport envelope, not workload: stripped
#: before hashing and recording.
_ENVELOPE_KEYS = ("trace", "id")


def new_boot_id() -> str:
    """A fresh 8-hex-char id for one daemon serving epoch."""
    return uuid.uuid4().hex[:8]


def flight_dir_path(root: str | None = None) -> Path:
    return Path(root or ".") / ".orpheus" / "journal" / FLIGHT_DIR


def normalize_params(params: dict) -> dict:
    """The replayable argument set: request params minus the envelope."""
    return {
        key: value
        for key, value in params.items()
        if key not in _ENVELOPE_KEYS and value is not None
    }


def args_digest(op: str, params: dict) -> str:
    """A stable 16-hex-char digest of (op, normalized args)."""
    payload = json.dumps(
        [op, normalize_params(params)], sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def request_outcome(status: str, error_kind: str | None) -> str | None:
    """The fault-outcome tag a record carries (None for the ordinary
    ok/busy/error-by-the-user cases): ``deadline_exceeded``,
    ``degraded``, or ``worker_error``. Replay comparison reports count
    these so a chaos capture replays apples-to-apples."""
    if status == "deadline_exceeded":
        return "deadline_exceeded"
    if status == "degraded":
        return "degraded"
    if status == "error" and error_kind == "internal":
        return "worker_error"
    return None


def _trace_keep(trace_id: str, sample: float) -> bool:
    """Deterministic per-trace sampling: one logical operation (all its
    BUSY retries share a trace id) is kept or dropped as a unit."""
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    digest = hashlib.sha256(trace_id.encode("utf-8", "replace")).digest()
    return int.from_bytes(digest[:4], "big") / 0xFFFFFFFF < sample


class FlightRecorder:
    """Bounded, size-rotated workload recorder for one daemon.

    One daemon owns the flight directory at a time (the daemon holds
    the repository lock), so the in-memory segment bookkeeping is
    authoritative after construction.
    """

    def __init__(
        self,
        root: str | None = None,
        sample: float = DEFAULT_SAMPLE,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        boot_id: str | None = None,
        pid: int | None = None,
    ) -> None:
        self.dir = flight_dir_path(root)
        self.sample = min(1.0, max(0.0, sample))
        self.segment_bytes = max(4096, int(segment_bytes))
        self.max_segments = max(1, int(max_segments))
        self.boot_id = boot_id or new_boot_id()
        self.pid = os.getpid() if pid is None else pid
        self.enabled = self.sample > 0.0
        self.records_written = 0
        self.records_sampled_out = 0
        self._lock = threading.Lock()
        self._handle = None
        self._segment_seq = 0
        self._segment_path: Path | None = None
        self._segment_written = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, rtrace, request) -> None:
        """Append one finished request (``RequestTrace`` + its decoded
        ``Request``). The fast path when dialed to 0 is one attribute
        test and a return."""
        if not self.enabled:
            return
        if not _trace_keep(rtrace.trace_id, self.sample):
            self.records_sampled_out += 1
            return
        params = normalize_params(request.params)
        entry: dict = {
            "kind": "request",
            "ts": rtrace.started_ts,
            "op": rtrace.op,
            "trace": rtrace.trace_id,
            # The daemon stamps the digest at dispatch (quarantine keys
            # on it); recompute only for requests that never got there.
            "digest": getattr(rtrace, "digest", None)
            or args_digest(rtrace.op, request.params),
            "params": params,
            "status": rtrace.status,
            "total_s": round(rtrace.total_s, 6),
        }
        outcome = request_outcome(
            rtrace.status, getattr(rtrace, "error_kind", None)
        )
        if outcome is not None:
            entry["outcome"] = outcome
        if rtrace.dataset:
            entry["dataset"] = rtrace.dataset
        if rtrace.session_id is not None:
            entry["session"] = rtrace.session_id
        if rtrace.user:
            entry["user"] = rtrace.user
        if rtrace.attempt:
            entry["attempt"] = rtrace.attempt
        if rtrace.cached is not None:
            entry["cached"] = rtrace.cached
        if rtrace.error_type:
            entry["error_type"] = rtrace.error_type
        if getattr(rtrace, "error_kind", None):
            entry["error_kind"] = rtrace.error_kind
        # Storage-access stamps (additive; absent on requests that
        # never executed): enough for `orpheus heat --from-flight` to
        # rebuild the heat model and for replay's I/O-drift section.
        if getattr(rtrace, "rows_scanned", None) is not None:
            entry["rows_scanned"] = rtrace.rows_scanned
        if getattr(rtrace, "bytes_scanned", None) is not None:
            entry["bytes_scanned"] = rtrace.bytes_scanned
        if getattr(rtrace, "rows_written", None) is not None:
            entry["rows_written"] = rtrace.rows_written
        if getattr(rtrace, "rows_returned", None) is not None:
            entry["rows_returned"] = rtrace.rows_returned
        if getattr(rtrace, "version_ids", None):
            entry["versions"] = list(rtrace.version_ids)
        phases = {
            name: round(value, 6)
            for name, value in rtrace.phase_seconds().items()
        }
        if phases:
            entry["phases"] = phases
        self.append(entry)

    def append(self, entry: dict) -> None:
        """Append one already-shaped record under the writer lock."""
        data = fsio.jsonl_line(entry)
        try:
            with self._lock:
                handle = self._current_handle(len(data))
                handle.write(data)
                handle.flush()
                self._segment_written += len(data)
                self.records_written += 1
        except OSError:
            # A full disk must not take the request path down with it.
            telemetry.count("service.flight.write_errors")
            return
        telemetry.count("service.flight.records")

    def _current_handle(self, incoming: int):
        """The open segment, rotating first if this write would breach
        the size bound. Called under ``self._lock``."""
        if (
            self._handle is not None
            and self._segment_written + incoming > self.segment_bytes
        ):
            self._close_handle()
        if self._handle is None:
            self._open_segment()
        return self._handle

    def _open_segment(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        self._segment_seq += 1
        self._segment_path = self.dir / (
            f"flight-{self.boot_id}-{self._segment_seq:06d}.jsonl"
        )
        self._handle = open(self._segment_path, "ab")
        header = {
            "kind": "header",
            "schema": FLIGHT_SCHEMA_VERSION,
            "boot_id": self.boot_id,
            "pid": self.pid,
            "segment": self._segment_seq,
            "sample": self.sample,
            "ts": telemetry.now(),
        }
        data = fsio.jsonl_line(header)
        self._handle.write(data)
        self._handle.flush()
        self._segment_written = len(data)
        self._prune()

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _prune(self) -> None:
        """Keep at most ``max_segments`` files in the directory (all
        epochs counted — the bound is on disk, not per boot)."""
        segments = list_segments(self.dir)
        for stale in segments[: max(0, len(segments) - self.max_segments)]:
            if stale == self._segment_path:
                continue
            try:
                stale.unlink()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._close_handle()

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The flight line in ``stats``/``status`` payloads."""
        summary = flight_dir_status(self.dir)
        return {
            "enabled": self.enabled,
            "sample": self.sample,
            "boot_id": self.boot_id,
            "records_written": self.records_written,
            "sampled_out": self.records_sampled_out,
            "segment_bytes": self.segment_bytes,
            "max_segments": self.max_segments,
            "segments": summary["segments"],
            "bytes": summary["bytes"],
            "path": str(self.dir),
        }


# ----------------------------------------------------------------------
# Reading (used by replay, the doctor probe, and the status surfaces)
# ----------------------------------------------------------------------
def list_segments(flight_dir: str | Path) -> list[Path]:
    """Segment files oldest-first (the name embeds boot id + sequence;
    mtime breaks ties across boots so epochs stay in serving order)."""
    directory = Path(flight_dir)
    try:
        segments = [
            path
            for path in directory.iterdir()
            if path.name.startswith("flight-")
            and path.name.endswith(".jsonl")
        ]
    except OSError:
        return []
    def _key(path: Path):
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0
        return (mtime, path.name)
    return sorted(segments, key=_key)


def read_segment(path: str | Path) -> tuple[dict | None, list[dict], bool]:
    """One segment -> (header, records, torn_tail).

    Malformed interior lines are skipped; a final line that does not
    parse (or a file not ending in a newline) marks the tail torn —
    expected after a crash, never fatal.
    """
    entries, torn = fsio.read_jsonl(path)
    header: dict | None = None
    records: list[dict] = []
    for entry in entries:
        if entry.get("kind") == "header" and header is None:
            header = entry
        elif entry.get("kind") == "request":
            records.append(entry)
    return header, records, torn


def read_flight(flight_dir: str | Path) -> dict:
    """The whole directory -> {"headers", "records", "torn_segments"}.

    Records come back in captured order (segments oldest-first, lines
    in file order); callers sort by ``ts`` if they need strict arrival
    order across concurrent sessions.
    """
    headers: list[dict] = []
    records: list[dict] = []
    torn: list[str] = []
    for segment in list_segments(flight_dir):
        header, segment_records, segment_torn = read_segment(segment)
        if header is not None:
            headers.append(header)
        records.extend(segment_records)
        if segment_torn:
            torn.append(segment.name)
    return {"headers": headers, "records": records, "torn_segments": torn}


def flight_dir_status(flight_dir: str | Path) -> dict:
    """Cheap on-disk summary: segment count, bytes, torn newest tail.

    Reads only the newest segment's bytes (for the torn check) — safe
    to call from the doctor and the status surfaces while a daemon is
    writing.
    """
    segments = list_segments(flight_dir)
    total = 0
    for segment in segments:
        try:
            total += segment.stat().st_size
        except OSError:
            pass
    newest_torn = False
    if segments:
        _header, _records, newest_torn = read_segment(segments[-1])
    return {
        "segments": len(segments),
        "bytes": total,
        "newest_torn": newest_torn,
    }
