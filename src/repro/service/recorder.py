"""The workload flight recorder: what traffic did this daemon serve?

Request tracing (:mod:`repro.service.tracing`) makes a *single*
request observable end to end; this module makes the *workload*
observable. The daemon appends one JSON line per finished request —
including BUSY sheds, which are exactly the requests a capacity story
must not lose — to segmented, size-rotated files under
``.orpheus/journal/flight/``::

    flight-<boot_id>-000001.jsonl
    flight-<boot_id>-000002.jsonl
    ...

Every segment starts with a **header record** naming the schema
version, the daemon pid, its boot id (a fresh id per daemon start, so
readers can split a directory into serving epochs and ``orpheus top``
can detect restarts) and the slow threshold ``slow_ms``. After the
header, each line is one **request record**:

    {"kind": "request", "ts": 1723....,   # arrival wall-clock
     "op": "checkout", "dataset": "inter", "session": 2,
     "trace": "9f2c64b01a77d3e8", "attempt": 0,
     "digest": "5ab0c9...",               # normalized-args digest
     "versions": [3], "status": "ok", "cached": true,
     "phases": {"admission": 1e-05, "queue_wait": 2e-4,
                "execute": 0.013, "serialize": 5e-5},
     "total_s": 0.0133}

``digest`` is a stable hash of the request's arguments (trace context
and request id stripped), so the quarantine and workload
characterization ("how many distinct queries?") never compare dicts.
A request over the slow threshold also carries ``spans``: its phase
child spans, the handler's span subtree grafted under
``service.execute``. That is the whole slow-request view; the doctor's
``flight_recorder`` probe reads it without parsing the other records.

The recorder keeps every request, so ``orpheus heat`` (which mines
it) and the slow view are complete for the segments it retains.
Segments rotate at ``segment_bytes`` and at most ``max_segments`` are
kept (oldest deleted), so an always-on recorder cannot fill a disk.
Every header states both values, so a reader knows the bound the
directory should keep. Appends flush per line but never fsync — the
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
from repro.service.tracing import DEFAULT_SLOW_MS

#: Bumped on incompatible record-shape changes; readers refuse nothing
#: (forward-compatible key lookup).
FLIGHT_SCHEMA_VERSION = 1

FLIGHT_DIR = "flight"

#: The recorder's on-disk bound: ``DEFAULT_MAX_SEGMENTS`` segments of
#: ``DEFAULT_SEGMENT_BYTES`` each.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_SEGMENTS = 8

#: Request params that are transport envelope, not workload: stripped
#: before hashing.
_ENVELOPE_KEYS = ("trace", "id")


def new_boot_id() -> str:
    """A fresh 8-hex-char id for one daemon serving epoch."""
    return uuid.uuid4().hex[:8]


def flight_dir_path(root: str | None = None) -> Path:
    return Path(root or ".") / ".orpheus" / "journal" / FLIGHT_DIR


def normalize_params(params: dict) -> dict:
    """The workload's argument set: request params minus the envelope."""
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
    ``degraded``, or ``worker_error``."""
    if status == "deadline_exceeded":
        return "deadline_exceeded"
    if status == "degraded":
        return "degraded"
    if status == "error" and error_kind == "internal":
        return "worker_error"
    return None


class FlightRecorder:
    """Bounded, size-rotated workload recorder for one daemon.

    One daemon owns the flight directory at a time (the daemon holds
    the repository lock), so the in-memory segment bookkeeping is
    authoritative after construction.
    """

    def __init__(
        self,
        root: str | None = None,
        slow_ms: float = DEFAULT_SLOW_MS,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        boot_id: str | None = None,
        pid: int | None = None,
    ) -> None:
        self.dir = flight_dir_path(root)
        self.slow_ms = slow_ms
        self.segment_bytes = max(4096, int(segment_bytes))
        self.max_segments = max(1, int(max_segments))
        self.boot_id = boot_id or new_boot_id()
        self.pid = os.getpid() if pid is None else pid
        self.records_written = 0
        self._lock = threading.Lock()
        self._handle = None
        self._segment_seq = 0
        self._segment_path: Path | None = None
        self._segment_written = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, rtrace, request, slow: bool = False) -> None:
        """Append one finished request (``RequestTrace`` + its decoded
        ``Request``); a ``slow`` one keeps its phase spans."""
        entry: dict = {
            "kind": "request",
            "ts": rtrace.started_ts,
            "op": rtrace.op,
            "trace": rtrace.trace_id,
            # The daemon stamps the digest at dispatch (quarantine keys
            # on it); recompute only for requests that never got there.
            "digest": getattr(rtrace, "digest", None)
            or args_digest(rtrace.op, request.params),
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
        # never executed): enough for `orpheus heat` to mine the heat
        # model.
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
        if slow:
            entry["spans"] = rtrace.phase_spans()
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
            "slow_ms": self.slow_ms,
            "segment_bytes": self.segment_bytes,
            "max_segments": self.max_segments,
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
            "boot_id": self.boot_id,
            "records_written": self.records_written,
            "segment_bytes": self.segment_bytes,
            "max_segments": self.max_segments,
            "segments": summary["segments"],
            "bytes": summary["bytes"],
            "path": str(self.dir),
        }


# ----------------------------------------------------------------------
# Reading (used by the heat miner, the doctor probe, and the status
# surfaces)
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


#: Appears in a request line only when the record carries ``spans``
#: (keys are sorted and string values escape their quotes).
_SPANS_MARKER = '"spans": ['


def read_slow(flight_dir: str | Path) -> list[dict]:
    """The slow request records (those carrying ``spans``), in captured
    order. Only lines holding the ``spans`` key are parsed, so a
    directory full of fast requests costs a byte scan, not a JSON
    parse per record."""
    slow: list[dict] = []
    for segment in list_segments(flight_dir):
        entries, _torn = fsio.read_jsonl(segment, marker=_SPANS_MARKER)
        slow.extend(
            entry for entry in entries
            if entry.get("kind") == "request" and "spans" in entry
        )
    return slow


def flight_dir_status(flight_dir: str | Path) -> dict:
    """Cheap on-disk summary: segment count, bytes, whether the newest
    segment's tail is torn, and the bound and slow threshold its header
    states (``segment_bytes`` × ``max_segments``, ``slow_ms``; the
    defaults for headers that predate the fields).

    Reads only the newest segment's first and last lines — cheap, and
    safe to call from the doctor and the report while a daemon is
    writing.
    """
    segments = list_segments(flight_dir)
    total = 0
    for segment in segments:
        try:
            total += segment.stat().st_size
        except OSError:
            pass
    header = fsio.jsonl_head(segments[-1]) if segments else {}
    return {
        "segments": len(segments),
        "bytes": total,
        "newest_torn": bool(segments) and fsio.jsonl_torn(segments[-1]),
        "segment_bytes": int(
            header.get("segment_bytes") or DEFAULT_SEGMENT_BYTES
        ),
        "max_segments": int(
            header.get("max_segments") or DEFAULT_MAX_SEGMENTS
        ),
        "slow_ms": float(header.get("slow_ms", DEFAULT_SLOW_MS)),
    }

