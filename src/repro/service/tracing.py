"""End-to-end request tracing for the version service.

A client stamps every request with a W3C-style trace context — a
``trace_id`` naming the whole distributed operation and a
``parent_span_id`` naming the client-side span that issued it::

    {"id": 3, "op": "checkout", ...,
     "trace": {"trace_id": "9f2c...", "parent_span_id": "41ab...",
               "attempt": 0}}

The daemon adopts the client's trace id (minting one only for clients
that sent none), so the server-side span tree, the journal records the
request produces, the slow-request log, and the client's own view all
correlate on one id. Retries of a shed (``busy``) request re-send the
*same* trace id with an incremented ``attempt`` — one logical operation
is one trace, however many times the scheduler bounced it.

:class:`RequestTrace` is the server-side lifecycle record: the
connection thread creates it when a request is decoded, the scheduler
worker marks execution start/end, and the connection thread finalizes
it after the response bytes hit the wire. Its phase timings become the
explicit child spans the observability surface exposes everywhere:

* ``service.admission`` — decode to scheduler acceptance (shed checks,
  queue handoff);
* ``service.queue_wait`` — accepted to execution start (the scheduler
  backlog — the number the asyncio rewrite must drive down);
* ``service.execute`` — the handler itself, with the live telemetry
  span subtree (cache lookup, materialization, ...) grafted beneath;
* ``service.serialize`` — response encode + socket write.

:class:`SlowLog` captures the full span breakdown of outliers into
``.orpheus/journal/slow.jsonl`` (threshold ``ORPHEUS_SLOW_MS``),
bounded by compaction so a misbehaving deployment cannot fill a disk.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

from repro import telemetry
from repro.observe.journal import new_trace_id
from repro.resilience import fsio

#: Request phases, in lifecycle order; also the child-span names
#: (prefixed ``service.``) of every request's span tree.
PHASES = ("admission", "queue_wait", "execute", "serialize")

#: Env var: requests slower than this many milliseconds (wall, decode
#: to last byte written) are captured in the slow-request log. ``0``
#: logs every request (useful in CI); unset uses the default.
SLOW_ENV = "ORPHEUS_SLOW_MS"
DEFAULT_SLOW_MS = 500.0

#: The slow log is compacted down to half this many entries whenever
#: appending would exceed it — bounded by construction.
MAX_SLOW_ENTRIES = 512

SLOW_FILE = "slow.jsonl"


def new_span_id() -> str:
    """A fresh 16-hex-char span id (same width as trace ids)."""
    return uuid.uuid4().hex[:16]


def new_trace_context(
    attempt: int = 0, deadline_ms: float | None = None
) -> dict:
    """A client-side trace context for one logical request.

    ``deadline_ms`` propagates the client's total latency budget: the
    daemon sheds the request with ``deadline_exceeded`` instead of
    executing work whose answer the client has already abandoned.
    """
    context = {
        "trace_id": new_trace_id(),
        "parent_span_id": new_span_id(),
        "attempt": attempt,
    }
    if deadline_ms is not None and deadline_ms > 0:
        context["deadline_ms"] = float(deadline_ms)
    return context


class RequestTrace:
    """The server-side lifecycle of one request, phase by phase.

    Thread handoffs are sequential (connection thread → worker →
    connection thread, synchronized by the scheduler job's done-event),
    so plain attributes are safe without a lock.
    """

    __slots__ = (
        "op", "trace_id", "parent_span_id", "span_id", "attempt",
        "session_id", "user", "dataset", "remote_trace",
        "status", "error_type", "error_kind", "cached", "digest",
        "deadline_ms", "deadline_at",
        "started_ts", "t0", "t_admitted", "t_started", "t_executed",
        "t_sent", "exec_node",
        "rows_scanned", "bytes_scanned", "rows_written", "rows_returned",
        "version_ids",
    )

    def __init__(self, op: str, session=None, trace: dict | None = None,
                 dataset: str | None = None) -> None:
        trace = trace if isinstance(trace, dict) else {}
        self.op = op
        #: True when the client supplied the context (vs. daemon-minted).
        self.remote_trace = bool(trace.get("trace_id"))
        self.trace_id = str(trace.get("trace_id") or new_trace_id())
        parent = trace.get("parent_span_id")
        self.parent_span_id = str(parent) if parent else None
        self.span_id = new_span_id()
        try:
            self.attempt = int(trace.get("attempt", 0))
        except (TypeError, ValueError):
            self.attempt = 0
        self.session_id = getattr(session, "session_id", None)
        self.user = getattr(session, "user", "") or ""
        self.dataset = dataset
        self.status = "ok"
        self.error_type: str | None = None
        #: "user" vs "internal" classification of a failed request.
        self.error_kind: str | None = None
        #: Cache verdict for checkouts ("hit" | "miss"), else None.
        self.cached: bool | None = None
        #: Normalized-params digest, stamped by the daemon at dispatch
        #: (quarantine + flight recorder share one computation).
        self.digest: str | None = None
        self.started_ts = telemetry.now()
        self.t0 = telemetry.monotonic()
        #: Propagated latency budget: ``deadline_ms`` is what the
        #: client sent; ``deadline_at`` is the absolute monotonic
        #: instant it expires, anchored at decode time (t0) — the
        #: closest server-side proxy for the client's send time.
        self.deadline_ms: float | None = None
        self.deadline_at: float | None = None
        raw_deadline = trace.get("deadline_ms")
        if isinstance(raw_deadline, (int, float)) and raw_deadline > 0:
            self.deadline_ms = float(raw_deadline)
            self.deadline_at = self.t0 + self.deadline_ms / 1000.0
        self.t_admitted: float | None = None
        self.t_started: float | None = None
        self.t_executed: float | None = None
        self.t_sent: float | None = None
        #: The completed telemetry SpanNode of the handler, if any.
        self.exec_node = None
        #: Storage-access footprint, stamped from cost-accountant
        #: deltas around the handler (None = never executed / not a
        #: dataset access). Feeds the flight recorder and the heat
        #: model.
        self.rows_scanned: int | None = None
        self.bytes_scanned: int | None = None
        self.rows_written: int | None = None
        self.rows_returned: int | None = None
        #: Version ids the request resolved to (commit stamps its
        #: output vid here — the params only carry the parents).
        self.version_ids: tuple[int, ...] | None = None

    @classmethod
    def from_request(cls, request, session) -> "RequestTrace":
        return cls(
            request.op,
            session=session,
            trace=request.get("trace"),
            dataset=request.get("dataset"),
        )

    # -- lifecycle marks ------------------------------------------------
    def mark_admitted(self) -> None:
        self.t_admitted = telemetry.monotonic()

    def mark_started(self) -> None:
        self.t_started = telemetry.monotonic()

    def mark_executed(self) -> None:
        self.t_executed = telemetry.monotonic()

    def mark_sent(self) -> None:
        self.t_sent = telemetry.monotonic()

    def finish(
        self,
        status: str,
        error_type: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        self.status = status
        self.error_type = error_type
        self.error_kind = error_kind

    def expired(self, now: float | None = None) -> bool:
        """True once the propagated deadline has passed."""
        if self.deadline_at is None:
            return False
        return (telemetry.monotonic() if now is None else now) > self.deadline_at

    # -- derived phase durations ----------------------------------------
    def _delta(self, a: float | None, b: float | None) -> float | None:
        if a is None or b is None:
            return None
        return max(0.0, b - a)

    @property
    def admission_s(self) -> float | None:
        return self._delta(self.t0, self.t_admitted)

    @property
    def queue_wait_s(self) -> float | None:
        return self._delta(self.t_admitted, self.t_started)

    @property
    def execute_s(self) -> float | None:
        return self._delta(self.t_started, self.t_executed)

    @property
    def serialize_s(self) -> float | None:
        # Serialization starts when execution handed back (or, for
        # requests that never executed, when they were last seen).
        last = self.t_executed or self.t_admitted or self.t0
        return self._delta(last, self.t_sent)

    @property
    def total_s(self) -> float:
        end = self.t_sent or telemetry.monotonic()
        return max(0.0, end - self.t0)

    def phase_seconds(self) -> dict:
        """Phase name -> duration, omitting phases that never ran."""
        phases = {}
        for name in PHASES:
            value = getattr(self, f"{name}_s" if name != "execute" else "execute_s")
            if value is not None:
                phases[name] = value
        return phases

    # -- renderings ------------------------------------------------------
    def wire_trace(self) -> dict:
        """The trace summary embedded in the response — enough for the
        client to see the queue-wait/exec split without another call."""
        summary = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "status": self.status,
        }
        if self.parent_span_id:
            summary["parent_span_id"] = self.parent_span_id
        if self.attempt:
            summary["attempt"] = self.attempt
        if self.deadline_ms is not None:
            summary["deadline_ms"] = self.deadline_ms
        if self.rows_scanned is not None:
            summary["rows_scanned"] = self.rows_scanned
        if self.bytes_scanned is not None:
            summary["bytes_scanned"] = self.bytes_scanned
        for name, value in self.phase_seconds().items():
            if name != "serialize":  # measured only after the send
                summary[f"{name}_s"] = round(value, 6)
        return summary

    def to_span_tree(self) -> dict:
        """The full server-side span tree for this request."""
        children = []
        for name, value in self.phase_seconds().items():
            child = {"name": f"service.{name}", "duration_s": value}
            if name == "execute" and self.exec_node is not None:
                child["children"] = [self.exec_node.to_dict()]
            children.append(child)
        tree = {
            "name": "service.request",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "op": self.op,
            "status": self.status,
            "started_at": self.started_ts,
            "duration_s": self.total_s,
        }
        if self.parent_span_id:
            tree["parent_span_id"] = self.parent_span_id
        if self.attempt:
            tree["attempt"] = self.attempt
        if self.session_id is not None:
            tree["session_id"] = self.session_id
        if self.user:
            tree["user"] = self.user
        if self.dataset:
            tree["dataset"] = self.dataset
        if self.cached is not None:
            tree["cached"] = self.cached
        if self.error_type:
            tree["error_type"] = self.error_type
        if self.error_kind:
            tree["error_kind"] = self.error_kind
        if self.deadline_ms is not None:
            tree["deadline_ms"] = self.deadline_ms
        if children:
            tree["children"] = children
        return tree


def slow_threshold_ms() -> float:
    """The configured slow-request threshold in milliseconds."""
    raw = os.environ.get(SLOW_ENV)
    if raw is None or raw == "":
        return DEFAULT_SLOW_MS
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_SLOW_MS


class SlowLog:
    """Bounded JSON-lines log of slow-request span breakdowns.

    One daemon owns the file at a time (the daemon holds the repository
    lock), so an in-memory line count is authoritative after the first
    lazy load; compaction keeps the newest half when the bound is hit.
    """

    def __init__(
        self,
        root: str | None = None,
        threshold_ms: float | None = None,
        max_entries: int = MAX_SLOW_ENTRIES,
    ) -> None:
        self.path = Path(root or ".") / ".orpheus" / "journal" / SLOW_FILE
        self.threshold_ms = (
            slow_threshold_ms() if threshold_ms is None else threshold_ms
        )
        self.max_entries = max(2, max_entries)
        self._count: int | None = None
        self.appended = 0

    def consider(self, trace: RequestTrace) -> bool:
        """Append the request's span tree when it breached the
        threshold; returns True when captured."""
        if trace.total_s * 1000.0 < self.threshold_ms:
            return False
        self.append(trace.to_span_tree())
        return True

    def append(self, tree: dict) -> None:
        if self._count is None:
            self._count = len(self.read())
        if self._count + 1 > self.max_entries:
            keep = self.read()[-(self.max_entries // 2):]
            fsio.rewrite_jsonl(self.path, keep, fsync=False)
            self._count = len(keep)
        fsio.append_jsonl(self.path, tree, fsync=False)
        self._count += 1
        self.appended += 1

    def read(self) -> list[dict]:
        """All well-formed entries, oldest first (torn tails skipped)."""
        return fsio.read_jsonl(self.path)[0]

    def stats(self) -> dict:
        """Summary for ``stats``/``status`` payloads and the doctor."""
        entries = self.read()
        durations = sorted(
            e["duration_s"] for e in entries
            if isinstance(e.get("duration_s"), (int, float))
        )
        p99 = None
        if durations:
            p99 = durations[min(len(durations) - 1, int(0.99 * len(durations)))]
        return {
            "count": len(entries),
            "appended": self.appended,
            "threshold_ms": self.threshold_ms,
            "max_entries": self.max_entries,
            "p99_ms": None if p99 is None else round(p99 * 1000.0, 3),
            "path": str(self.path),
        }
