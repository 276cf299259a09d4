"""Daemon-lifetime service metrics: the data behind the `stats` op.

:class:`ServiceMetrics` is the daemon's one request ledger. It
accumulates every finished :class:`RequestTrace` for the daemon's
whole lifetime, independent of the telemetry enabled flag, each
outcome counted once when its request is finalized, and keeps, under
one lock:

* global request/error/BUSY/deadline/degraded/worker-error totals;
* per-op latency and per-phase (admission/queue-wait/execute/serialize)
  histograms with p50/p95/p99;
* per-session and per-dataset (CVD) rollups, outcomes classified as
  the totals classify them, the dataset ones with the rows and bytes
  each dataset's requests scanned;
* a bounded ring of recent requests, so ``stats {"recent": n}`` can
  hand back whole span trees without a log file round-trip. A tree is
  rendered only when a reader asks for it.

:func:`exposition` renders the daemon's whole report, this ledger's
part included, for the ``/metrics`` endpoint. It reuses the telemetry
layer's exposition-format helpers so ``/metrics`` and ``orpheus stats
--prometheus`` agree on escaping rules; service families are prefixed
``orpheusd_`` to keep them distinct from the ``repro_*`` telemetry
families.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.telemetry.registry import Histogram
from repro.telemetry.snapshot import (
    _prom_label_value,
    _prom_summary,
    _prom_value,
)

from repro.service.tracing import PHASES, RequestTrace

#: Finished requests kept in the in-memory recent ring.
RECENT_CAP = 64


def _hist_summary(histogram: Histogram) -> dict:
    """Compact JSON summary (no reservoir) for stats payloads."""
    if histogram.count == 0:
        return {"count": 0}
    return {
        "count": histogram.count,
        "total_s": round(histogram.total, 6),
        "min_s": round(histogram.min, 6),
        "max_s": round(histogram.max, 6),
        "p50_s": _round(histogram.percentile(0.50)),
        "p95_s": _round(histogram.percentile(0.95)),
        "p99_s": _round(histogram.percentile(0.99)),
    }


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


class _Outcomes:
    """Request counts by outcome — the one place a request outcome is
    counted, for the whole daemon and for each op. Deadline sheds and
    degraded-mode refusals are *load policy*, not failures: they get
    their own counts, so an error-rate alert never fires because
    clients ran polite budgets. ``worker_errors`` is the subset of
    errors the daemon caused (``error_kind`` internal)."""

    __slots__ = (
        "count", "errors", "busy", "deadline", "degraded", "worker_errors",
    )

    def __init__(self) -> None:
        self.count = self.errors = self.busy = 0
        self.deadline = self.degraded = self.worker_errors = 0

    def add(self, rtrace: RequestTrace) -> None:
        self.count += 1
        if rtrace.status == "busy":
            self.busy += 1
        elif rtrace.status == "deadline_exceeded":
            self.deadline += 1
        elif rtrace.status == "degraded":
            self.degraded += 1
        elif rtrace.status not in ("ok", "shutdown"):
            self.errors += 1
            if rtrace.error_kind == "internal":
                self.worker_errors += 1

    def to_dict(self, count_key: str = "count") -> dict:
        return {
            count_key: self.count,
            "errors": self.errors,
            "busy": self.busy,
            "deadline_exceeded": self.deadline,
            "degraded": self.degraded,
            "worker_errors": self.worker_errors,
        }


class _OpStats(_Outcomes):
    """Per-operation rollup: outcome counts + phase distributions."""

    __slots__ = ("latency", "phases")

    def __init__(self, op: str) -> None:
        super().__init__()
        self.latency = Histogram(op)
        self.phases = {name: Histogram(f"{op}.{name}") for name in PHASES}

    def record(self, rtrace: RequestTrace) -> None:
        self.add(rtrace)
        self.latency.add(rtrace.total_s)
        for name, value in rtrace.phase_seconds().items():
            self.phases[name].add(value)

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "latency": _hist_summary(self.latency),
            "phases": {
                name: _hist_summary(h)
                for name, h in self.phases.items()
                if h.count
            },
        }


class _Rollup(_Outcomes):
    """One session's or one dataset's requests: their outcomes, and
    ``fields`` (their time, the last of them, a session's user, a
    dataset's scans)."""

    __slots__ = ("fields",)

    def __init__(self, **fields) -> None:
        super().__init__()
        self.fields = {"total_s": 0.0, **fields}

    def add(self, rtrace: RequestTrace) -> None:
        super().add(rtrace)
        fields = self.fields
        fields["total_s"] = round(fields["total_s"] + rtrace.total_s, 6)
        fields.update(last_op=rtrace.op, last_ts=rtrace.started_ts)
        for scanned in ("rows_scanned", "bytes_scanned"):
            if scanned in fields:
                fields[scanned] += getattr(rtrace, scanned) or 0

    def to_dict(self) -> dict:
        return {**super().to_dict(), **self.fields}


class ServiceMetrics:
    """Thread-safe daemon-lifetime aggregation of request traces."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals = _Outcomes()
        self.slow_total = 0
        self.by_op: dict[str, _OpStats] = {}
        self.by_session: dict[int, _Rollup] = {}
        self.by_dataset: dict[str, _Rollup] = {}
        self.recent: deque[RequestTrace] = deque(maxlen=RECENT_CAP)

    def record(self, rtrace: RequestTrace, slow: bool = False) -> None:
        """Fold one finished request into every rollup."""
        with self._lock:
            self.totals.add(rtrace)
            if slow:
                self.slow_total += 1
            op_stats = self.by_op.get(rtrace.op)
            if op_stats is None:
                op_stats = self.by_op[rtrace.op] = _OpStats(rtrace.op)
            op_stats.record(rtrace)
            if rtrace.session_id is not None:
                sessions, session = self.by_session, rtrace.session_id
                if session not in sessions:
                    sessions[session] = _Rollup(user=rtrace.user)
                sessions[session].add(rtrace)
            if rtrace.dataset:
                datasets, dataset = self.by_dataset, rtrace.dataset
                if dataset not in datasets:
                    datasets[dataset] = _Rollup(rows_scanned=0, bytes_scanned=0)
                datasets[dataset].add(rtrace)
            self.recent.append(rtrace)

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def to_dict(self, recent: int = 0) -> dict:
        """The ``stats`` op payload (request up to ``recent`` span
        trees, rendered here, outside the lock)."""
        with self._lock:
            payload = {
                "requests": {
                    **self.totals.to_dict(count_key="total"),
                    "slow": self.slow_total,
                },
                "by_op": {
                    op: stats.to_dict()
                    for op, stats in sorted(self.by_op.items())
                },
                "by_session": {
                    str(sid): entry.to_dict()
                    for sid, entry in sorted(self.by_session.items())
                },
                "by_dataset": {
                    name: entry.to_dict()
                    for name, entry in sorted(self.by_dataset.items())
                },
            }
            traces = list(self.recent)[-recent:] if recent > 0 else None
        if traces is not None:
            payload["recent"] = [rtrace.to_span_tree() for rtrace in traces]
        return payload


#: The ``/metrics`` families read straight off the report, in
#: exposition order: family (after ``orpheusd_``) -> (report block,
#: key). A ``_total`` family is a counter, any other a gauge.
FAMILIES = {
    "requests_total": ("requests", "total"),
    "errors_total": ("requests", "errors"),
    "busy_total": ("requests", "busy"),
    "deadline_exceeded_responses_total": ("requests", "deadline_exceeded"),
    "degraded_responses_total": ("requests", "degraded"),
    "worker_errors_total": ("requests", "worker_errors"),
    "slow_requests_total": ("requests", "slow"),
    "cache_hits_total": ("cache", "hits"),
    "cache_misses_total": ("cache", "misses"),
    "cache_evictions_total": ("cache", "evictions"),
    "cache_invalidations_total": ("cache", "invalidations"),
    "scheduler_shed_reads_total": ("scheduler", "shed_reads"),
    "scheduler_shed_writes_total": ("scheduler", "shed_writes"),
    "scheduler_deadline_shed_total": ("scheduler", "deadline_shed"),
    "sessions_opened_total": ("sessions", "total_opened"),
    "degraded_entries_total": ("degrade", "entries_total"),
    "page_faults_total": ("buffer_pool", "faults"),
    "read_queue_depth": ("scheduler", "read_queue_depth"),
    "write_queue_depth": ("scheduler", "write_queue_depth"),
    "cache_entries": ("cache", "entries"),
    "cache_bytes": ("cache", "bytes"),
    "sessions_active": ("sessions", "active"),
    "draining": ("server", "draining"),
    "degraded": ("degrade", "degraded"),
    "quarantined_digests": ("quarantine", "quarantined"),
}


def exposition(report: dict) -> str:
    """Prometheus text exposition of orpheusd's one report
    (``stats_payload()``): the ``/metrics`` endpoint. Every value is the
    report's, latency summaries at its 1 µs rounding; a block the report
    lacks reads 0."""
    datasets = report.get("by_dataset", {}).values()
    samples = {
        family: report.get(block, {}).get(key, 0)
        for family, (block, key) in FAMILIES.items()
    }
    samples["scanned_rows_total"] = sum(d["rows_scanned"] for d in datasets)
    samples["scanned_bytes_total"] = sum(d["bytes_scanned"] for d in datasets)
    lines: list[str] = []
    for family, value in samples.items():
        kind = "counter" if family.endswith("_total") else "gauge"
        lines.append(f"# TYPE orpheusd_{family} {kind}")
        lines.append(f"orpheusd_{family} {_prom_value(float(value))}")
    ops = sorted(report.get("by_op", {}).items())
    if ops:
        for family, key in (
            ("op_requests_total", "count"), ("op_errors_total", "errors"),
        ):
            lines.append(f"# TYPE orpheusd_{family} counter")
            lines.extend(
                f'orpheusd_{family}{{op="{_prom_label_value(op)}"}} '
                f"{stats[key]}"
                for op, stats in ops
            )
        lines += _prom_summary(
            "orpheusd_request_seconds",
            *(({"op": op}, _unsuffixed(stats["latency"])) for op, stats in ops),
        )
        lines += _prom_summary(
            "orpheusd_phase_seconds",
            *(
                ({"op": op, "phase": phase}, _unsuffixed(summary))
                for op, stats in ops
                for phase, summary in stats["phases"].items()
            ),
        )
    return "\n".join(lines) + "\n"


def _unsuffixed(summary: dict) -> dict:
    """A report latency summary (``p50_s``, ``total_s``, ...) keyed as
    the summary writer reads it (``p50``, ``total``, ...)."""
    return {key.removesuffix("_s"): value for key, value in summary.items()}
