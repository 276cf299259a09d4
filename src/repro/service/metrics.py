"""Daemon-lifetime service metrics: the data behind the `stats` op.

:class:`ServiceMetrics` is the daemon's one request ledger. It
accumulates every finished :class:`RequestTrace` for the daemon's
whole lifetime, independent of the telemetry enabled flag, each
outcome counted once when its request is finalized, and keeps, under
one lock:

* global request/error/BUSY/deadline/degraded/worker-error totals;
* per-op latency and per-phase (admission/queue-wait/execute/serialize)
  histograms with p50/p95/p99;
* per-session and per-dataset (CVD) rollups, the dataset ones with the
  rows and bytes each dataset's requests scanned;
* a bounded ring of recent requests, so ``stats {"recent": n}`` can
  hand back whole span trees without a log file round-trip. A tree is
  rendered only when a reader asks for it.

Rendering reuses the telemetry layer's exposition-format helpers so the
``/metrics`` endpoint and ``orpheus stats --prometheus`` agree on
escaping rules; service families are prefixed ``orpheusd_`` to keep
them distinct from the ``repro_*`` telemetry families.
"""

from __future__ import annotations

import re
import threading
from collections import deque

from repro.telemetry.registry import Histogram
from repro.telemetry.snapshot import _prom_label_value, _prom_value

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


class ServiceMetrics:
    """Thread-safe daemon-lifetime aggregation of request traces."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals = _Outcomes()
        self.slow_total = 0
        self.by_op: dict[str, _OpStats] = {}
        self.by_session: dict[int, dict] = {}
        self.by_dataset: dict[str, dict] = {}
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
                self._roll(
                    self.by_session, rtrace.session_id, rtrace,
                    user=rtrace.user,
                )
            if rtrace.dataset:
                entry = self._roll(
                    self.by_dataset, rtrace.dataset, rtrace,
                    rows_scanned=0, bytes_scanned=0,
                )
                entry["rows_scanned"] += rtrace.rows_scanned or 0
                entry["bytes_scanned"] += rtrace.bytes_scanned or 0
            self.recent.append(rtrace)

    def _roll(self, table: dict, key, rtrace: RequestTrace, **extra) -> dict:
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {
                "count": 0, "errors": 0, "busy": 0, "total_s": 0.0,
            }
            entry.update(extra)
        entry["count"] += 1
        if rtrace.status == "busy":
            entry["busy"] += 1
        elif rtrace.status not in ("ok", "shutdown"):
            entry["errors"] += 1
        entry["total_s"] = round(entry["total_s"] + rtrace.total_s, 6)
        entry["last_op"] = rtrace.op
        entry["last_ts"] = rtrace.started_ts
        return entry

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
                    str(sid): dict(entry)
                    for sid, entry in sorted(self.by_session.items())
                },
                "by_dataset": {
                    name: dict(entry)
                    for name, entry in sorted(self.by_dataset.items())
                },
            }
            traces = list(self.recent)[-recent:] if recent > 0 else None
        if traces is not None:
            payload["recent"] = [rtrace.to_span_tree() for rtrace in traces]
        return payload

    def render_prometheus(
        self,
        extra_counters: dict[str, float] | None = None,
        extra_gauges: dict[str, float] | None = None,
    ) -> str:
        """Exposition-format text for the ``/metrics`` endpoint.

        ``extra_counters``/``extra_gauges`` let the daemon fold in
        cache and scheduler state (monotonic for its lifetime) without
        this module knowing their shape.
        """
        with self._lock:
            lines: list[str] = []
            totals = self.totals
            rolls = self.by_dataset.values()
            scanned_rows = sum(r["rows_scanned"] for r in rolls)
            scanned_bytes = sum(r["bytes_scanned"] for r in rolls)
            for name, value in (
                ("requests_total", totals.count),
                ("errors_total", totals.errors),
                ("busy_total", totals.busy),
                ("deadline_exceeded_responses_total", totals.deadline),
                ("degraded_responses_total", totals.degraded),
                ("worker_errors_total", totals.worker_errors),
                ("slow_requests_total", self.slow_total),
                ("scanned_rows_total", scanned_rows),
                ("scanned_bytes_total", scanned_bytes),
                *sorted((extra_counters or {}).items()),
            ):
                _counter(lines, _family(name), value)
            for name, value in sorted((extra_gauges or {}).items()):
                _gauge(lines, _family(name), value)

            ops = sorted(self.by_op.items())
            if ops:
                lines.append("# TYPE orpheusd_op_requests_total counter")
                for op, stats in ops:
                    lines.append(
                        f'orpheusd_op_requests_total{{op="'
                        f'{_prom_label_value(op)}"}} {stats.count}'
                    )
                lines.append("# TYPE orpheusd_op_errors_total counter")
                for op, stats in ops:
                    lines.append(
                        f'orpheusd_op_errors_total{{op="'
                        f'{_prom_label_value(op)}"}} {stats.errors}'
                    )
                lines.append("# TYPE orpheusd_request_seconds summary")
                for op, stats in ops:
                    lines.extend(
                        _labeled_summary(
                            "orpheusd_request_seconds",
                            {"op": op},
                            stats.latency,
                        )
                    )
                lines.append("# TYPE orpheusd_phase_seconds summary")
                for op, stats in ops:
                    for phase in PHASES:
                        histogram = stats.phases[phase]
                        if histogram.count:
                            lines.extend(
                                _labeled_summary(
                                    "orpheusd_phase_seconds",
                                    {"op": op, "phase": phase},
                                    histogram,
                                )
                            )
            return "\n".join(lines) + "\n"


def _family(name: str) -> str:
    """A legal ``orpheusd_*`` family name from a dotted stats key."""
    return "orpheusd_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _counter(lines: list[str], family: str, value: float) -> None:
    lines.append(f"# TYPE {family} counter")
    lines.append(f"{family} {_prom_value(float(value))}")


def _gauge(lines: list[str], family: str, value: float) -> None:
    lines.append(f"# TYPE {family} gauge")
    lines.append(f"{family} {_prom_value(float(value))}")


def _labeled_summary(
    family: str, labels: dict[str, str], histogram: Histogram
) -> list[str]:
    """Summary sample lines for one labeled series (no TYPE header —
    the caller declares the family type once)."""
    base = ",".join(
        f'{name}="{_prom_label_value(value)}"'
        for name, value in labels.items()
    )
    lines = []
    for quantile, fraction in (("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)):
        value = histogram.percentile(fraction)
        if value is not None:
            lines.append(
                f'{family}{{{base},quantile="{quantile}"}} {value}'
            )
    lines.append(f"{family}_sum{{{base}}} {histogram.total}")
    lines.append(f"{family}_count{{{base}}} {histogram.count}")
    return lines
