"""The process-global metrics registry: counters, gauges, histograms.

Design constraints, in order:

1. **Cheap when disabled.** Every mutator checks one boolean before
   doing anything else; instrumentation left in hot paths (checkout
   joins, commit inner loops) costs a single attribute load + branch
   per call when telemetry is off.
2. **Thread-safe when enabled.** All mutations take the registry lock.
   The version-control layer itself is single-threaded today, but the
   ROADMAP's scaling direction (sharding, async) must not require
   re-plumbing the metrics layer.
3. **Bounded.** A histogram keeps a bounded reservoir, decimated
   deterministically (no randomness, so tests are reproducible), so a
   long-lived registry — orpheusd's, or the one ``orpheus stats``
   fills from the record — stays small.
"""

from __future__ import annotations

import threading

#: Reservoir size per histogram; beyond this, observations are
#: decimated deterministically (keep-every-other, doubling stride).
RESERVOIR_CAP = 2048


class Histogram:
    """Streaming distribution summary with a bounded value reservoir."""

    __slots__ = (
        "name", "count", "total", "min", "max", "values", "stride", "_skip"
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.values: list[float] = []
        self.stride = 1
        self._skip = 0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._skip += 1
        if self._skip >= self.stride:
            self._skip = 0
            self.values.append(value)
            if len(self.values) >= RESERVOIR_CAP:
                self.values = self.values[::2]
                self.stride *= 2

    def percentile(self, fraction: float) -> float | None:
        """Nearest-rank percentile over the reservoir (None when empty)."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank]

    def summary(self) -> dict:
        """Serializable form (the reservoir stays in the registry)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class SpanStats:
    """Aggregate view of one span name: call count, errors, durations.

    Failed spans are counted (``count``, ``errors``) and timed into the
    separate ``failed_seconds`` histogram, so the ``seconds`` latency
    distribution only ever describes successful operations — an aborted
    checkout's near-zero duration must not drag p50 down.
    """

    __slots__ = ("name", "count", "errors", "seconds", "failed_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.errors = 0
        self.seconds = Histogram(name)
        self.failed_seconds = Histogram(name + ".failed")

    def record(self, seconds: float, error: bool) -> None:
        self.count += 1
        if error:
            self.errors += 1
            self.failed_seconds.add(seconds)
        else:
            self.seconds.add(seconds)


class Registry:
    """A metrics registry; the process-global one lives in this module."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, SpanStats] = {}
        #: The most recently completed *root* span tree (a SpanNode),
        #: kept for `orpheus --timings`; not part of snapshots.
        self.last_root = None

    # -- mutators (each bails on the first line when disabled) ----------
    def inc(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name)
            histogram.add(value)

    def record_span(self, name: str, seconds: float, error: bool) -> None:
        if not self.enabled:
            return
        with self._lock:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = SpanStats(name)
            stats.record(seconds, error)

    def record_root(self, node) -> None:
        if not self.enabled:
            return
        self.last_root = node

    # -- readers --------------------------------------------------------
    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, float]:
        """The non-zero counters whose names start with ``prefix``."""
        with self._lock:
            return {
                name: value for name, value in self._counters.items()
                if value and name.startswith(prefix)
            }

    def snapshot(self):
        """Freeze the registry into a :class:`~repro.telemetry.snapshot.Snapshot`."""
        from repro.telemetry.snapshot import Snapshot

        with self._lock:
            return Snapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: h.summary() for name, h in self._histograms.items()
                },
                spans={
                    name: _span_summary(s) for name, s in self._spans.items()
                },
            )

    def reset(self) -> None:
        """Drop all recorded metrics (the enabled flag is unaffected)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self.last_root = None


def _span_summary(stats: SpanStats) -> dict:
    summary = {
        "count": stats.count,
        "errors": stats.errors,
        "seconds": stats.seconds.summary(),
    }
    # Only failing invocations earn the extra histogram; old snapshots
    # (and the common all-green case) stay compact.
    if stats.failed_seconds.count:
        summary["failed_seconds"] = stats.failed_seconds.summary()
    return summary


_global = Registry()


def get_registry() -> Registry:
    return _global
