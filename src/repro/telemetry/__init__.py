"""repro.telemetry — first-class metrics for the version-control hot paths.

The dissertation's claims are quantitative (checkout/commit latency per
data model, LyreSplit speedups, storage/recreation trade-offs); this
package is the measurement layer that lets the reproduction validate
those claims from inside the system rather than with external timers.

Public surface (all process-global, guarded by one enabled flag):

* :func:`enable` / :func:`disable` / :func:`is_enabled` / :func:`reset`
* :func:`count` / :func:`gauge` / :func:`observe` — counters, gauges,
  histograms (p50/p95/max summaries)
* :func:`span` — nestable timing spans via ``contextvars``
* :func:`snapshot` — freeze everything into a JSON/Prometheus-renderable
  :class:`~repro.telemetry.snapshot.Snapshot`
* :func:`now` / :func:`monotonic` / :func:`set_clock` — the injectable
  clock every timestamp in the system goes through

Everything is a no-op costing one branch when telemetry is disabled
(the default), so instrumentation stays in the inner loops permanently.
"""

from __future__ import annotations

from repro.telemetry.clock import (
    Clock,
    FrozenClock,
    SystemClock,
    get_clock,
    monotonic,
    now,
    set_clock,
)
from repro.telemetry.registry import Histogram, Registry, get_registry
from repro.telemetry.snapshot import Snapshot
from repro.telemetry.spans import (
    SpanNode,
    current_span,
    last_span_tree,
    span,
)

__all__ = [
    "Clock",
    "FrozenClock",
    "Histogram",
    "Registry",
    "Snapshot",
    "SpanNode",
    "SystemClock",
    "count",
    "current_span",
    "disable",
    "enable",
    "gauge",
    "get_clock",
    "get_registry",
    "is_enabled",
    "last_span_tree",
    "monotonic",
    "now",
    "observe",
    "reset",
    "set_clock",
    "snapshot",
    "span",
]

def enable() -> None:
    """Turn metric collection on for the whole process."""
    get_registry().enabled = True


def disable() -> None:
    get_registry().enabled = False


def is_enabled() -> bool:
    return get_registry().enabled


def reset() -> None:
    """Drop all recorded metrics (the enabled flag is unaffected)."""
    get_registry().reset()


def count(name: str, amount: float = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    get_registry().inc(name, amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op while disabled)."""
    get_registry().set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    get_registry().observe(name, value)


def snapshot() -> Snapshot:
    """Freeze the current registry contents."""
    return get_registry().snapshot()
