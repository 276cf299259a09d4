"""Nestable timing spans carried via :mod:`contextvars`.

Usage::

    with telemetry.span("command.checkout", dataset=name):
        ...

When telemetry is disabled, :func:`span` returns a shared no-op context
manager — no allocation, no contextvar touch. When enabled, each span:

* times itself with the injectable monotonic clock;
* attaches to the enclosing span (building the per-invocation tree the
  CLI prints under ``--timings``);
* aggregates its duration into the registry's per-name span stats;
* closes correctly on exceptions (status ``error``, contextvar reset).

``contextvars`` (rather than a plain global stack) keeps nesting correct
across threads and async tasks for free.
"""

from __future__ import annotations

from contextvars import ContextVar

from repro.telemetry import clock
from repro.telemetry.registry import get_registry

_current: ContextVar["SpanNode | None"] = ContextVar(
    "repro_telemetry_span", default=None
)


class SpanNode:
    """One completed (or in-flight) span in an invocation's tree."""

    __slots__ = (
        "name", "attrs", "started_at", "duration_s", "status", "error",
        "children", "_t0",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.started_at = clock.now()
        self.duration_s: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.children: list[SpanNode] = []
        self._t0 = clock.monotonic()

    def set_attr(self, key: str, value) -> None:
        """Attach an attribute discovered mid-span (e.g. the new vid)."""
        self.attrs[key] = value

    def to_dict(self) -> dict:
        node = {
            "name": self.name,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.error:
            node["error"] = self.error
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def render(self, indent: int = 0) -> str:
        """The ``--timings`` tree line for this node and its subtree."""
        duration = (
            f"{self.duration_s:.6f}s" if self.duration_s is not None else "?"
        )
        attrs = (
            " " + " ".join(f"{k}={v}" for k, v in self.attrs.items())
            if self.attrs
            else ""
        )
        flag = "" if self.status == "ok" else f" [{self.status}]"
        lines = [f"{'  ' * indent}{self.name}  {duration}{flag}{attrs}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class _NullSpan:
    """Shared no-op context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("name", "attrs", "node", "token")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.node: SpanNode | None = None
        self.token = None

    def __enter__(self) -> SpanNode:
        node = self.node = SpanNode(self.name, self.attrs)
        self.token = _current.set(node)
        return node

    def __exit__(self, exc_type, exc, tb) -> bool:
        node = self.node
        _current.reset(self.token)
        node.duration_s = clock.monotonic() - node._t0
        if exc_type is not None:
            node.status = "error"
            node.error = f"{exc_type.__name__}: {exc}"
        registry = get_registry()
        parent = _current.get()
        if parent is not None:
            parent.children.append(node)
        else:
            registry.record_root(node)
        registry.record_span(node.name, node.duration_s, exc_type is not None)
        return False


def span(name: str, **attrs):
    """Open a timing span; a no-op when telemetry is disabled."""
    if not get_registry().enabled:
        return _NULL_SPAN
    return _SpanContext(name, attrs)


def current_span() -> SpanNode | None:
    """The innermost open span, if any (None when disabled/outside)."""
    return _current.get()


def last_span_tree() -> SpanNode | None:
    """The most recently completed root span (for ``--timings``)."""
    return get_registry().last_root
