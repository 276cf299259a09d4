"""The benchmark's own span recorder and the arithmetic on its output.

Spans are recorded from outside the program: the traced run wraps the
public functions at each layer boundary (``wrapped``) and the harness
opens one root span per operation. Spans stay in memory until the run
ends, then go to ``trace_<workload>.jsonl`` one JSON object per line.

The load generator is single-threaded, so the parent of a span is the
span that was open when it started.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    trace_id: str
    span_id: int
    parent: int | None
    name: str
    layer: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.trace_id = ""

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = Span(
            self.trace_id,
            len(self.spans),
            self._open[-1].span_id if self._open else None,
            name,
            layer,
            time.perf_counter_ns(),
            0,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def add(
        self, parent: Span, name: str, layer: str, start_ns: int, duration_ns: int
    ) -> Span:
        """A span measured elsewhere (the daemon's own phase timings),
        placed under ``parent`` and clipped to it."""
        start_ns = min(max(start_ns, parent.start_ns), parent.end_ns)
        span = Span(
            parent.trace_id,
            len(self.spans),
            parent.span_id,
            name,
            layer,
            start_ns,
            min(start_ns + duration_ns, parent.end_ns),
        )
        self.spans.append(span)
        return span

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@contextlib.contextmanager
def wrapped(recorder: Recorder, targets):
    """Wrap ``(owner, attribute, span name, layer)`` callables in spans
    for the duration of the block, restoring the originals after."""
    originals = []
    try:
        for owner, attribute, name, layer in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _spanned(recorder, original, name, layer))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def _spanned(recorder: Recorder, function, name: str, layer: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            return function(*args, **kwargs)

    return wrapper


def self_times(spans: list[Span]) -> dict[int, int]:
    """``span_id -> self time (ns)``: a span's duration minus the part
    of its interval that its child spans cover (overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0, span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start_ns):
            start = max(child.start_ns, reach)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = span.duration_ns - covered
    return result


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between the
    two nearest order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
