"""Point-in-time views of the metrics registry, in three wire formats.

A :class:`Snapshot` is a plain-data object: a registry's contents —
one invocation's (``--timings``), orpheusd's, or the registry
``orpheus stats`` fills from the journal and the flight record. Renderers:

* :meth:`Snapshot.to_json` — machine-readable (``orpheus stats --json``);
* :meth:`Snapshot.render_text` — the human ``orpheus stats`` output;
* :meth:`Snapshot.render_prometheus` — Prometheus text exposition
  format, for scraping a long-running embedding process.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field


@dataclass
class Snapshot:
    """Frozen registry contents.

    Attributes:
        counters: name -> monotonically accumulated value.
        gauges: name -> last set value.
        histograms: name -> summary dict (count/total/min/max/p50/p95/p99).
        spans: name -> {count, errors, seconds: histogram summary}.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.spans)

    # ------------------------------------------------------------------
    # Renderers
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines: list[str] = []
        if self.spans:
            lines.append(
                "spans (count / errors / total s / p50 s / p95 s / p99 s / max s)"
            )
            for name in sorted(self.spans):
                s = self.spans[name]
                h = s["seconds"]
                lines.append(
                    f"  {name:<40} {s['count']:>7} {s['errors']:>4}"
                    f" {_fmt(h['total'])} {_fmt(h.get('p50'))}"
                    f" {_fmt(h.get('p95'))} {_fmt(h.get('p99'))}"
                    f" {_fmt(h.get('max'))}"
                )
        if self.counters:
            lines.append("counters")
            for name in sorted(self.counters):
                lines.append(f"  {name:<52} {_fmt_num(self.counters[name])}")
        if self.gauges:
            lines.append("gauges")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<52} {_fmt_num(self.gauges[name])}")
        if self.histograms:
            lines.append("histograms (count / total / p50 / p95 / p99 / max)")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name:<40} {h['count']:>7} {_fmt(h['total'])}"
                    f" {_fmt(h.get('p50'))} {_fmt(h.get('p95'))}"
                    f" {_fmt(h.get('p99'))} {_fmt(h.get('max'))}"
                )
        if not lines:
            return "no telemetry recorded\n"
        return "\n".join(lines) + "\n"

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (metric names sanitized)."""
        lines: list[str] = []
        for name in sorted(self.counters):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(self.counters[name])}")
        for name in sorted(self.gauges):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(self.gauges[name])}")
        for name in sorted(self.histograms):
            lines.extend(_prom_summary(_prom_name(name), self.histograms[name]))
        for name in sorted(self.spans):
            stats = self.spans[name]
            metric = _prom_name(f"span.{name}.seconds")
            lines.extend(_prom_summary(metric, stats["seconds"]))
            failed = stats.get("failed_seconds")
            if failed:
                lines.extend(
                    _prom_summary(
                        _prom_name(f"span.{name}.failed_seconds"), failed
                    )
                )
            error_metric = _prom_name(f"span.{name}.errors")
            lines.append(f"# TYPE {error_metric} counter")
            lines.append(f"{error_metric} {stats['errors']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    """A legal exposition-format metric name.

    The charset is ``[a-zA-Z_:][a-zA-Z0-9_:]*``; dotted telemetry names
    and anything else outside it collapse to underscores. The ``repro_``
    prefix guarantees a legal first character even for names that start
    with a digit.
    """
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_label_name(name: str) -> str:
    """A legal label name: ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return cleaned


def _prom_label_value(value: object) -> str:
    """Escape a label value per the exposition format (backslash first)."""
    text = str(value)
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _prom_summary(metric: str, histogram: dict) -> list[str]:
    lines = [f"# TYPE {metric} summary"]
    label = _prom_label_name("quantile")
    for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
        value = histogram.get(key)
        if value is not None:
            lines.append(
                f'{metric}{{{label}="{_prom_label_value(quantile)}"}} {value}'
            )
    lines.append(f"{metric}_sum {histogram['total']}")
    lines.append(f"{metric}_count {histogram['count']}")
    return lines


def _fmt(value: float | None) -> str:
    if value is None:
        return "      -"
    return f"{value:>9.4g}"


def _fmt_num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:.6g}" if isinstance(value, float) else str(value)
