"""Trace-driven workload replay: re-run a recorded flight against a
live daemon and compare.

``orpheus replay <flight-dir>`` loads the segments the flight recorder
captured, re-issues every recorded request through
:class:`~repro.service.client.ServiceClient` — one client connection
per recorded session, preserving the recorded inter-arrival times (or
compressing them uniformly with ``--speedup``) — and emits a
recorded-vs-replayed comparison report:

* per-op request counts and latency percentiles (p50/p95/p99 of the
  server-side admission + queue-wait + execute time, the same phase
  split on both sides so the comparison is apples-to-apples);
* BUSY-shed delta — did the replayed daemon shed more or less than the
  recorded one under the same offered load?
* cache-hit delta for checkouts — is the materialized-version cache
  pulling its weight the same way?

Replay is *open-loop*: requests fire on the recorded schedule whether
or not earlier ones completed, and a shed request is **not** retried —
the shed itself is the signal being measured. ``hello`` and
``shutdown`` are never re-issued (a recorded shutdown must not kill
the daemon being measured); everything else replays verbatim, so
file-based operations (commit, file checkouts) expect their files
where the recording left them.

``--check`` turns the report into a gate: exit non-zero when any op's
replayed p95 drifts past the latency budget (relative ``--budget-pct``
AND absolute ``--budget-ms`` floor — the bench regression gate's noise
rule, :func:`repro.observe.regress.breaches`), or when the replayed op counts fail to reproduce
the recording.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from repro.observe.regress import breaches
from repro.service.recorder import (
    FLIGHT_SCHEMA_VERSION,
    read_flight,
    request_outcome,
)

#: Bumped on incompatible report-shape changes; consumers (CI, tests)
#: key on it.
REPLAY_SCHEMA_VERSION = 1
REPLAY_KIND = "orpheus-replay"

#: Never re-issued: session plumbing and daemon lifecycle.
SKIP_OPS = frozenset({"hello", "shutdown"})

#: Phase names summed into the compared duration. ``serialize`` is
#: excluded: the recorder measures it after the bytes hit the wire,
#: but a replaying client's response trace cannot carry it.
COMPARE_PHASES = ("admission", "queue_wait", "execute")

#: Default drift budget: replayed p95 may exceed recorded p95 by this
#: much relatively AND absolutely before ``--check`` fails.
DEFAULT_BUDGET_PCT = 50.0
DEFAULT_BUDGET_MS = 5.0

#: Fault outcomes compared recorded-vs-replayed (a chaos capture must
#: replay its failure mix, not just its latencies).
FAULT_OUTCOMES = ("deadline_exceeded", "degraded", "worker_error")


def _percentile(sorted_values: list[float], fraction: float) -> float | None:
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def _summary(durations: list[float]) -> dict:
    """count + p50/p95/p99 of one duration population."""
    ordered = sorted(durations)
    return {
        "count": len(ordered),
        "p50_s": _round(_percentile(ordered, 0.50)),
        "p95_s": _round(_percentile(ordered, 0.95)),
        "p99_s": _round(_percentile(ordered, 0.99)),
    }


def _round(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def record_duration_s(record: dict) -> float:
    """The compared duration of one recorded request."""
    phases = record.get("phases")
    if isinstance(phases, dict):
        total = sum(
            float(phases[name])
            for name in COMPARE_PHASES
            if isinstance(phases.get(name), (int, float))
        )
        if total > 0.0:
            return total
    value = record.get("total_s")
    return float(value) if isinstance(value, (int, float)) else 0.0


@dataclass
class ReplayedRequest:
    """The outcome of re-issuing one recorded request."""

    op: str
    dataset: str | None
    #: "ok" | "busy" | "error" | "deadline_exceeded" | "degraded" |
    #: "worker_error"
    status: str
    duration_s: float
    wall_s: float
    cached: bool | None = None
    error: str | None = None
    #: Server-side storage-access stamps from the response trace
    #: (None when the daemon predates them or the request never ran).
    rows_scanned: int | None = None
    bytes_scanned: int | None = None


@dataclass
class Workload:
    """A loaded flight directory, ready to replay."""

    records: list[dict]
    headers: list[dict] = field(default_factory=list)
    torn_segments: list[str] = field(default_factory=list)
    skipped: int = 0

    @property
    def warnings(self) -> list[str]:
        notes = []
        for header in self.headers:
            if header.get("schema") != FLIGHT_SCHEMA_VERSION:
                notes.append(
                    f"segment schema {header.get('schema')!r} != "
                    f"{FLIGHT_SCHEMA_VERSION} (boot {header.get('boot_id')})"
                )
        for name in self.torn_segments:
            notes.append(f"torn tail skipped in {name}")
        return notes


def load_workload(flight_dir) -> Workload:
    """Read a flight directory into arrival order, dropping the ops
    that must not replay."""
    flight = read_flight(flight_dir)
    replayable = []
    skipped = 0
    for record in flight["records"]:
        if record.get("op") in SKIP_OPS or not record.get("op"):
            skipped += 1
            continue
        replayable.append(record)
    replayable.sort(key=lambda r: float(r.get("ts") or 0.0))
    return Workload(
        records=replayable,
        headers=flight["headers"],
        torn_segments=flight["torn_segments"],
        skipped=skipped,
    )


# ----------------------------------------------------------------------
# Replay engine
# ----------------------------------------------------------------------
class _SessionPlayer(threading.Thread):
    """One recorded session replayed over one client connection."""

    def __init__(
        self,
        records: list[dict],
        start_at: float,
        base_ts: float,
        speedup: float,
        client_factory,
    ) -> None:
        super().__init__(daemon=True)
        self.records = records
        self.start_at = start_at
        self.base_ts = base_ts
        self.speedup = speedup
        self.client_factory = client_factory
        self.outcomes: list[ReplayedRequest] = []
        self.fatal: str | None = None

    def run(self) -> None:
        from repro.service.client import (
            ServiceBusyError,
            ServiceDeadlineError,
            ServiceDegradedError,
            ServiceError,
            ServiceInternalError,
            ServiceUnavailableError,
        )

        try:
            client = self.client_factory()
        except Exception as error:
            self.fatal = f"connect failed: {error}"
            return
        try:
            for record in self.records:
                offset = (
                    float(record.get("ts") or self.base_ts) - self.base_ts
                ) / self.speedup
                delay = self.start_at + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                params = record.get("params")
                params = dict(params) if isinstance(params, dict) else {}
                status, cached, error = "ok", None, None
                wall0 = time.monotonic()
                try:
                    data = client.request(record["op"], **params)
                    if isinstance(data.get("cached"), bool):
                        cached = data["cached"]
                except ServiceBusyError:
                    status = "busy"
                except ServiceUnavailableError as exc:
                    self.fatal = str(exc)
                    return
                except ServiceDeadlineError as exc:
                    status, error = "deadline_exceeded", str(exc)
                except ServiceDegradedError as exc:
                    status, error = "degraded", str(exc)
                except ServiceInternalError as exc:
                    status, error = "worker_error", str(exc)
                except ServiceError as exc:
                    status, error = "error", str(exc)
                wall = time.monotonic() - wall0
                trace = client.last_trace or {}
                duration = sum(
                    float(trace[key])
                    for key in (
                        "admission_s", "queue_wait_s", "execute_s",
                    )
                    if isinstance(trace.get(key), (int, float))
                )
                self.outcomes.append(
                    ReplayedRequest(
                        op=record["op"],
                        dataset=record.get("dataset"),
                        status=status,
                        duration_s=duration if duration > 0.0 else wall,
                        wall_s=wall,
                        cached=cached,
                        error=error,
                        rows_scanned=(
                            int(trace["rows_scanned"])
                            if isinstance(
                                trace.get("rows_scanned"), (int, float)
                            )
                            else None
                        ),
                        bytes_scanned=(
                            int(trace["bytes_scanned"])
                            if isinstance(
                                trace.get("bytes_scanned"), (int, float)
                            )
                            else None
                        ),
                    )
                )
        finally:
            try:
                client.close()
            except Exception:
                pass


def run_replay(
    flight_dir,
    root: str | None = None,
    socket_path: str | None = None,
    user: str = "",
    speedup: float = 1.0,
    timeout: float = 60.0,
) -> dict:
    """Replay one flight directory and return the comparison report."""
    from repro.service.client import ServiceClient

    workload = load_workload(flight_dir)
    if not workload.records:
        return build_report(workload, [], speedup, flight_dir, wall_s=0.0)
    speedup = max(1e-6, float(speedup))
    base_ts = float(workload.records[0].get("ts") or 0.0)

    sessions: dict[object, list[dict]] = {}
    for record in workload.records:
        sessions.setdefault(record.get("session"), []).append(record)

    def client_factory() -> ServiceClient:
        return ServiceClient(
            socket_path=socket_path, root=root, user=user, timeout=timeout
        ).connect()

    start_at = time.monotonic() + 0.05
    players = [
        _SessionPlayer(records, start_at, base_ts, speedup, client_factory)
        for _session, records in sorted(
            sessions.items(), key=lambda item: str(item[0])
        )
    ]
    wall0 = time.monotonic()
    for player in players:
        player.start()
    for player in players:
        player.join()
    wall = time.monotonic() - wall0

    outcomes: list[ReplayedRequest] = []
    fatal: list[str] = []
    for player in players:
        outcomes.extend(player.outcomes)
        if player.fatal:
            fatal.append(player.fatal)
    report = build_report(
        workload, outcomes, speedup, flight_dir, wall_s=wall
    )
    if fatal:
        report["warnings"] = report.get("warnings", []) + fatal
    return report


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def build_report(
    workload: Workload,
    outcomes: list[ReplayedRequest],
    speedup: float,
    flight_dir,
    wall_s: float,
) -> dict:
    """The recorded-vs-replayed comparison payload. Schema version
    :data:`REPLAY_SCHEMA_VERSION`; tests pin the key set."""
    recorded = workload.records

    rec_by_op: dict[str, list[float]] = {}
    rep_by_op: dict[str, list[float]] = {}
    rec_datasets: dict[str, int] = {}
    rep_datasets: dict[str, int] = {}
    rec_busy = rep_busy = rep_errors = 0
    rec_hits = rec_lookups = rep_hits = rep_lookups = 0
    rec_faults = {name: 0 for name in FAULT_OUTCOMES}
    rep_faults = {name: 0 for name in FAULT_OUTCOMES}
    rec_io_by_op: dict[str, dict] = {}
    rep_io_by_op: dict[str, dict] = {}

    def _fold_io(table: dict, op: str, rows, nbytes) -> None:
        if rows is None and nbytes is None:
            return
        entry = table.setdefault(
            op, {"stamped": 0, "rows_scanned": 0, "bytes_scanned": 0}
        )
        entry["stamped"] += 1
        entry["rows_scanned"] += int(rows or 0)
        entry["bytes_scanned"] += int(nbytes or 0)

    for record in recorded:
        rec_by_op.setdefault(record["op"], []).append(
            record_duration_s(record)
        )
        rows = record.get("rows_scanned")
        nbytes = record.get("bytes_scanned")
        _fold_io(
            rec_io_by_op,
            record["op"],
            rows if isinstance(rows, (int, float)) else None,
            nbytes if isinstance(nbytes, (int, float)) else None,
        )
        if record.get("dataset"):
            dataset = record["dataset"]
            rec_datasets[dataset] = rec_datasets.get(dataset, 0) + 1
        if record.get("status") == "busy":
            rec_busy += 1
        fault = record.get("outcome") or request_outcome(
            str(record.get("status") or ""), record.get("error_kind")
        )
        if fault in rec_faults:
            rec_faults[fault] += 1
        if isinstance(record.get("cached"), bool):
            rec_lookups += 1
            rec_hits += 1 if record["cached"] else 0

    for outcome in outcomes:
        rep_by_op.setdefault(outcome.op, []).append(outcome.duration_s)
        if outcome.dataset:
            rep_datasets[outcome.dataset] = (
                rep_datasets.get(outcome.dataset, 0) + 1
            )
        if outcome.status == "busy":
            rep_busy += 1
        elif outcome.status in rep_faults:
            rep_faults[outcome.status] += 1
        elif outcome.status == "error":
            rep_errors += 1
        if outcome.cached is not None:
            rep_lookups += 1
            rep_hits += 1 if outcome.cached else 0
        _fold_io(
            rep_io_by_op, outcome.op, outcome.rows_scanned,
            outcome.bytes_scanned,
        )

    per_op = {}
    for op in sorted(set(rec_by_op) | set(rep_by_op)):
        rec_summary = _summary(rec_by_op.get(op, []))
        rep_summary = _summary(rep_by_op.get(op, []))
        entry = {"recorded": rec_summary, "replayed": rep_summary}
        rec_p95, rep_p95 = rec_summary["p95_s"], rep_summary["p95_s"]
        if rec_p95 and rep_p95 is not None:
            entry["drift_p95_s"] = round(rep_p95 - rec_p95, 6)
            entry["drift_p95_pct"] = round(
                (rep_p95 - rec_p95) / rec_p95 * 100.0, 2
            )
        rec_io = rec_io_by_op.get(op)
        rep_io = rep_io_by_op.get(op)
        if rec_io or rep_io:
            io_entry: dict = {
                "recorded": rec_io
                or {"stamped": 0, "rows_scanned": 0, "bytes_scanned": 0},
                "replayed": rep_io
                or {"stamped": 0, "rows_scanned": 0, "bytes_scanned": 0},
            }
            rec_rows = io_entry["recorded"]["rows_scanned"]
            rep_rows = io_entry["replayed"]["rows_scanned"]
            io_entry["rows_drift"] = rep_rows - rec_rows
            if rec_rows:
                io_entry["rows_drift_pct"] = round(
                    (rep_rows - rec_rows) / rec_rows * 100.0, 2
                )
            entry["io"] = io_entry
        per_op[op] = entry

    rec_hit_rate = rec_hits / rec_lookups if rec_lookups else None
    rep_hit_rate = rep_hits / rep_lookups if rep_lookups else None
    report = {
        "kind": REPLAY_KIND,
        "schema_version": REPLAY_SCHEMA_VERSION,
        "flight_dir": str(flight_dir),
        "speedup": speedup,
        "recorded": {
            "requests": len(recorded),
            "skipped": workload.skipped,
            "busy": rec_busy,
            "datasets": dict(sorted(rec_datasets.items())),
            "cache": {
                "lookups": rec_lookups,
                "hits": rec_hits,
                "hit_rate": _round(rec_hit_rate),
            },
        },
        "replayed": {
            "requests": len(outcomes),
            "busy": rep_busy,
            "errors": rep_errors,
            "wall_s": round(wall_s, 6),
            "datasets": dict(sorted(rep_datasets.items())),
            "cache": {
                "lookups": rep_lookups,
                "hits": rep_hits,
                "hit_rate": _round(rep_hit_rate),
            },
        },
        "per_op": per_op,
        "faults": {
            "recorded": rec_faults,
            "replayed": rep_faults,
            "delta": {
                name: rep_faults[name] - rec_faults[name]
                for name in FAULT_OUTCOMES
            },
        },
        "io_drift": _io_drift_summary(rec_io_by_op, rep_io_by_op),
        "busy_delta": rep_busy - rec_busy,
        "cache_hit_delta": (
            _round(rep_hit_rate - rec_hit_rate)
            if rec_hit_rate is not None and rep_hit_rate is not None
            else None
        ),
        "match": {
            "requests": len(outcomes) == len(recorded),
            "ops": {
                op: len(rep_by_op.get(op, [])) == len(rec_by_op.get(op, []))
                for op in sorted(rec_by_op)
            },
            "datasets": rep_datasets == rec_datasets,
        },
    }
    warnings = workload.warnings
    if warnings:
        report["warnings"] = warnings
    return report


def _io_drift_summary(rec_io_by_op: dict, rep_io_by_op: dict) -> dict:
    """The report's I/O-drift section: total rows/bytes scanned on the
    recorded vs. replayed side (summed over stamped requests). A drift
    here with matched request counts means the *storage layout or cache
    behavior* changed between capture and replay — the I/O analogue of
    latency drift."""
    def _totals(table: dict) -> dict:
        return {
            "stamped": sum(e["stamped"] for e in table.values()),
            "rows_scanned": sum(e["rows_scanned"] for e in table.values()),
            "bytes_scanned": sum(
                e["bytes_scanned"] for e in table.values()
            ),
        }

    recorded = _totals(rec_io_by_op)
    replayed = _totals(rep_io_by_op)
    summary = {
        "recorded": recorded,
        "replayed": replayed,
        "rows_drift": replayed["rows_scanned"] - recorded["rows_scanned"],
        "bytes_drift": (
            replayed["bytes_scanned"] - recorded["bytes_scanned"]
        ),
    }
    if recorded["rows_scanned"]:
        summary["rows_drift_pct"] = round(
            summary["rows_drift"] / recorded["rows_scanned"] * 100.0, 2
        )
    return summary


def check_report(
    report: dict,
    budget_pct: float = DEFAULT_BUDGET_PCT,
    budget_ms: float = DEFAULT_BUDGET_MS,
) -> list[str]:
    """Gate violations for ``--check``: empty means pass.

    A drift must breach the relative budget AND the absolute floor —
    :func:`repro.observe.regress.breaches`, the bench gate's noise rule.
    """
    violations = []
    if not report["match"]["requests"]:
        violations.append(
            f"replayed {report['replayed']['requests']} of "
            f"{report['recorded']['requests']} recorded requests"
        )
    for op, ok in report["match"]["ops"].items():
        if not ok:
            violations.append(f"op {op!r}: replayed count != recorded")
    for op, entry in report["per_op"].items():
        drift_s = entry.get("drift_p95_s")
        drift_pct = entry.get("drift_p95_pct")
        if drift_s is None or drift_pct is None:
            continue
        if breaches(
            drift_s,
            entry["recorded"]["p95_s"],
            budget_pct / 100.0,
            budget_ms / 1000.0,
        ):
            violations.append(
                f"op {op!r}: replayed p95 drifted +{drift_pct:.1f}% "
                f"(+{drift_s * 1000.0:.2f}ms) past the "
                f"{budget_pct:.0f}%/{budget_ms:.0f}ms budget"
            )
    return violations


def render_report_text(report: dict) -> str:
    """Human rendering of the comparison report."""
    recorded, replayed = report["recorded"], report["replayed"]
    lines = [
        (
            f"replayed {replayed['requests']}/{recorded['requests']} "
            f"recorded request(s) at {report['speedup']:g}x "
            f"in {replayed['wall_s']:.2f}s"
        ),
        (
            f"busy: recorded {recorded['busy']}, replayed "
            f"{replayed['busy']} (delta {report['busy_delta']:+d}) · "
            f"errors {replayed['errors']}"
        ),
    ]
    faults = report.get("faults")
    if faults and (
        any(faults["recorded"].values()) or any(faults["replayed"].values())
    ):
        parts = [
            f"{name}: recorded {faults['recorded'][name]}, replayed "
            f"{faults['replayed'][name]}"
            for name in FAULT_OUTCOMES
            if faults["recorded"][name] or faults["replayed"][name]
        ]
        lines.append("fault outcomes — " + " · ".join(parts))
    rec_rate = recorded["cache"]["hit_rate"]
    rep_rate = replayed["cache"]["hit_rate"]
    if rec_rate is not None or rep_rate is not None:
        fmt = lambda rate: "-" if rate is None else f"{rate:.0%}"
        lines.append(
            f"cache hit rate: recorded {fmt(rec_rate)}, replayed "
            f"{fmt(rep_rate)}"
        )
    lines.append("")
    lines.append(
        f"{'op':<12} {'n(rec)':>7} {'n(rep)':>7} {'p95(rec)':>10} "
        f"{'p95(rep)':>10} {'drift':>8}"
    )
    for op, entry in report["per_op"].items():
        rec, rep = entry["recorded"], entry["replayed"]
        drift = entry.get("drift_p95_pct")
        lines.append(
            f"{op:<12} {rec['count']:>7} {rep['count']:>7} "
            f"{_fmt_ms(rec['p95_s']):>10} {_fmt_ms(rep['p95_s']):>10} "
            f"{('%+.0f%%' % drift) if drift is not None else '-':>8}"
        )
    io_drift = report.get("io_drift")
    if io_drift and (
        io_drift["recorded"]["stamped"] or io_drift["replayed"]["stamped"]
    ):
        lines.append("")
        pct = io_drift.get("rows_drift_pct")
        lines.append(
            f"I/O drift: rows scanned recorded "
            f"{io_drift['recorded']['rows_scanned']}, replayed "
            f"{io_drift['replayed']['rows_scanned']} "
            f"({io_drift['rows_drift']:+d}"
            + (f", {pct:+.1f}%" if pct is not None else "")
            + f") · bytes {io_drift['bytes_drift']:+d}"
        )
        for op, entry in report["per_op"].items():
            io_entry = entry.get("io")
            if not io_entry:
                continue
            lines.append(
                f"  {op:<12} rows {io_entry['recorded']['rows_scanned']:>8}"
                f" -> {io_entry['replayed']['rows_scanned']:>8} "
                f"({io_entry['rows_drift']:+d})"
            )
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _fmt_ms(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    ms = seconds * 1000.0
    return f"{ms / 1000.0:.2f}s" if ms >= 1000 else f"{ms:.2f}ms"


def write_report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=str)
