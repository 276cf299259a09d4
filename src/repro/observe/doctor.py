"""``orpheus doctor`` — storage-health probes with remediation hints.

Each probe inspects one aspect of a repository and returns a severity
(``ok``/``warn``/``fail``), a one-line summary, a concrete remediation,
and machine-readable data. The probes:

* **checkout-cost ratio** — for partitioned CVDs, the live C_avg against
  the LyreSplit optimum C*_avg; drifting past the migration tolerance µ
  (and the (1+δ) guarantee Chapter 5 proves) means checkouts are paying
  for records they do not need → ``orpheus optimize``.
* **partition imbalance** — one partition holding most of the records
  defeats the point of partitioning.
* **delta-chain length** — delta-based models recreate a version by
  walking its base chain; long chains make checkout O(chain).
* **orphaned versions** — version-graph metadata and physical membership
  must cover the same vids.
* **stale staging** — staged checkouts whose backing file vanished or
  that have sat uncommitted for a long time.
* **telemetry accumulator** — ``.orpheus/telemetry.json`` growing without
  bound or corrupt.
* **journal integrity** — replay-verify the operation journal against
  the version graph.
* **state integrity** — checksum-verify ``state.pkl`` and every backup
  generation; stray temp files from interrupted writes.
* **backup freshness** — backup generations must exist (and track the
  live file) once the repository has history.
* **lock health** — last-holder liveness for the repository lock, and
  stale fallback-lock detection.
* **pending intents** — torn operations (intent begun, never completed)
  fail the probe and point at ``orpheus recover``.
* **service faults** — a running daemon's fault-tolerance posture:
  degraded read-only mode, quarantined poison requests, and
  worker-error / deadline-shed rates against the fault budget.
* **heat skew** — decayed partition heat from the access observatory
  (:mod:`repro.observe.heat`): one partition soaking up most of a
  dataset's heat means the static split no longer matches the
  workload → see the ``orpheus heat`` advisor.
* **I/O amplification** — observed checkout rows-scanned over
  rows-requested per data model against ``ORPHEUS_AMP_BUDGET``.
* **page store health** — paged-layout invariants: every referenced
  page file present, checksum spot-check, no orphans/stray temps, a
  readable page directory.
* **buffer pool** — budget pressure on the page cache: thrash (eviction
  rate rivaling fault rate) and leaked dirty pages.

``run_doctor`` executes all probes; the report's exit code is non-zero
when any probe fails, so CI can gate on ``orpheus doctor --json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry

OK = "ok"
WARN = "warn"
FAIL = "fail"

_RANK = {OK: 0, WARN: 1, FAIL: 2}

#: Delta chains longer than this warn; four times it fails.
CHAIN_WARN = 8
#: A partition holding more than this multiple of the mean warns.
IMBALANCE_FACTOR = 4.0
#: Staged checkouts older than this many seconds warn.
STALE_STAGING_SECONDS = 7 * 24 * 3600.0
#: Accumulated telemetry beyond this many bytes warns.
TELEMETRY_WARN_BYTES = 4 * 1024 * 1024
#: A slow-request log holding at least this many entries warns.
SLOW_LOG_WARN_ENTRIES = 50
#: Env var: p99 latency budget (ms) for the slow_requests probe; the
#: probe warns when the slow log's p99 breaches it.
SLOW_P99_BUDGET_ENV = "ORPHEUS_SLOW_P99_BUDGET_MS"

#: Fault budget for the service_faults probe: worker errors or deadline
#: sheds above this percentage of total requests warn.
FAULT_BUDGET_PCT = 1.0


@dataclass
class ProbeResult:
    """Outcome of one probe."""

    probe: str
    severity: str
    summary: str
    remediation: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = {
            "probe": self.probe,
            "severity": self.severity,
            "summary": self.summary,
        }
        if self.remediation:
            record["remediation"] = self.remediation
        if self.data:
            record["data"] = self.data
        return record


@dataclass
class DoctorReport:
    """All probe results plus the aggregate verdict."""

    results: list[ProbeResult] = field(default_factory=list)

    @property
    def severity(self) -> str:
        worst = OK
        for result in self.results:
            if _RANK[result.severity] > _RANK[worst]:
                worst = result.severity
        return worst

    @property
    def exit_code(self) -> int:
        return 1 if self.severity == FAIL else 0

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "probes": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        for result in self.results:
            lines.append(
                f"[{result.severity.upper():<4}] {result.probe:<24} "
                f"{result.summary}"
            )
            if result.remediation and result.severity != OK:
                lines.append(f"       -> {result.remediation}")
        lines.append(f"overall: {self.severity}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def probe_checkout_cost(orpheus) -> list[ProbeResult]:
    """Live checkout cost vs. the LyreSplit optimum, per partitioned CVD."""
    from repro.partition.partitioned_store import PartitionedRlistStore

    results: list[ProbeResult] = []
    for name in orpheus.ls():
        model = orpheus.cvd(name).model
        if not isinstance(model, PartitionedRlistStore):
            continue
        if not model._order:
            continue
        current = model.current_checkout_cost()
        _target, best = model.best_partitioning()
        delta_bound = 1.0 + model._delta_star
        if best <= 0:
            continue
        ratio = current / best
        bound = max(delta_bound, model.tolerance)
        if ratio > bound:
            severity = FAIL
        elif ratio > delta_bound:
            severity = WARN
        else:
            severity = OK
        results.append(
            ProbeResult(
                probe=f"checkout_cost[{name}]",
                severity=severity,
                summary=(
                    f"cost ratio {ratio:.2f} vs bound "
                    f"1+δ={delta_bound:.2f} (µ={model.tolerance:.2f})"
                ),
                remediation=(
                    f"re-run `orpheus optimize -d {name}`: checkout cost "
                    f"ratio {ratio:.2f} exceeds 1+δ={delta_bound:.2f}"
                    if severity != OK
                    else ""
                ),
                data={
                    "dataset": name,
                    "current_cost": current,
                    "optimal_cost": best,
                    "ratio": round(ratio, 4),
                    "delta_bound": round(delta_bound, 4),
                    "tolerance": model.tolerance,
                },
            )
        )
    if not results:
        results.append(
            ProbeResult(
                probe="checkout_cost",
                severity=OK,
                summary="no partitioned CVDs to check",
            )
        )
    return results


def probe_partition_imbalance(orpheus) -> list[ProbeResult]:
    from repro.partition.partitioned_store import PartitionedRlistStore

    results: list[ProbeResult] = []
    for name in orpheus.ls():
        model = orpheus.cvd(name).model
        if not isinstance(model, PartitionedRlistStore):
            continue
        sizes = list(
            filter(None, (p.data_record_count() for p in model._partitions))
        )
        if len(sizes) < 2:
            continue
        mean = sum(sizes) / len(sizes)
        largest = max(sizes)
        imbalanced = mean > 0 and largest > IMBALANCE_FACTOR * mean
        results.append(
            ProbeResult(
                probe=f"partition_imbalance[{name}]",
                severity=WARN if imbalanced else OK,
                summary=(
                    f"{len(sizes)} partitions, sizes "
                    f"min={min(sizes)} mean={mean:.0f} max={largest}"
                ),
                remediation=(
                    f"re-run `orpheus optimize -d {name}` to rebalance"
                    if imbalanced
                    else ""
                ),
                data={"dataset": name, "partition_sizes": sorted(sizes)},
            )
        )
    if not results:
        results.append(
            ProbeResult(
                probe="partition_imbalance",
                severity=OK,
                summary="no partitioned CVDs to check",
            )
        )
    return results


def probe_delta_chains(orpheus) -> list[ProbeResult]:
    """Delta-chain length distribution for delta-based CVDs."""
    from repro.core.models.delta_based import DeltaBasedModel

    results: list[ProbeResult] = []
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        if not isinstance(cvd.model, DeltaBasedModel):
            continue
        histogram: dict[int, int] = {}
        longest = 0
        for vid in cvd.versions.vids():
            length = len(cvd.model.chain_of(vid)) - 1
            histogram[length] = histogram.get(length, 0) + 1
            longest = max(longest, length)
        if longest > 4 * CHAIN_WARN:
            severity = FAIL
        elif longest > CHAIN_WARN:
            severity = WARN
        else:
            severity = OK
        results.append(
            ProbeResult(
                probe=f"delta_chains[{name}]",
                severity=severity,
                summary=f"longest delta chain {longest} (threshold {CHAIN_WARN})",
                remediation=(
                    "re-commit hot versions against a nearer base, or "
                    "migrate the CVD to split_by_rlist"
                    if severity != OK
                    else ""
                ),
                data={
                    "dataset": name,
                    "chain_histogram": {
                        str(k): v for k, v in sorted(histogram.items())
                    },
                },
            )
        )
    if not results:
        results.append(
            ProbeResult(
                probe="delta_chains",
                severity=OK,
                summary="no delta-based CVDs to check",
            )
        )
    return results


def probe_storage_plan_chains(store) -> ProbeResult:
    """Chain-length distribution of a Chapter-7 storage plan.

    Library-level probe: takes a ``VersionedStore`` (or anything with a
    ``plan()`` returning a :class:`~repro.storage.graph.StoragePlan`).
    """
    plan = store.plan() if callable(getattr(store, "plan", None)) else store
    histogram = plan.depth_histogram()
    longest = max(histogram, default=0)
    if longest > 4 * CHAIN_WARN:
        severity = FAIL
    elif longest > CHAIN_WARN:
        severity = WARN
    else:
        severity = OK
    return ProbeResult(
        probe="storage_plan_chains",
        severity=severity,
        summary=f"longest materialization chain {longest}",
        remediation=(
            "re-solve the storage plan with a tighter recreation bound"
            if severity != OK
            else ""
        ),
        data={"chain_histogram": {str(k): v for k, v in sorted(histogram.items())}},
    )


def probe_orphaned_versions(orpheus) -> list[ProbeResult]:
    """The version graph and the versions the physical model's tables
    can serve must agree."""
    results: list[ProbeResult] = []
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        graph_vids = set(cvd.versions.vids())
        member_vids = cvd.model.stored_versions()
        missing_physical = sorted(graph_vids - member_vids)
        missing_metadata = sorted(member_vids - graph_vids)
        if missing_physical or missing_metadata:
            results.append(
                ProbeResult(
                    probe=f"orphaned_versions[{name}]",
                    severity=FAIL,
                    summary=(
                        f"{len(missing_physical)} versions lack physical "
                        f"membership, {len(missing_metadata)} lack metadata"
                    ),
                    remediation=(
                        "state is corrupt; restore .orpheus/state.pkl from "
                        "backup or re-init from the journal"
                    ),
                    data={
                        "dataset": name,
                        "missing_physical": missing_physical[:20],
                        "missing_metadata": missing_metadata[:20],
                    },
                )
            )
    if not results:
        results.append(
            ProbeResult(
                probe="orphaned_versions",
                severity=OK,
                summary="version graph and physical membership agree",
            )
        )
    return results


def probe_stale_staging(orpheus) -> ProbeResult:
    """Staged checkouts whose file vanished or that sat too long."""
    now = telemetry.now()
    vanished: list[str] = []
    stale: list[str] = []
    for name, info in orpheus.staging._staged.items():
        looks_like_path = name.endswith(".csv") or os.sep in name
        if looks_like_path and not os.path.exists(name):
            vanished.append(name)
        elif now - info.checkout_time > STALE_STAGING_SECONDS:
            stale.append(name)
    if vanished:
        severity = WARN
        summary = f"{len(vanished)} staged file(s) no longer exist on disk"
    elif stale:
        severity = WARN
        summary = f"{len(stale)} staged checkout(s) uncommitted for >7 days"
    else:
        severity = OK
        summary = f"{len(orpheus.staging._staged)} staged checkout(s), all live"
    return ProbeResult(
        probe="stale_staging",
        severity=severity,
        summary=summary,
        remediation=(
            "commit or release the staged checkouts (they hold parent "
            "pins for provenance)"
            if severity != OK
            else ""
        ),
        data={"vanished": vanished[:20], "stale": stale[:20]},
    )


def probe_telemetry_accumulator(root: str | None = None) -> ProbeResult:
    """``.orpheus/telemetry.json`` must stay parseable and bounded."""
    path = Path(root or ".") / ".orpheus" / "telemetry.json"
    if not path.exists():
        return ProbeResult(
            probe="telemetry_accumulator",
            severity=OK,
            summary="no accumulated telemetry",
        )
    size = path.stat().st_size
    try:
        json.loads(path.read_text())
        parseable = True
    except ValueError:
        parseable = False
    if not parseable:
        return ProbeResult(
            probe="telemetry_accumulator",
            severity=WARN,
            summary=f"telemetry.json is corrupt ({size} bytes)",
            remediation="run `orpheus stats --reset` to start a fresh history",
            data={"bytes": size},
        )
    severity = WARN if size > TELEMETRY_WARN_BYTES else OK
    return ProbeResult(
        probe="telemetry_accumulator",
        severity=severity,
        summary=f"telemetry.json is {size} bytes",
        remediation=(
            "run `orpheus stats --reset` after exporting the history"
            if severity != OK
            else ""
        ),
        data={"bytes": size},
    )


def probe_state_integrity(root: str | None = None) -> ProbeResult:
    """Checksum-verify ``state.pkl`` and every backup generation."""
    from repro.resilience.statestore import StateStore

    store = StateStore(root)
    report = store.integrity()
    status = report["status"]
    stray = report["stray_temps"]
    if status == "missing":
        return ProbeResult(
            probe="state_integrity",
            severity=OK,
            summary="no state file yet (fresh repository)",
            data=report,
        )
    if status == "corrupt":
        fallback_ok = any(b["ok"] for b in report["backups"])
        return ProbeResult(
            probe="state_integrity",
            severity=WARN if fallback_ok else FAIL,
            summary=(
                f"state.pkl is corrupt ({report['detail']}); "
                + (
                    "a verified backup will serve loads"
                    if fallback_ok
                    else "no verified backup exists"
                )
            ),
            remediation=(
                "run `orpheus recover` (any mutating command also "
                "rewrites state from the backup)"
                if fallback_ok
                else "restore .orpheus/state.pkl from an external copy "
                "or re-init from the operation journal"
            ),
            data=report,
        )
    severity = WARN if (status == "legacy" or stray) else OK
    bits = [f"{report['bytes']} bytes, checksum ok"]
    if status == "legacy":
        bits = [f"{report['bytes']} bytes, legacy pre-checksum format"]
    if stray:
        bits.append(f"{len(stray)} interrupted write temp(s)")
    return ProbeResult(
        probe="state_integrity",
        severity=severity,
        summary="; ".join(bits),
        remediation=(
            "run `orpheus recover` to clean up (legacy files upgrade on "
            "the next mutating command)"
            if severity != OK
            else ""
        ),
        data=report,
    )


def probe_backup_freshness(root: str | None = None) -> ProbeResult:
    """Backup generations must exist once the repository has history."""
    from repro.observe.journal import Journal
    from repro.resilience.statestore import StateStore

    store = StateStore(root)
    if not store.path.exists():
        return ProbeResult(
            probe="backup_freshness",
            severity=OK,
            summary="no state file yet, nothing to back up",
        )
    backups = [p for p in store.backup_paths if p.exists()]
    ops = len(Journal(root).read())
    if not backups:
        severity = WARN if ops >= 2 else OK
        return ProbeResult(
            probe="backup_freshness",
            severity=severity,
            summary=(
                f"no backup generation yet ({ops} journaled operation(s))"
            ),
            remediation=(
                "backups rotate on every state save; investigate why "
                "none exists despite repeated operations"
                if severity != OK
                else ""
            ),
            data={"ops": ops},
        )
    state_mtime = store.path.stat().st_mtime
    newest = max(p.stat().st_mtime for p in backups)
    lag = state_mtime - newest
    stale = lag > STALE_STAGING_SECONDS
    return ProbeResult(
        probe="backup_freshness",
        severity=WARN if stale else OK,
        summary=(
            f"{len(backups)} backup generation(s), newest "
            f"{max(lag, 0):.0f}s behind the live state"
        ),
        remediation=(
            "backups have not rotated in over a week of state writes; "
            "check filesystem permissions on .orpheus/"
            if stale
            else ""
        ),
        data={
            "backups": [p.name for p in backups],
            "lag_seconds": round(lag, 1),
        },
    )


def probe_lock_health(root: str | None = None) -> ProbeResult:
    """Repository lock file state and last-holder liveness."""
    from repro.resilience.lock import LOCK_FILE, _pid_alive, holder_info

    lock_dir = Path(root or ".") / ".orpheus"
    path = lock_dir / LOCK_FILE
    if not path.exists():
        return ProbeResult(
            probe="lock_health",
            severity=OK,
            summary="no lock activity yet",
        )
    holder = holder_info(root) or {}
    pid = int(holder.get("pid") or 0)
    fallback = lock_dir / (LOCK_FILE + ".excl")
    if fallback.exists():
        fallback_holder: dict = {}
        try:
            fallback_holder = json.loads(fallback.read_text())
        except (OSError, ValueError):
            pass
        fallback_pid = int(fallback_holder.get("pid") or 0)
        if not _pid_alive(fallback_pid):
            return ProbeResult(
                probe="lock_health",
                severity=WARN,
                summary=(
                    f"stale fallback lock: holder pid {fallback_pid} is dead"
                ),
                remediation=(
                    f"remove {fallback} (the next lock attempt also breaks "
                    f"it automatically)"
                ),
                data={"fallback_pid": fallback_pid},
            )
    if pid and _pid_alive(pid):
        summary = (
            f"last exclusive holder pid {pid} "
            f"({holder.get('command') or '?'}) is alive"
        )
    else:
        summary = "lock file present; no live holder (flock auto-released)"
    return ProbeResult(
        probe="lock_health",
        severity=OK,
        summary=summary,
        data={"holder": holder},
    )


def probe_pending_intents(root: str | None = None) -> ProbeResult:
    """Torn operations (intent begun, never completed) demand recovery."""
    from repro.resilience.intents import IntentLog

    log = IntentLog(root)
    records = log.read()
    pending = log.pending()
    if pending:
        return ProbeResult(
            probe="pending_intents",
            severity=FAIL,
            summary=(
                f"{len(pending)} torn operation(s): a process died "
                f"mid-command"
            ),
            remediation="run `orpheus recover` (any command auto-recovers)",
            data={
                "pending": [
                    {
                        "trace_id": r.get("trace_id"),
                        "command": r.get("command"),
                        "dataset": r.get("dataset"),
                    }
                    for r in pending[:20]
                ]
            },
        )
    return ProbeResult(
        probe="pending_intents",
        severity=OK,
        summary=f"{len(records)} intent record(s), none pending",
    )


@dataclass
class DaemonView:
    """One look at the daemon ``.orpheus/service.json`` names, shared by
    the two service probes: ``state`` is ``absent``, ``self`` (the doctor
    runs inside the daemon), ``dead``, ``unreachable`` or ``live``, with
    the live daemon's report (the ``status`` op) in ``report``."""

    state: str
    pid: int = 0
    socket: str | None = None
    report: dict = field(default_factory=dict)
    error: str = ""


def view_daemon(root: str | None = None) -> DaemonView:
    """Read the status file, check the pid, and fetch the report once."""
    from repro.service.client import (
        ServiceClient,
        ServiceError,
        _pid_alive,
        read_status_file,
    )

    status = read_status_file(root)
    if status is None:
        return DaemonView("absent")
    pid = int(status.get("pid") or 0)
    socket = status.get("socket")
    if pid == os.getpid():
        return DaemonView("self", pid, socket)
    if not _pid_alive(pid):
        return DaemonView("dead", pid, socket)
    try:
        with ServiceClient(socket_path=socket, root=root) as client:
            return DaemonView("live", pid, socket, report=client.status())
    except ServiceError as error:
        return DaemonView("unreachable", pid, socket, error=str(error))


def probe_service_health(
    root: str | None = None, view: DaemonView | None = None
) -> ProbeResult:
    """The version-service daemon, when one claims this repository.

    A live daemon's report surfaces queue pressure and cache hit rate;
    a dead pid means a crashed daemon left its status file (and
    possibly socket) behind — warn and point at cleanup. No status file
    at all is OK: serving is optional.
    """
    view = view or view_daemon(root)
    pid = view.pid
    if view.state != "live":
        severity, summary, remediation = {
            "absent": (
                OK, "no daemon registered (orpheus serve not running)", "",
            ),
            # Querying our own socket would tie up a second worker.
            "self": (OK, f"this process is the daemon (pid {pid})", ""),
            "dead": (
                WARN,
                f"stale service.json: daemon pid {pid} is dead",
                "remove .orpheus/service.json and the stale socket, then "
                "restart with `orpheus serve` (startup also recovers any "
                "torn operations)",
            ),
            "unreachable": (
                WARN,
                f"daemon pid {pid} is alive but unresponsive: {view.error}",
                "the daemon may be wedged; check its stderr, then "
                "SIGTERM it (graceful drain) and restart",
            ),
        }[view.state]
        return ProbeResult(
            probe="service_health",
            severity=severity,
            summary=summary,
            remediation=remediation,
            data={"pid": pid, "socket": view.socket} if pid else {},
        )
    live = view.report
    scheduler = live.get("scheduler", {})
    cache = live.get("cache", {})
    requests = live.get("requests", {})
    write_pressure = scheduler.get("write_queue_depth", 0) >= max(
        1, scheduler.get("write_queue_capacity", 1)
    )
    shed = scheduler.get("shed_reads", 0) + scheduler.get("shed_writes", 0)
    draining = live.get("server", {}).get("draining", False)
    if draining:
        severity, note = WARN, "daemon is draining"
    elif write_pressure:
        severity, note = WARN, "writer queue is saturated"
    else:
        severity, note = OK, "daemon healthy"
    return ProbeResult(
        probe="service_health",
        severity=severity,
        summary=(
            f"{note}: pid {pid}, uptime {live.get('uptime_s', 0):.0f}s, "
            f"{requests.get('total', 0)} requests "
            f"({requests.get('busy', 0)} shed busy), cache hit rate "
            f"{cache.get('hit_rate', 0.0):.0%}"
        ),
        remediation=(
            "raise `orpheus serve --queue-depth`/--workers or slow the "
            "writers; shed requests surface as BUSY to clients"
            if severity != OK and not draining
            else ""
        ),
        data={
            "pid": pid,
            "uptime_s": live.get("uptime_s"),
            "requests": requests,
            "shed": shed,
            "scheduler": scheduler,
            "cache": cache,
            "sessions": live.get("sessions", {}).get("active"),
        },
    )


def probe_service_faults(
    root: str | None = None, view: DaemonView | None = None
) -> ProbeResult:
    """Fault-tolerance posture of a running daemon.

    Warns when the daemon is in degraded read-only mode (writes are
    bouncing), when poisoned requests sit quarantined, or when the
    worker-error / deadline rate exceeds the fault budget
    (``FAULT_BUDGET_PCT``, 1% of total requests). The deadline count is
    the report's ``requests.deadline_exceeded``, which already includes
    every queue shed. No daemon — or a daemon we cannot reach — is OK
    here; liveness is ``service_health``'s job.
    """
    view = view or view_daemon(root)
    pid = view.pid
    if view.state != "live":
        summary = {
            "absent": "no daemon registered (nothing to degrade)",
            "self": f"this process is the daemon (pid {pid})",
            "dead": f"daemon pid {pid} is dead (see service_health)",
            "unreachable": (
                f"daemon pid {pid} unreachable (see service_health)"
            ),
        }[view.state]
        return ProbeResult(
            probe="service_faults",
            severity=OK,
            summary=summary,
            data={"pid": pid} if pid else {},
        )
    live = view.report
    requests = live.get("requests", {})
    degrade = live.get("degrade", {})
    quarantine = live.get("quarantine", {})
    total = max(1, int(requests.get("total", 0) or 0))
    worker_errors = int(requests.get("worker_errors", 0) or 0)
    deadline_exceeded = int(requests.get("deadline_exceeded", 0) or 0)
    worker_pct = 100.0 * worker_errors / total
    deadline_pct = 100.0 * deadline_exceeded / total
    quarantined = int(quarantine.get("quarantined", 0) or 0)
    problems: list[str] = []
    remediation: list[str] = []
    if degrade.get("degraded"):
        cause = degrade.get("cause") or "unknown"
        problems.append(f"degraded read-only mode ({cause})")
        remediation.append(
            "fix the storage fault behind the failing saves (disk "
            "full? permissions?); the daemon probes a save each "
            "housekeeping tick and exits degraded mode on success"
        )
    if quarantined:
        problems.append(f"{quarantined} request digest(s) quarantined")
        remediation.append(
            "inspect the quarantine entries in `orpheus serve "
            "--status`, fix or stop the offending request, then "
            "`orpheus remote -- flush-quarantine`"
        )
    if worker_pct > FAULT_BUDGET_PCT:
        problems.append(
            f"worker-error rate {worker_pct:.1f}% exceeds the "
            f"{FAULT_BUDGET_PCT:.1f}% budget"
        )
        remediation.append(
            "check the daemon stderr and the journal for the failing "
            "op; repeated crashers quarantine automatically"
        )
    if deadline_pct > FAULT_BUDGET_PCT:
        problems.append(
            f"deadline-shed rate {deadline_pct:.1f}% exceeds the "
            f"{FAULT_BUDGET_PCT:.1f}% budget"
        )
        remediation.append(
            "the queue is slow, not full: raise client deadlines "
            "(ORPHEUS_CLIENT_DEADLINE_MS), add workers, or shed load"
        )
    data = {
        "pid": pid,
        "total": requests.get("total", 0),
        "worker_errors": worker_errors,
        "deadline_exceeded": deadline_exceeded,
        "budget_pct": FAULT_BUDGET_PCT,
        "degrade": degrade,
        "quarantine": {
            key: value
            for key, value in quarantine.items()
            if key != "entries"
        },
    }
    if problems:
        return ProbeResult(
            probe="service_faults",
            severity=WARN,
            summary="; ".join(problems),
            remediation="; ".join(remediation),
            data=data,
        )
    return ProbeResult(
        probe="service_faults",
        severity=OK,
        summary=(
            f"daemon pid {pid} healthy: {worker_errors} worker "
            f"error(s), {deadline_exceeded} deadline shed(s), "
            f"quarantine empty"
        ),
        data=data,
    )


def probe_slow_requests(root: str | None = None) -> ProbeResult:
    """The daemon's slow-request log must stay small and under budget.

    Warns when the log has accumulated :data:`SLOW_LOG_WARN_ENTRIES`
    outliers, or when its p99 breaches the optional latency budget in
    ``ORPHEUS_SLOW_P99_BUDGET_MS``. No log is healthy — it only exists
    once a daemon has seen requests past ``ORPHEUS_SLOW_MS``.
    """
    from repro.service.tracing import SlowLog

    log = SlowLog(root)
    stats = log.stats()
    count = stats["count"]
    p99_ms = stats["p99_ms"]
    if count == 0:
        return ProbeResult(
            probe="slow_requests",
            severity=OK,
            summary="no slow requests logged",
        )
    budget_raw = os.environ.get(SLOW_P99_BUDGET_ENV)
    budget_ms: float | None = None
    if budget_raw:
        try:
            budget_ms = float(budget_raw)
        except ValueError:
            budget_ms = None
    over_budget = (
        budget_ms is not None and p99_ms is not None and p99_ms > budget_ms
    )
    growing = count >= SLOW_LOG_WARN_ENTRIES
    if over_budget:
        severity = WARN
        summary = (
            f"slow-request p99 {p99_ms:.0f}ms breaches the "
            f"{budget_ms:.0f}ms budget ({count} logged)"
        )
    elif growing:
        severity = WARN
        summary = (
            f"slow-request log is growing: {count} entries over "
            f"{stats['threshold_ms']:.0f}ms"
        )
    else:
        severity = OK
        summary = (
            f"{count} slow request(s) logged"
            + (f", p99 {p99_ms:.0f}ms" if p99_ms is not None else "")
        )
    return ProbeResult(
        probe="slow_requests",
        severity=severity,
        summary=summary,
        remediation=(
            "watch the live breakdown with `orpheus top` and profile "
            "the hot phase with `orpheus profile`; the span trees in "
            ".orpheus/journal/slow.jsonl name the slow phase per request"
            if severity != OK
            else ""
        ),
        data={
            "count": count,
            "p99_ms": p99_ms,
            "threshold_ms": stats["threshold_ms"],
            "budget_ms": budget_ms,
            "path": stats["path"],
        },
    )


def probe_flight_recorder(root: str | None = None) -> ProbeResult:
    """Flight segments must stay within the recorder's own bound and
    end cleanly.

    The bound is the newest segment header's ``segment_bytes`` ×
    ``max_segments``: the recorder rotates and prunes to it, so on-disk
    bytes above it mean pruning failed. A torn tail on the newest
    segment while no daemon is running means the last daemon died
    mid-write and the final records of the capture are lost to
    `orpheus replay`.
    """
    from repro.service.client import daemon_running
    from repro.service.recorder import flight_dir_path, flight_dir_status

    flight_dir = flight_dir_path(root)
    status = flight_dir_status(flight_dir)
    if not status["segments"]:
        return ProbeResult(
            probe="flight_recorder",
            severity=OK,
            summary="no flight segments recorded",
        )
    bound = status["segment_bytes"] * status["max_segments"]
    # A torn tail is expected while a daemon is appending; it only
    # signals data loss once nothing is writing.
    torn = status["newest_torn"] and not daemon_running(root)
    if status["bytes"] > bound:
        severity = WARN
        summary = (
            f"flight segments use {status['bytes']} bytes, over the "
            f"recorder's bound of {bound} ({status['max_segments']} × "
            f"{status['segment_bytes']}): pruning failed"
        )
        remediation = (
            "check the flight directory's permissions and delete the "
            "oldest flight-*.jsonl segments; the daemon prunes to its "
            "bound each time it opens a segment"
        )
    elif torn:
        severity = WARN
        summary = (
            "newest flight segment has a torn tail and no daemon is "
            "writing — the last capture lost its final records"
        )
        remediation = (
            "torn tails are tolerated by `orpheus replay`, which skips "
            "the unparseable final line"
        )
    else:
        severity, remediation = OK, ""
        summary = (
            f"{status['segments']} flight segment(s), "
            f"{status['bytes']} bytes (bound {bound})"
        )
    return ProbeResult(
        probe="flight_recorder",
        severity=severity,
        summary=summary,
        remediation=remediation,
        data={
            "segments": status["segments"],
            "bytes": status["bytes"],
            "bound_bytes": bound,
            "newest_torn": status["newest_torn"],
            "path": str(flight_dir),
        },
    )


def probe_journal(orpheus, root: str | None = None) -> ProbeResult:
    """Replay-verify the operation journal against the version graph."""
    from repro.observe.journal import Journal, verify_journal

    journal = Journal(root)
    records = journal.read()
    if not records:
        return ProbeResult(
            probe="journal",
            severity=OK,
            summary="no operations journaled",
        )
    divergences = verify_journal(orpheus, records)
    return ProbeResult(
        probe="journal",
        severity=FAIL if divergences else OK,
        summary=(
            f"{len(records)} records, {len(divergences)} divergence(s)"
        ),
        remediation=(
            "the store was mutated outside the CLI or state was lost; "
            "inspect `orpheus log --ops --verify`"
            if divergences
            else ""
        ),
        data={"divergences": divergences[:20]},
    )


def probe_heat_skew(orpheus, root: str | None = None) -> ProbeResult:
    """Partition heat concentration from the access observatory.

    A partitioned layout only pays off when the workload spreads across
    partitions; one partition soaking up most of the decayed heat means
    the static split no longer matches the access pattern. Skew is the
    hottest partition's heat over the per-dataset mean; breaching
    ``ORPHEUS_HEAT_SKEW_FACTOR`` warns and points at the advisor.
    """
    from repro.observe.heat import (
        HEAT_SKEW_ENV,
        HEAT_SKEW_FACTOR,
        HeatAccountant,
    )

    try:
        factor = float(os.environ.get(HEAT_SKEW_ENV, HEAT_SKEW_FACTOR))
    except ValueError:
        factor = HEAT_SKEW_FACTOR
    heat = HeatAccountant.load(root)
    if not heat.events_total or not heat.partitions:
        return ProbeResult(
            probe="heat_skew",
            severity=OK,
            summary="no heat recorded",
        )
    now = telemetry.now()
    by_dataset: dict[str, list[float]] = {}
    for key, entry in heat.partitions.items():
        dataset, _, _part = key.rpartition(":")
        by_dataset.setdefault(dataset, []).append(
            heat.current_heat(entry, now)
        )
    skews: dict[str, float] = {}
    for dataset, heats in by_dataset.items():
        if len(heats) < 2:
            continue  # one partition: skew is undefined, not a finding
        mean = sum(heats) / len(heats)
        if mean > 0:
            skews[dataset] = round(max(heats) / mean, 3)
    cold = heat.cold_fraction(orpheus, now)
    data = {
        "skew_factor_budget": factor,
        "skew_by_dataset": skews,
        "cold_fraction": None if cold is None else round(cold, 4),
    }
    worst = max(skews.values(), default=0.0)
    if worst > factor:
        hot = max(skews, key=skews.get)
        return ProbeResult(
            probe="heat_skew",
            severity=WARN,
            summary=(
                f"partition heat skew {worst:.1f}x on {hot!r} "
                f"(budget {factor:g}x)"
            ),
            remediation=(
                "the workload concentrates on few partitions; see "
                "`orpheus heat` advisor and consider `orpheus optimize`"
            ),
            data=data,
        )
    return ProbeResult(
        probe="heat_skew",
        severity=OK,
        summary=(
            f"heat spread ok across {len(by_dataset)} dataset(s) "
            f"(worst skew {worst:.1f}x, budget {factor:g}x)"
        ),
        data=data,
    )


def probe_io_amplification(orpheus, root: str | None = None) -> ProbeResult:
    """Observed checkout read amplification vs. ``ORPHEUS_AMP_BUDGET``.

    Rows scanned per requested row, per data model, from the heat
    model's samples. Above the budget warns; above four times the
    budget fails — checkouts are paying for almost nothing but waste.
    """
    from repro.observe.amplification import amplification_report
    from repro.observe.heat import HeatAccountant, amp_budget

    heat = HeatAccountant.load(root)
    report = amplification_report(heat)
    amps = {
        model: commands["checkout"]["read_amplification"]
        for model, commands in report.items()
        if commands.get("checkout", {}).get("read_amplification")
        is not None
    }
    if not amps:
        return ProbeResult(
            probe="io_amplification",
            severity=OK,
            summary="no checkouts observed",
        )
    budget = amp_budget()
    worst_model = max(amps, key=amps.get)
    worst = amps[worst_model]
    data = {"amp_budget": budget, "checkout_read_amplification": amps}
    if worst > budget:
        severity = FAIL if worst > 4 * budget else WARN
        return ProbeResult(
            probe="io_amplification",
            severity=severity,
            summary=(
                f"checkout reads {worst:.1f}x the requested rows on "
                f"{worst_model} (budget {budget:g}x)"
            ),
            remediation=(
                "the layout scans far more than it returns; see "
                "`orpheus heat` for the amplification table and the "
                "advisor's migration recommendation"
            ),
            data=data,
        )
    return ProbeResult(
        probe="io_amplification",
        severity=OK,
        summary=(
            f"worst checkout read amplification {worst:.2f}x "
            f"({worst_model}, budget {budget:g}x)"
        ),
        data=data,
    )


# ----------------------------------------------------------------------
# Page store health (paged ORPHSTA2 layout)
# ----------------------------------------------------------------------
#: How many page files the doctor checksum-verifies per run.
PAGE_SPOT_CHECK = 8


def probe_page_store(root: str | None = None) -> ProbeResult:
    """Verify the paged layout's on-disk invariants: every referenced
    page present, a readable page directory, no orphans or stray temps,
    and a checksum spot-check over the pages the live generation wrote
    last (the ones an interrupted write-back could have hurt)."""
    from repro.pagestore import pages as pagefiles
    from repro.pagestore.store import (
        live_pages,
        orphan_pages,
        read_directory,
        referenced_pages,
    )
    from repro.resilience import fsio
    from repro.resilience.statestore import StateStore

    layout = StateStore(root).integrity().get("layout")
    directory = pagefiles.pages_dir(root)
    if layout != "paged" and not directory.is_dir():
        return ProbeResult(
            probe="page_store_health",
            severity=OK,
            summary="pickle layout; page store not in use",
            data={"layout": layout or "missing"},
        )

    files = pagefiles.list_page_files(directory)
    on_disk = {path.name[: -len(pagefiles.PAGE_SUFFIX)] for path in files}
    referenced = referenced_pages(root)
    data: dict = {
        "layout": layout,
        "pages_on_disk": len(files),
        "pages_referenced": len(referenced),
        "bytes_on_disk": sum(
            path.stat().st_size for path in files if path.exists()
        ),
    }

    missing = sorted(referenced - on_disk)
    if missing:
        data["missing_pages"] = missing[:8]
        return ProbeResult(
            probe="page_store_health",
            severity=FAIL,
            summary=(
                f"{len(missing)} referenced page file(s) missing from "
                f"{directory}"
            ),
            remediation=(
                "the live state references pages that are gone; load will "
                "fall back to a backup generation — run `orpheus recover` "
                "and check `orpheus log --ops` for lost operations"
            ),
            data=data,
        )

    corrupt = []
    live = live_pages(root)
    newest_first = sorted(
        (path for path in files if path.stem in live),
        key=lambda path: path.stat().st_mtime_ns,
        reverse=True,
    )
    for path in newest_first[:PAGE_SPOT_CHECK]:
        try:
            pagefiles.read_page(directory, path.name[: -len(pagefiles.PAGE_SUFFIX)])
        except Exception as error:
            corrupt.append(f"{path.name}: {error}")
    data["pages_checked"] = min(len(newest_first), PAGE_SPOT_CHECK)
    if corrupt:
        data["corrupt_pages"] = corrupt
        return ProbeResult(
            probe="page_store_health",
            severity=FAIL,
            summary=f"{len(corrupt)} corrupt page file(s) detected",
            remediation=(
                "page checksums do not verify; restore .orpheus/state.pkl "
                "from the newest backup generation that does not reference "
                "them (state.pkl.bak), run `orpheus recover` to sweep the "
                "pages it leaves unreferenced, and redo what "
                "`orpheus log --ops` lists after that generation"
            ),
            data=data,
        )

    orphans = orphan_pages(root)
    temps = fsio.stray_temps(directory)
    if orphans or temps:
        data["orphan_pages"] = len(orphans)
        data["stray_temps"] = len(temps)
        return ProbeResult(
            probe="page_store_health",
            severity=WARN,
            summary=(
                f"{len(orphans)} orphaned page(s) and {len(temps)} stray "
                f"temp file(s) — debris from an interrupted write-back"
            ),
            remediation="run `orpheus recover` to clean the page store",
            data=data,
        )

    if layout == "paged" and read_directory(root) is None:
        return ProbeResult(
            probe="page_store_health",
            severity=WARN,
            summary="page directory missing or torn",
            remediation=(
                "loads do not depend on it, but GC and tooling do; run "
                "`orpheus recover` to rebuild directory.json"
            ),
            data=data,
        )

    return ProbeResult(
        probe="page_store_health",
        severity=OK,
        summary=(
            f"{len(files)} page file(s), all referenced pages present, "
            f"{data['pages_checked']} checksum-verified"
        ),
        data=data,
    )


def probe_buffer_pool(root: str | None = None) -> ProbeResult:
    """Buffer-pool budget pressure: a pool that evicts almost as often
    as it faults is thrashing — the budget is too small for the working
    set the workload actually touches."""
    from repro.pagestore.bufferpool import BUFFER_BYTES_ENV, get_pool

    stats = get_pool().stats()
    data = dict(stats)
    traffic = stats["faults"] + stats["hits"]
    if traffic == 0:
        return ProbeResult(
            probe="buffer_pool",
            severity=OK,
            summary=(
                f"pool idle (budget "
                f"{stats['budget_bytes'] // (1024 * 1024)} MiB)"
            ),
            data=data,
        )
    if stats["dirty_bytes"] > 0:
        return ProbeResult(
            probe="buffer_pool",
            severity=WARN,
            summary=(
                f"{stats['dirty_bytes']} dirty byte(s) resident outside "
                f"a save — a write-back did not complete"
            ),
            remediation="run `orpheus recover`; dirty pages never evict "
            "and will pin the budget down until cleared",
            data=data,
        )
    if (
        stats["evictions"] > 0
        and stats["faults"] > 0
        and stats["evictions"] >= 0.5 * stats["faults"]
    ):
        return ProbeResult(
            probe="buffer_pool",
            severity=WARN,
            summary=(
                f"pool thrashing: {stats['evictions']} evictions against "
                f"{stats['faults']} faults "
                f"(hit rate {stats['hit_rate']:.0%})"
            ),
            remediation=(
                f"the working set exceeds the budget; raise "
                f"{BUFFER_BYTES_ENV} (currently "
                f"{stats['budget_bytes']} bytes) or pin fewer keys"
            ),
            data=data,
        )
    return ProbeResult(
        probe="buffer_pool",
        severity=OK,
        summary=(
            f"hit rate {stats['hit_rate']:.0%} over {traffic} access(es), "
            f"{stats['resident_pages']} page(s) resident"
        ),
        data=data,
    )


# ----------------------------------------------------------------------
def run_doctor(orpheus, root: str | None = None) -> DoctorReport:
    """Run every probe against one repository."""
    with telemetry.span("observe.doctor"):
        report = DoctorReport()
        report.results.extend(probe_checkout_cost(orpheus))
        report.results.extend(probe_partition_imbalance(orpheus))
        report.results.extend(probe_delta_chains(orpheus))
        report.results.extend(probe_orphaned_versions(orpheus))
        report.results.append(probe_stale_staging(orpheus))
        report.results.append(probe_telemetry_accumulator(root))
        report.results.append(probe_journal(orpheus, root))
        report.results.append(probe_state_integrity(root))
        report.results.append(probe_backup_freshness(root))
        report.results.append(probe_lock_health(root))
        report.results.append(probe_pending_intents(root))
        daemon = view_daemon(root)
        report.results.append(probe_service_health(root, daemon))
        report.results.append(probe_service_faults(root, daemon))
        report.results.append(probe_slow_requests(root))
        report.results.append(probe_flight_recorder(root))
        report.results.append(probe_heat_skew(orpheus, root))
        report.results.append(probe_io_amplification(orpheus, root))
        report.results.append(probe_page_store(root))
        report.results.append(probe_buffer_pool(root))
        telemetry.count("observe.doctor.runs")
        telemetry.count(
            "observe.doctor.failures",
            sum(1 for r in report.results if r.severity == FAIL),
        )
        return report
