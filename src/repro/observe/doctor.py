"""``orpheus doctor`` — storage-health probes with remediation hints.

The doctor is one table, :data:`PROBES`, of probes with one signature:
``probe(checkup) -> list[ProbeResult]``. A :class:`Checkup` carries the
repository (``orpheus``, ``root``) and ``report``, orpheusd's own
``stats_payload()`` when the doctor runs inside the daemon (``orpheus
remote -- doctor``) and None from the CLI. It reads each shared source
once per run: the state-integrity report, the operation journal and the
mined heat model. The runner owns two rules: a probe that finds
nothing to judge returns ``[]`` and gets one OK line carrying its idle
summary, and a remediation is kept only on a result that is not OK.

Each result has a severity (``ok``/``warn``/``fail``), a one-line
summary, a concrete remediation, and machine-readable data. The probes:

* **checkout-cost ratio** — for partitioned CVDs, the live C_avg against
  the LyreSplit optimum C*_avg; drifting past µ·C*_avg (Section 5.4's
  rule, :func:`repro.invariants.within_tolerance`) means checkouts are
  paying for records they do not need → ``orpheus optimize``.
* **partition imbalance** — one partition holding most of the records
  defeats the point of partitioning.
* **delta-chain length** — delta-based models recreate a version by
  walking its base chain; long chains make checkout O(chain). For CVDs
  storing rlists: whole rows and deltas, the largest R(v)/|v| and chain
  depth against :func:`repro.invariants.recreation_within`, and, for
  information, the rows' storage beside MP's Problem 6 plan (Chapter 7).
* **orphaned versions** — version-graph metadata and physical membership
  must cover the same vids.
* **stale staging** — staged checkouts whose backing file vanished or
  that have sat uncommitted for a long time.
* **journal integrity** — replay-verify the operation journal against
  the version graph.
* **state integrity** — checksum-verify ``state.pkl`` and every backup
  generation; stray temp files from interrupted writes.
* **backup freshness** — backup generations must exist (and track the
  live file) once the repository has history.
* **pending intents** — torn operations (a journal ``begin`` nothing
  closed) fail the probe and point at ``orpheus recover``.
* **service health** — orpheusd's report as :func:`judge_report`
  judges it: draining, writer-queue saturation, degraded read-only
  mode, quarantined poison requests, and worker-error / deadline-shed
  rates against the fault budget. ``orpheus top`` prints the same
  verdicts. From the CLI, which holds the repository lock no daemon
  can share, a ``service.json`` left behind is stale.
* **flight recorder** — flight segments within the recorder's bound,
  no torn tail once nothing writes, few slow requests.
* **heat skew** — decayed partition heat mined from the journal and
  the flight record (:mod:`repro.observe.heat`): one partition soaking
  up most of a dataset's heat means the static split no longer matches
  the workload → see the ``orpheus heat`` advisor.
* **I/O amplification** — observed checkout rows-scanned over
  rows-requested per data model against the amplification budget.
* **page store health** — paged-layout invariants: every referenced
  page file present, checksum spot-check, no orphans/stray temps.

``run_doctor`` runs the table; the report's exit code is non-zero when
any probe fails, so CI can gate on ``orpheus doctor --json``.
:func:`render_text` prints a report's dict, local or from orpheusd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

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
#: A flight directory holding at least this many slow requests warns.
SLOW_LOG_WARN_ENTRIES = 50


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


def verdict_lines(probes: list[dict]) -> list[str]:
    """Each probe line (:meth:`ProbeResult.to_dict`) as ``[WARN] probe
    summary``, its remedy on a ``-> remedy`` line below."""
    lines = []
    for probe in probes:
        lines.append(
            f"[{probe['severity'].upper():<4}] {probe['probe']:<24} "
            f"{probe['summary']}"
        )
        if probe.get("remediation"):
            lines.append(f"       -> {probe['remediation']}")
    return lines


def render_text(report: dict) -> str:
    """A doctor report's dict (:meth:`DoctorReport.to_dict`, which is
    also what orpheusd answers ``orpheus remote -- doctor`` with) as
    ``orpheus doctor`` prints it."""
    lines = verdict_lines(report["probes"])
    lines.append(f"overall: {report['severity']}")
    return "\n".join(lines) + "\n"


@dataclass
class Checkup:
    """What one doctor run looks at. ``report`` is orpheusd's
    ``stats_payload()`` when the daemon runs the doctor, else None; the
    shared sources are read on first use and once per run."""

    orpheus: object = None
    root: str | None = None
    report: dict | None = None

    @cached_property
    def integrity(self) -> dict:
        from repro.resilience.statestore import StateStore

        return StateStore(self.root).integrity()

    @cached_property
    def journal(self) -> list[dict]:
        from repro.observe.journal import Journal

        return Journal(self.root).read()

    @cached_property
    def heat(self):
        from repro.observe.heat import mine

        return mine(self.root, self.orpheus, self.journal)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def probe_checkout_cost(checkup: Checkup) -> list[ProbeResult]:
    """Live checkout cost vs. µ·C*_avg, per partitioned CVD."""
    from repro.invariants import within_tolerance
    from repro.partition.partitioned_store import PartitionedRlistStore

    results: list[ProbeResult] = []
    for name in checkup.orpheus.ls():
        model = checkup.orpheus.cvd(name).model
        if not isinstance(model, PartitionedRlistStore) or not model._order:
            continue
        current = model.current_checkout_cost()
        _target, best = model.best_partitioning()
        if best <= 0:
            continue
        ratio = current / best
        ok = within_tolerance(current, best, model.tolerance)
        results.append(
            ProbeResult(
                probe=f"checkout_cost[{name}]",
                severity=OK if ok else FAIL,
                summary=f"cost ratio {ratio:.2f} vs µ={model.tolerance:g}",
                remediation=(
                    f"re-run `orpheus optimize -d {name}`: checkout cost "
                    f"ratio {ratio:.2f} exceeds µ={model.tolerance:g}"
                ),
                data={
                    "dataset": name,
                    "current_cost": current,
                    "optimal_cost": best,
                    "ratio": round(ratio, 4),
                    "tolerance": model.tolerance,
                },
            )
        )
    return results


def probe_partition_imbalance(checkup: Checkup) -> list[ProbeResult]:
    from repro.partition.partitioned_store import PartitionedRlistStore

    results: list[ProbeResult] = []
    for name in checkup.orpheus.ls():
        model = checkup.orpheus.cvd(name).model
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
                remediation=f"re-run `orpheus optimize -d {name}` to rebalance",
                data={"dataset": name, "partition_sizes": sorted(sizes)},
            )
        )
    return results


def probe_delta_chains(checkup: Checkup) -> list[ProbeResult]:
    """Delta-chain length distribution for delta-based CVDs; the rlist
    rows of split-by-rlist and partitioned ones (:func:`_rlist_rows`)."""
    from repro.core.models.delta_based import DeltaBasedModel
    from repro.core.models.split_by_rlist import SplitByRlistModel
    from repro.partition.partitioned_store import PartitionedRlistStore

    results: list[ProbeResult] = []
    for name in checkup.orpheus.ls():
        cvd = checkup.orpheus.cvd(name)
        if isinstance(cvd.model, PartitionedRlistStore):
            results.append(_rlist_rows(name, cvd, cvd.model._partitions))
        elif isinstance(cvd.model, SplitByRlistModel):
            results.append(_rlist_rows(name, cvd, [cvd.model]))
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
                    f"a stored chain never shortens: check out the versions "
                    f"you still need, `orpheus drop -d {name}` and `orpheus "
                    f"init` them again under `--model split_by_rlist` "
                    f"(history restarts)"
                ),
                data={
                    "dataset": name,
                    "chain_histogram": {
                        str(k): v for k, v in sorted(histogram.items())
                    },
                },
            )
        )
    return results


def _rlist_rows(name: str, cvd, tables) -> ProbeResult:
    """A CVD's rlist rows: how many are deltas, and the largest R(v)/|v|
    and depth, as each row records them; a row past
    :func:`~repro.invariants.recreation_within` fails. For information
    only: the rids the rows store beside MP's Problem 6 plan over the
    same parent edges read either way (Δ rids stored, Φ rids decoded)
    under one bound, θ times the largest version, looser than each
    row's θ·|v|. Versions are rebuilt for the call, one table at a
    time, never into the CVD's memo."""
    from repro.invariants import CHAIN_ROWS, THETA, recreation_within
    from repro.relational.arrays import RidDelta
    from repro.storage.graph import ROOT, StorageGraph
    from repro.storage.solvers.mp import mp_min_storage

    total = deltas = stored = planned = deepest = 0
    worst, over = 0.0, []
    for table in tables:
        rows = dict(table.versioning_table.rows_snapshot())
        index = {vid: n for n, vid in enumerate(sorted(rows), start=1)}
        graph, known = StorageGraph(len(index), symmetric=True), {}
        for vid, n in index.items():  # parents first: a base's vid is lower
            row, rids = rows[vid], table.rids_of(vid, known)
            cost, depth = table.recreation_chain(vid)
            deltas += depth > 0
            stored += len(row)
            worst = max(worst, cost / max(len(rids), 1))
            deepest = max(deepest, depth)
            if not recreation_within(cost, len(rids), depth):
                over.append(vid)
            graph.edges[(ROOT, n)] = (len(rids), len(rids))
            for parent in cvd.versions.get(vid).parents:
                if parent in index:
                    step = len(RidDelta.between(parent, known[parent], rids))
                    graph.edges[(index[parent], n)] = (step, step)
        if index:
            bound = THETA * max(map(len, known.values()))
            planned += mp_min_storage(graph, bound).total_storage_cost(graph)
        total += len(index)
    severity, remediation = OK, ""
    if over:
        severity, remediation = FAIL, (
            f"rows past the bound are no commit's; reads stay right, only "
            f"slower: `orpheus optimize -d {name}` writes a partitioned "
            f"CVD's rows again"
        )
    return ProbeResult(
        probe=f"delta_chains[{name}]",
        severity=severity,
        summary=(
            f"{total - deltas} whole rlist rows, {deltas} deltas, max R/|v| "
            f"{worst:.2f} (θ {THETA}), max depth {deepest} ({CHAIN_ROWS}); "
            f"{stored} rids stored, MP {planned}"
        ),
        remediation=remediation,
        data={
            "dataset": name, "whole_rows": total - deltas, "delta_rows": deltas,
            "max_recreation_ratio": round(worst, 4), "theta": THETA,
            "max_depth": deepest, "chain_rows": CHAIN_ROWS,
            "over_bound": over[:20], "stored_rids": stored, "mp_rids": planned,
        },
    )


def probe_orphaned_versions(checkup: Checkup) -> list[ProbeResult]:
    """The version graph and the versions the physical model's tables
    can serve must agree."""
    results: list[ProbeResult] = []
    for name in checkup.orpheus.ls():
        cvd = checkup.orpheus.cvd(name)
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
    return results


def probe_stale_staging(checkup: Checkup) -> list[ProbeResult]:
    """Staged checkouts whose file vanished or that sat too long."""
    staging = checkup.orpheus.staging
    now = telemetry.now()
    vanished = staging.vanished()
    stale = [
        name
        for name, info in staging._staged.items()
        if name not in vanished
        and now - info.checkout_time > STALE_STAGING_SECONDS
    ]
    if vanished:
        severity = WARN
        summary = f"{len(vanished)} staged file(s) no longer exist on disk"
    elif stale:
        severity = WARN
        summary = f"{len(stale)} staged checkout(s) uncommitted for >7 days"
    else:
        severity = OK
        summary = f"{len(staging._staged)} staged checkout(s), all live"
    return [
        ProbeResult(
            probe="stale_staging",
            severity=severity,
            summary=summary,
            remediation=(
                "commit the staged checkouts you still want (they hold "
                "parent pins for provenance); delete the files of the "
                "others and run `orpheus recover`, which releases every "
                "checkout whose file is gone"
            ),
            data={"vanished": vanished[:20], "stale": stale[:20]},
        )
    ]


def probe_state_integrity(checkup: Checkup) -> list[ProbeResult]:
    """Checksum-verify ``state.pkl`` and every backup generation."""
    report = checkup.integrity
    status = report["status"]
    stray = report["stray_temps"]
    if status == "missing":
        return []
    if status == "corrupt":
        fallback_ok = any(b["ok"] for b in report["backups"])
        return [
            ProbeResult(
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
                    "run `orpheus recover`: it rewrites state.pkl from "
                    "the verified backup"
                    if fallback_ok
                    else "restore .orpheus/state.pkl from an external copy "
                    "or re-init from the operation journal"
                ),
                data=report,
            )
        ]
    severity = WARN if (status == "legacy" or stray) else OK
    bits = [f"{report['bytes']} bytes, checksum ok"]
    if status == "legacy":
        bits = [f"{report['bytes']} bytes, legacy pre-checksum format"]
    if stray:
        bits.append(f"{len(stray)} interrupted write temp(s)")
    return [
        ProbeResult(
            probe="state_integrity",
            severity=severity,
            summary="; ".join(bits),
            remediation=(
                "run `orpheus recover` to clean up (legacy files upgrade on "
                "the next mutating command)"
            ),
            data=report,
        )
    ]


def probe_backup_freshness(checkup: Checkup) -> list[ProbeResult]:
    """Backup generations must exist once the repository has history."""
    from repro.resilience.statestore import StateStore

    store = StateStore(checkup.root)
    if not store.path.exists():
        return []
    backups = [p for p in store.backup_paths if p.exists()]
    ops = len(checkup.journal)
    if not backups:
        return [
            ProbeResult(
                probe="backup_freshness",
                severity=WARN if ops >= 2 else OK,
                summary=(
                    f"no backup generation yet ({ops} journaled operation(s))"
                ),
                remediation=(
                    "every state save rotates a backup in: run the next "
                    "mutating command (a commit); if none appears, check "
                    "filesystem permissions on .orpheus/"
                ),
                data={"ops": ops},
            )
        ]
    state_mtime = store.path.stat().st_mtime
    newest = max(p.stat().st_mtime for p in backups)
    lag = state_mtime - newest
    stale = lag > STALE_STAGING_SECONDS
    return [
        ProbeResult(
            probe="backup_freshness",
            severity=WARN if stale else OK,
            summary=(
                f"{len(backups)} backup generation(s), newest "
                f"{max(lag, 0):.0f}s behind the live state"
            ),
            remediation=(
                "backups have not rotated in over a week of state writes; "
                "check filesystem permissions on .orpheus/"
            ),
            data={
                "backups": [p.name for p in backups],
                "lag_seconds": round(lag, 1),
            },
        )
    ]


def probe_pending_intents(checkup: Checkup) -> list[ProbeResult]:
    """Torn operations (a journal ``begin`` nothing closed) demand
    recovery."""
    from repro.observe.journal import Journal

    pending = Journal(checkup.root).pending()
    if not pending:
        return []
    return [
        ProbeResult(
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
    ]


#: Fault budget of :func:`judge_report`: worker errors or deadline
#: sheds above this percentage of total requests warn.
FAULT_BUDGET_PCT = 1.0


def judge_report(report: dict) -> list[ProbeResult]:
    """orpheusd's report (``stats_payload()``) as verdicts: one WARN
    ``service_health[<finding>]`` with its remedy per finding, else one
    OK ``service_health``. The deadline count already includes every
    queue shed. The doctor returns these; ``orpheus top`` prints the
    WARN ones."""
    server = report.get("server", {})
    scheduler = report.get("scheduler", {})
    requests = report.get("requests", {})
    degrade = report.get("degrade", {})
    quarantine = report.get("quarantine", {})
    total = requests.get("total", 0)
    findings: list[tuple[str, str, str]] = []
    if server.get("draining"):
        findings.append(("draining", "daemon is draining", ""))
    if scheduler.get("write_queue_depth", 0) >= max(
        1, scheduler.get("write_queue_capacity", 1)
    ):
        findings.append((
            "writer_queue",
            "writer queue is saturated",
            "raise `orpheus serve --queue-depth`/--workers or slow the "
            "writers; shed requests surface as BUSY to clients",
        ))
    if degrade.get("degraded"):
        findings.append((
            "degraded",
            f"degraded read-only mode ({degrade.get('cause') or 'unknown'})",
            "fix the storage fault behind the failing saves (disk full? "
            "permissions?); the daemon probes a save each housekeeping "
            "tick and exits degraded mode on success",
        ))
    if quarantine.get("quarantined"):
        findings.append((
            "quarantine",
            f"{quarantine['quarantined']} request digest(s) quarantined",
            "inspect `quarantine.entries` in `orpheus remote --json "
            "stats`, fix or stop the offending request, then `orpheus "
            "remote -- flush-quarantine`",
        ))
    for key, what, remedy in (
        (
            "worker_errors",
            "worker-error",
            "check the daemon stderr and the journal for the failing op; "
            "repeated crashers quarantine automatically",
        ),
        (
            "deadline_exceeded",
            "deadline-shed",
            "the queue is slow, not full: raise client deadlines "
            "(ORPHEUS_CLIENT_DEADLINE_MS), add workers, or shed load",
        ),
    ):
        pct = 100.0 * requests.get(key, 0) / max(1, total)
        if pct > FAULT_BUDGET_PCT:
            findings.append((
                key,
                f"{what} rate {pct:.1f}% exceeds the "
                f"{FAULT_BUDGET_PCT:.1f}% budget",
                remedy,
            ))
    data = {
        "pid": server.get("pid"),
        "uptime_s": report.get("uptime_s"),
        "requests": requests,
        "budget_pct": FAULT_BUDGET_PCT,
    }
    if findings:
        return [
            ProbeResult(f"service_health[{name}]", WARN, summary, remedy, data)
            for name, summary, remedy in findings
        ]
    return [
        ProbeResult(
            "service_health",
            OK,
            (
                f"daemon healthy: pid {server.get('pid')}, uptime "
                f"{report.get('uptime_s', 0):.0f}s, {total} requests "
                f"({requests.get('busy', 0)} shed busy), cache hit rate "
                f"{report.get('cache', {}).get('hit_rate', 0.0):.0%}, "
                f"{requests.get('worker_errors', 0)} worker error(s), "
                f"{requests.get('deadline_exceeded', 0)} deadline shed(s), "
                f"quarantine empty"
            ),
            data=data,
        )
    ]


def probe_service_health(checkup: Checkup) -> list[ProbeResult]:
    """orpheusd as :func:`judge_report` judges its report.

    Without a report the doctor runs in a CLI process holding the
    repository lock, which a live daemon never shares: a
    ``service.json`` it finds was left by a daemon that died. No status
    file at all is OK; serving is optional.
    """
    if checkup.report is not None:
        return judge_report(checkup.report)
    from repro.service.status import read_status_file

    status = read_status_file(checkup.root)
    if status is None:
        return []
    pid = int(status.get("pid") or 0)
    return [
        ProbeResult(
            probe="service_health",
            severity=WARN,
            summary=(
                f"stale service.json: the daemon that wrote it "
                f"(pid {pid}) is dead"
            ),
            remediation=(
                "remove .orpheus/service.json and the stale socket, "
                "then restart with `orpheus serve` (startup also "
                "recovers any torn operations)"
            ),
            data={"pid": pid, "socket": status.get("socket")},
        )
    ]


def probe_flight_recorder(checkup: Checkup) -> list[ProbeResult]:
    """Flight segments must stay within the recorder's own bound, end
    cleanly, and hold few slow requests.

    The bound is the newest segment header's ``segment_bytes`` ×
    ``max_segments``: the recorder rotates and prunes to it, so on-disk
    bytes above it mean pruning failed. A torn tail on the newest
    segment while no daemon is running (no report) means the last
    daemon died mid-write and the capture lost its final records. Slow
    requests (records carrying ``spans``) warn at
    :data:`SLOW_LOG_WARN_ENTRIES`; only their lines are parsed.
    """
    from repro.service.recorder import (
        flight_dir_path,
        flight_dir_status,
        read_slow,
    )

    flight_dir = flight_dir_path(checkup.root)
    status = flight_dir_status(flight_dir)
    if not status["segments"]:
        return []
    bound = status["segment_bytes"] * status["max_segments"]
    # A torn tail is expected while a daemon is appending; it only
    # signals data loss once nothing is writing.
    torn = status["newest_torn"] and checkup.report is None
    durations = sorted(
        record["total_s"] for record in read_slow(flight_dir)
        if isinstance(record.get("total_s"), (int, float))
    )
    slow = len(durations)
    p99_ms = (
        round(durations[min(slow - 1, int(0.99 * slow))] * 1000.0, 3)
        if durations else None
    )
    severity, remediation = WARN, ""
    if status["bytes"] > bound:
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
        summary = (
            "newest flight segment has a torn tail and no daemon is "
            "writing — the last capture lost its final records"
        )
        remediation = (
            "nothing to repair: readers (`orpheus heat`, this probe) skip "
            "the unparseable final line, and the next `orpheus serve` "
            "starts a fresh segment"
        )
    elif slow >= SLOW_LOG_WARN_ENTRIES:
        summary = (
            f"slow requests are piling up: {slow} over "
            f"{status['slow_ms']:g}ms"
        )
        remediation = (
            "watch the live breakdown with `orpheus top`; the `spans` "
            "of each slow flight record name its slow phase"
        )
    else:
        severity = OK
        summary = (
            f"{status['segments']} flight segment(s), "
            f"{status['bytes']} bytes (bound {bound}), "
            f"{slow} slow request(s)"
            + (f", p99 {p99_ms:.0f}ms" if p99_ms is not None else "")
        )
    return [
        ProbeResult(
            probe="flight_recorder",
            severity=severity,
            summary=summary,
            remediation=remediation,
            data={
                "segments": status["segments"],
                "bytes": status["bytes"],
                "bound_bytes": bound,
                "newest_torn": status["newest_torn"],
                "slow": slow,
                "slow_p99_ms": p99_ms,
                "slow_ms": status["slow_ms"],
                "path": str(flight_dir),
            },
        )
    ]


def probe_journal(checkup: Checkup) -> list[ProbeResult]:
    """Replay-verify the operation journal against the version graph."""
    from repro.observe.journal import verify_journal

    records = checkup.journal
    if not records:
        return []
    divergences = verify_journal(checkup.orpheus, records)
    return [
        ProbeResult(
            probe="journal",
            severity=FAIL if divergences else OK,
            summary=(
                f"{len(records)} records, {len(divergences)} divergence(s)"
            ),
            remediation=(
                "the state lost journaled operations (a restored backup?) "
                "or was changed outside the CLI: `orpheus log --ops "
                "--verify` names each divergence; redo the operations the "
                "state lacks"
            ),
            data={"divergences": divergences[:20]},
        )
    ]


def probe_heat_skew(checkup: Checkup) -> list[ProbeResult]:
    """Partition heat concentration from the access observatory.

    A partitioned layout only pays off when the workload spreads across
    partitions; one partition soaking up most of the decayed heat means
    the static split no longer matches the access pattern. Skew is the
    hottest partition's heat over the per-dataset mean; breaching
    :data:`~repro.observe.heat.HEAT_SKEW_FACTOR` warns and points at the
    advisor. Heat is mined against the live state, so a repartition
    re-attributes every past access.
    """
    from repro.observe import heat as heat_model

    heat = checkup.heat
    factor = heat_model.HEAT_SKEW_FACTOR
    if not heat.events_total or not heat.partitions:
        return []
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
    cold = heat.cold_fraction(checkup.orpheus, now)
    data = {
        "skew_factor_budget": factor,
        "skew_by_dataset": skews,
        "cold_fraction": None if cold is None else round(cold, 4),
    }
    worst = max(skews.values(), default=0.0)
    if worst > factor:
        hot = max(skews, key=skews.get)
        severity = WARN
        summary = (
            f"partition heat skew {worst:.1f}x on {hot!r} "
            f"(budget {factor:g}x)"
        )
    else:
        severity = OK
        summary = (
            f"heat spread ok across {len(by_dataset)} dataset(s) "
            f"(worst skew {worst:.1f}x, budget {factor:g}x)"
        )
    return [
        ProbeResult(
            probe="heat_skew",
            severity=severity,
            summary=summary,
            remediation=(
                "the workload concentrates on few partitions; see "
                "`orpheus heat` advisor and consider `orpheus optimize`"
            ),
            data=data,
        )
    ]


def probe_io_amplification(checkup: Checkup) -> list[ProbeResult]:
    """Observed checkout read amplification vs.
    :data:`~repro.observe.heat.AMP_BUDGET`.

    Rows scanned per requested row, per data model, from the mined heat
    model's samples. Above the budget warns; above four times the
    budget fails — checkouts are paying for almost nothing but waste.
    Checkouts of a dataset dropped since (model ``(unknown)``) judge no
    layout and are left out.
    """
    from repro.observe import heat as heat_model
    from repro.observe.amplification import amplification_report

    report = amplification_report(checkup.heat)
    amps = {
        model: commands["checkout"]["read_amplification"]
        for model, commands in report.items()
        if model != "(unknown)"
        and commands.get("checkout", {}).get("read_amplification")
        is not None
    }
    if not amps:
        return []
    budget = heat_model.AMP_BUDGET
    worst_model = max(amps, key=amps.get)
    worst = amps[worst_model]
    data = {"amp_budget": budget, "checkout_read_amplification": amps}
    if worst > budget:
        severity = FAIL if worst > 4 * budget else WARN
        summary = (
            f"checkout reads {worst:.1f}x the requested rows on "
            f"{worst_model} (budget {budget:g}x)"
        )
    else:
        severity = OK
        summary = (
            f"worst checkout read amplification {worst:.2f}x "
            f"({worst_model}, budget {budget:g}x)"
        )
    return [
        ProbeResult(
            probe="io_amplification",
            severity=severity,
            summary=summary,
            remediation=(
                "the layout scans far more than it returns; see "
                "`orpheus heat` for the amplification table and the "
                "advisor's recommendation, then check out the versions you "
                "need, `orpheus drop` the dataset and `orpheus init` them "
                "under a new name with `--model partitioned_rlist`"
            ),
            data=data,
        )
    ]


# ----------------------------------------------------------------------
# Page store health (paged ORPHSTA2 layout)
# ----------------------------------------------------------------------
#: How many page files the doctor checksum-verifies per run.
PAGE_SPOT_CHECK = 8


def probe_page_store(checkup: Checkup) -> list[ProbeResult]:
    """Verify the paged layout's on-disk invariants: every referenced
    page present, no orphans or stray temps, and a checksum spot-check
    over the pages the live generation wrote last (the ones an
    interrupted write-back could have hurt)."""
    from repro.pagestore import pages as pagefiles
    from repro.pagestore.store import (
        live_pages,
        orphan_pages,
        referenced_pages,
    )
    from repro.resilience import fsio

    root = checkup.root
    layout = checkup.integrity.get("layout")
    directory = pagefiles.pages_dir(root)
    if layout != "paged" and not directory.is_dir():
        return []

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
        return [
            ProbeResult(
                probe="page_store_health",
                severity=FAIL,
                summary=(
                    f"{len(missing)} referenced page file(s) missing from "
                    f"{directory}"
                ),
                remediation=(
                    "the live state references pages that are gone; load "
                    "will fall back to a backup generation — run `orpheus "
                    "recover` and check `orpheus log --ops` for lost "
                    "operations"
                ),
                data=data,
            )
        ]

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
        return [
            ProbeResult(
                probe="page_store_health",
                severity=FAIL,
                summary=f"{len(corrupt)} corrupt page file(s) detected",
                remediation=(
                    "page checksums do not verify; restore "
                    ".orpheus/state.pkl from the newest backup generation "
                    "that does not reference them (state.pkl.bak), run "
                    "`orpheus recover` to sweep the pages it leaves "
                    "unreferenced, and redo what `orpheus log --ops` lists "
                    "after that generation"
                ),
                data=data,
            )
        ]

    orphans = orphan_pages(root)
    temps = fsio.stray_temps(directory)
    if orphans or temps:
        data["orphan_pages"] = len(orphans)
        data["stray_temps"] = len(temps)
        return [
            ProbeResult(
                probe="page_store_health",
                severity=WARN,
                summary=(
                    f"{len(orphans)} orphaned page(s) and {len(temps)} "
                    f"stray temp file(s) — debris from an interrupted "
                    f"write-back"
                ),
                remediation="run `orpheus recover` to clean the page store",
                data=data,
            )
        ]

    return [
        ProbeResult(
            probe="page_store_health",
            severity=OK,
            summary=(
                f"{len(files)} page file(s), all referenced pages present, "
                f"{data['pages_checked']} checksum-verified"
            ),
            data=data,
        )
    ]


# ----------------------------------------------------------------------
#: The doctor: probe name -> (probe, the OK summary it gets when it
#: returns nothing; empty for the probes that always report), in report
#: order.
PROBES = {
    "checkout_cost": (probe_checkout_cost, "no partitioned CVDs to check"),
    "partition_imbalance": (
        probe_partition_imbalance, "no partitioned CVDs to check",
    ),
    "delta_chains": (probe_delta_chains, "no delta-based or rlist CVDs to check"),
    "orphaned_versions": (
        probe_orphaned_versions,
        "version graph and physical membership agree",
    ),
    "stale_staging": (probe_stale_staging, ""),
    "journal": (probe_journal, "no operations journaled"),
    "state_integrity": (
        probe_state_integrity, "no state file yet (fresh repository)",
    ),
    "backup_freshness": (
        probe_backup_freshness, "no state file yet, nothing to back up",
    ),
    "pending_intents": (
        probe_pending_intents, "no journal begin left open, none pending",
    ),
    "service_health": (
        probe_service_health,
        "no daemon registered (orpheus serve not running)",
    ),
    "flight_recorder": (probe_flight_recorder, "no flight segments recorded"),
    "heat_skew": (probe_heat_skew, "no heat recorded"),
    "io_amplification": (probe_io_amplification, "no checkouts observed"),
    "page_store_health": (
        probe_page_store, "pickle layout; page store not in use",
    ),
}


def run_probe(name: str, checkup: Checkup) -> list[ProbeResult]:
    """One probe under the runner's two rules: nothing found is one OK
    line with the idle summary, and an OK result carries no remedy."""
    probe, idle = PROBES[name]
    results = probe(checkup) or [ProbeResult(name, OK, idle)]
    for result in results:
        if result.severity == OK:
            result.remediation = ""
    return results


def run_doctor(
    orpheus, root: str | None = None, report: dict | None = None
) -> DoctorReport:
    """Run every probe against one repository; ``report`` is orpheusd's
    own report when the daemon runs the doctor."""
    checkup = Checkup(orpheus, root, report)
    with telemetry.span("observe.doctor"):
        doctor = DoctorReport(
            [result for name in PROBES for result in run_probe(name, checkup)]
        )
        telemetry.count("observe.doctor.runs")
        telemetry.count(
            "observe.doctor.failures",
            sum(1 for r in doctor.results if r.severity == FAIL),
        )
        return doctor
