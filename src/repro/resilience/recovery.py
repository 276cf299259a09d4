"""Torn-operation recovery: make the next invocation after a crash safe.

A mutating command's durable effects land in this order (each step
atomic on its own):

1. intent ``begin``                      (intent log)
2. CSV artifact, for checkout           (user-named file)
3. state save                           (transactional state store)
4. operation-journal append             (``ops.jsonl``)
5. intent ``done``                      (intent log)

A crash between any two steps leaves a *torn* operation: a pending
intent whose side effects are some prefix of that list.
:func:`run_recovery` classifies each pending intent by inspecting which
effects actually landed and repairs the repository:

* effects stopped before the state save → **roll back**: delete the
  torn checkout artifact (if provably ours: named in the intent, newer
  than the intent timestamp, untracked by staging) and every stray
  temp file under ``.orpheus/``; the operation simply never happened.
* state saved but never journaled → **reconcile forward**: synthesize
  the missing operation-journal record from the version graph (marked
  ``"recovered": true``) so ``orpheus log --verify`` and the doctor
  journal probe agree with reality again.
* journaled but the intent was never closed → just resolve the intent.

Every pass also rewrites a live state file that only a backup could
serve, and releases the staging pin of each checkout whose file no
longer exists (nothing can commit it).

Recovery runs automatically before any command when pending intents
exist (under the exclusive repository lock), and explicitly via
``orpheus recover [--dry-run]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.observe.journal import Journal, journal_expected_state, verify_journal
from repro.resilience import fsio
from repro.resilience.intents import IntentLog
from repro.resilience.statestore import StateCorruptionError, StateStore

#: Grace window when comparing a file's mtime against the intent
#: timestamp (coarse filesystem timestamps, small clock skew).
_MTIME_SLACK = 1.0


@dataclass
class RecoveryAction:
    """One repair (taken, or planned under ``--dry-run``)."""

    #: clean-temp | rollback-artifact | synthesize-journal |
    #: resolve-intent | restore-state | release-staging
    kind: str
    detail: str


@dataclass
class RecoveryReport:
    """Everything a recovery pass did or would do."""

    dry_run: bool = False
    actions: list[RecoveryAction] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    state_source: str | None = None

    @property
    def clean(self) -> bool:
        return not self.problems

    def render_text(self) -> str:
        prefix = "would " if self.dry_run else ""
        lines = []
        if not self.actions and not self.problems:
            lines.append("nothing to recover: no torn operations found")
        for action in self.actions:
            lines.append(f"{prefix}{action.kind}: {action.detail}")
        for problem in self.problems:
            lines.append(f"UNRESOLVED: {problem}")
        if self.state_source and self.state_source != "state.pkl":
            lines.append(f"state loaded from fallback: {self.state_source}")
        lines.append(
            f"recovery {'plan' if self.dry_run else 'complete'}: "
            f"{len(self.actions)} action(s), {len(self.problems)} problem(s)"
        )
        return "\n".join(lines) + "\n"


def run_recovery(
    root: str | None = None, dry_run: bool = False
) -> RecoveryReport:
    """One recovery pass. Caller must hold the exclusive repository lock
    (or be single-process, e.g. tests)."""
    with telemetry.span("resilience.recover"):
        report = _run_recovery(root, dry_run)
    telemetry.count("resilience.recover.runs")
    if not report.dry_run:
        telemetry.count(
            "resilience.recover.actions", len(report.actions)
        )
    return report


def _run_recovery(root: str | None, dry_run: bool) -> RecoveryReport:
    report = RecoveryReport(dry_run=dry_run)
    store = StateStore(root)
    intents = IntentLog(root)
    journal = Journal(root)

    # Every temp an interrupted write left anywhere under .orpheus/: we
    # hold the exclusive lock, so no live writer can own one.
    for temp in fsio.stray_temps(store.dir):
        report.actions.append(
            RecoveryAction(
                "clean-temp",
                f"remove interrupted write "
                f"{temp.relative_to(store.dir).as_posix()}",
            )
        )
        if not dry_run:
            try:
                temp.unlink()
            except OSError:
                pass

    # Paged layout: a save that died between page write-back and the
    # state swap leaves orphaned page files. Clean them with the same
    # dry-run discipline.
    try:
        from repro.pagestore.store import clean_pagestore

        for kind, detail in clean_pagestore(root, dry_run=dry_run):
            report.actions.append(RecoveryAction(kind, detail))
    except Exception as error:
        report.problems.append(f"page store cleanup failed: {error}")

    orpheus = None
    corrupt = False
    try:
        orpheus, info = store.load(warn=None)
        report.state_source = info.source
        for warning in info.warnings:
            report.actions.append(
                RecoveryAction("note", f"skipped corrupt generation: {warning}")
            )
    except StateCorruptionError as error:
        corrupt = True
        report.problems.append(str(error))

    # A live state file that only a backup could serve is rewritten from
    # it, and a checkout pinned to a file that is gone (nothing can
    # commit it) is released.
    repairs = []
    if report.state_source not in (None, store.path.name):
        repairs.append(RecoveryAction(
            "restore-state",
            f"rewrite {store.path.name} from {report.state_source}",
        ))
    for path in orpheus.staging.vanished() if orpheus is not None else ():
        repairs.append(
            RecoveryAction("release-staging", f"{path} no longer exists")
        )
        if not dry_run:
            orpheus.staging.unpin(path)
    report.actions.extend(repairs)
    if repairs and not dry_run:
        store.save(orpheus)

    pending = intents.pending()
    if not pending:
        return report

    records = journal.read()
    journaled_traces = {r.get("trace_id") for r in records}
    if orpheus is not None:
        expected, alive = journal_expected_state(records)
        live = set(orpheus.ls())
    else:
        expected, alive, live = {}, set(), set()

    telemetry.count("resilience.recover.torn_ops", len(pending))
    for intent in pending:
        trace_id = intent.get("trace_id", "")
        command = intent.get("command", "?")
        label = f"{command} (trace {trace_id or '-'})"
        if trace_id in journaled_traces:
            report.actions.append(
                RecoveryAction(
                    "resolve-intent",
                    f"{label} already journaled; closing intent",
                )
            )
        elif corrupt:
            report.problems.append(
                f"cannot reconcile torn {label}: state is unreadable"
            )
            continue  # leave the intent pending for a later attempt
        else:
            synthesized = _reconcile_intent(
                intent, orpheus, expected, alive, live, report, dry_run, journal
            )
            if synthesized:
                telemetry.count(
                    "resilience.recover.journal_records_synthesized",
                    synthesized,
                )
        if not dry_run:
            intents.done(trace_id, status="recovered")

    if orpheus is not None and not dry_run:
        leftovers = verify_journal(orpheus, journal.read())
        for divergence in leftovers:
            report.problems.append(
                f"journal still diverges after recovery: {divergence}"
            )
    return report


def _reconcile_intent(
    intent: dict,
    orpheus,
    expected: dict,
    alive: set,
    live: set,
    report: RecoveryReport,
    dry_run: bool,
    journal: Journal,
) -> int:
    """Repair one torn, unjournaled intent. Returns the number of
    journal records synthesized."""
    command = intent.get("command", "?")
    trace_id = intent.get("trace_id", "")
    dataset = intent.get("dataset")
    label = f"{command} (trace {trace_id or '-'})"

    if command in ("init", "commit") and dataset:
        if dataset not in live:
            report.actions.append(
                RecoveryAction(
                    "resolve-intent", f"{label} died before saving state"
                )
            )
            return 0
        cvd = orpheus.cvd(dataset)
        known = expected.get(dataset, {})
        missing = [v for v in cvd.versions.vids() if v not in known]
        if not missing:
            report.actions.append(
                RecoveryAction(
                    "resolve-intent", f"{label} left no unjournaled versions"
                )
            )
            return 0
        for vid in missing:
            metadata = cvd.versions.get(vid)
            record = {
                "trace_id": trace_id,
                "command": "init" if not metadata.parents else "commit",
                "status": "ok",
                "ts": intent.get("ts", telemetry.now()),
                "user": intent.get("user", ""),
                "dataset": dataset,
                "output_version": vid,
                "rows": metadata.record_count,
                "recovered": True,
            }
            if metadata.parents:
                record["input_versions"] = list(metadata.parents)
            report.actions.append(
                RecoveryAction(
                    "synthesize-journal",
                    f"{label}: v{vid} of {dataset!r} exists in the graph "
                    f"but was never journaled",
                )
            )
            if not dry_run:
                journal.append(record)
            known = expected.setdefault(dataset, {})
            known[vid] = (tuple(metadata.parents), metadata.record_count)
            alive.add(dataset)
        return len(missing)

    if command == "checkout":
        target = intent.get("file")
        info = orpheus.staging.pinned(target) if target else None
        if info is not None:
            record = {
                "trace_id": trace_id,
                "command": "checkout",
                "status": "ok",
                "ts": intent.get("ts", telemetry.now()),
                "user": intent.get("user", ""),
                "dataset": dataset,
                "input_versions": list(info.parents),
                "recovered": True,
            }
            report.actions.append(
                RecoveryAction(
                    "synthesize-journal",
                    f"{label}: {target} is staged in state but was never "
                    f"journaled",
                )
            )
            if not dry_run:
                journal.append(record)
            return 1
        if target and _is_torn_artifact(target, intent):
            report.actions.append(
                RecoveryAction(
                    "rollback-artifact",
                    f"{label}: remove torn checkout file {target}",
                )
            )
            if not dry_run:
                try:
                    os.unlink(target)
                    telemetry.count("resilience.recover.artifacts_removed")
                except OSError:
                    pass
        else:
            report.actions.append(
                RecoveryAction(
                    "resolve-intent", f"{label} died before saving state"
                )
            )
        return 0

    if command == "drop" and dataset:
        if dataset not in live and dataset in alive:
            record = {
                "trace_id": trace_id,
                "command": "drop",
                "status": "ok",
                "ts": intent.get("ts", telemetry.now()),
                "user": intent.get("user", ""),
                "dataset": dataset,
                "recovered": True,
            }
            report.actions.append(
                RecoveryAction(
                    "synthesize-journal",
                    f"{label}: {dataset!r} is gone from state but still "
                    f"journaled as live",
                )
            )
            if not dry_run:
                journal.append(record)
            alive.discard(dataset)
            expected.pop(dataset, None)
            return 1
        report.actions.append(
            RecoveryAction(
                "resolve-intent", f"{label} left journal and state agreeing"
            )
        )
        return 0

    # optimize (and anything future): repartitioning carries no
    # version-graph footprint the journal verifier checks, so the only
    # repair is closing the intent.
    report.actions.append(
        RecoveryAction(
            "resolve-intent", f"{label} has no journal-visible footprint"
        )
    )
    return 0


def _is_torn_artifact(target: str, intent: dict) -> bool:
    """Only remove a file we can prove the torn operation created:
    it exists, and its mtime is at or after the intent was logged (a
    pre-existing user file untouched by the crash stays put)."""
    try:
        mtime = Path(target).stat().st_mtime
    except OSError:
        return False
    ts = intent.get("ts")
    return ts is None or mtime >= float(ts) - _MTIME_SLACK
