"""Torn-operation recovery: make the next invocation after a crash safe.

A mutating command's durable effects land in this order (each step
atomic on its own):

1. ``begin`` line                        (operation journal, ``ops.jsonl``)
2. CSV artifact, for checkout           (user-named file)
3. state save                           (transactional state store)
4. op record, which closes the ``begin`` (operation journal)

A crash between any two steps leaves a *torn* operation: a pending
``begin`` whose side effects are some prefix of that list.
:func:`run_recovery` classifies each pending ``begin`` by inspecting
which effects actually landed and repairs the repository:

* effects stopped before the state save → **roll back**: delete the
  torn checkout artifact (if provably ours: named in the ``begin``,
  newer than its timestamp, untracked by staging) and every stray temp
  file under ``.orpheus/``; the operation simply never happened, and a
  ``done`` line closes the ``begin``.
* state saved but never journaled → **reconcile forward**: synthesize
  the missing op record from the version graph (marked
  ``"recovered": true``, carrying the ``begin``'s trace id, so it closes
  it) so ``orpheus log --verify`` and the doctor journal probe agree
  with reality again.

Every pass also rewrites a live state file that only a backup could
serve, releases the staging pin of each checkout whose file no longer
exists (nothing can commit it), and moves the open intents of the
separate intent log older repositories kept into the journal.

Recovery runs automatically before any command when a ``begin`` is
pending (under the exclusive repository lock), and explicitly via
``orpheus recover [--dry-run]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.observe.journal import (
    JOURNAL_DIR,
    Journal,
    close_line,
    journal_expected_state,
    verify_journal,
)
from repro.resilience import fsio
from repro.resilience.statestore import StateCorruptionError, StateStore

#: Grace window when comparing a file's mtime against the ``begin``
#: timestamp (coarse filesystem timestamps, small clock skew).
_MTIME_SLACK = 1.0

#: The separate intent log older repositories kept beside the journal.
LEGACY_INTENTS = "intents.jsonl"


def _legacy_path(root: str | None) -> Path:
    return Path(root or ".") / ".orpheus" / JOURNAL_DIR / LEGACY_INTENTS


def needs_recovery(root: str | None = None) -> bool:
    """Cheap check, without the lock: is a ``begin`` pending, or is a
    legacy intent log left to move into the journal?

    A false positive (an operation in flight in another live process)
    is harmless: recovery re-derives the pending set under the
    exclusive lock, and once the other process completes there is
    nothing to do.
    """
    return bool(Journal(root).pending()) or _legacy_path(root).exists()


@dataclass
class RecoveryAction:
    """One repair (taken, or planned under ``--dry-run``)."""

    #: clean-temp | rollback-artifact | synthesize-journal |
    #: resolve-intent | restore-state | release-staging | upgrade-intents
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

    legacy = _upgrade_legacy_intents(root, journal, report, dry_run)
    pending = legacy + journal.pending()
    if not pending:
        return report

    records = journal.read()
    if orpheus is not None:
        expected, alive = journal_expected_state(records)
        live = set(orpheus.ls())
    else:
        expected, alive, live = {}, set(), set()

    telemetry.count("resilience.recover.torn_ops", len(pending))
    for intent in pending:
        trace_id = intent.get("trace_id", "")
        if corrupt:
            report.problems.append(
                f"cannot reconcile torn {intent.get('command', '?')} "
                f"(trace {trace_id or '-'}): state is unreadable"
            )
            continue  # leave the begin pending for a later attempt
        synthesized = _reconcile_intent(
            intent, orpheus, expected, alive, live, report, dry_run, journal
        )
        if synthesized:
            telemetry.count(
                "resilience.recover.journal_records_synthesized",
                synthesized,
            )
        elif not dry_run:
            journal.append(close_line(trace_id, "recovered"))

    if orpheus is not None and not dry_run:
        leftovers = verify_journal(orpheus, journal.read())
        for divergence in leftovers:
            report.problems.append(
                f"journal still diverges after recovery: {divergence}"
            )
    return report


def _upgrade_legacy_intents(
    root: str | None, journal: Journal, report: RecoveryReport, dry_run: bool
) -> list[dict]:
    """Move the open intents of a legacy intent log into the
    journal as ``begin`` lines, then delete it. Returns them when this
    is a dry run (the journal does not hold them then)."""
    path = _legacy_path(root)
    if not path.exists():
        return []
    records = fsio.read_jsonl(path)[0]
    done = {r.get("trace_id") for r in records if r.get("phase") == "done"}
    begins = [
        r
        for r in records
        if r.get("phase") == "begin" and r.get("trace_id") not in done
    ]
    if begins:
        report.actions.append(
            RecoveryAction(
                "upgrade-intents",
                f"move {len(begins)} open intent(s) from {LEGACY_INTENTS} "
                f"into the journal",
            )
        )
    if dry_run:
        return begins
    for begin in begins:
        fsio.append_jsonl(journal.path, begin, fsync=True)
    path.unlink(missing_ok=True)
    return []


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
    """Repair one torn ``begin``. Returns the number of op records
    synthesized: each carries the ``begin``'s trace id, so closes it."""
    command = intent.get("command", "?")
    trace_id = intent.get("trace_id", "")
    dataset = intent.get("dataset")
    label = f"{command} (trace {trace_id or '-'})"

    def resolve(why: str) -> int:
        report.actions.append(RecoveryAction("resolve-intent", f"{label} {why}"))
        return 0

    def synthesize(why: str, **fields) -> None:
        report.actions.append(
            RecoveryAction("synthesize-journal", f"{label}: {why}")
        )
        if not dry_run:
            journal.append({
                "trace_id": trace_id,
                "command": command,
                "status": "ok",
                "ts": intent.get("ts", telemetry.now()),
                "user": intent.get("user", ""),
                "dataset": dataset,
                **fields,
                "recovered": True,
            })

    if command in ("init", "commit") and dataset:
        if dataset not in live:
            return resolve("died before saving state")
        cvd = orpheus.cvd(dataset)
        known = expected.setdefault(dataset, {})
        missing = [v for v in cvd.versions.vids() if v not in known]
        if not missing:
            return resolve("left no unjournaled versions")
        for vid in missing:
            metadata = cvd.versions.get(vid)
            parents = list(metadata.parents)
            synthesize(
                f"v{vid} of {dataset!r} exists in the graph but was never "
                f"journaled",
                command="commit" if parents else "init",
                output_version=vid,
                rows=metadata.record_count,
                **({"input_versions": parents} if parents else {}),
            )
            known[vid] = (tuple(parents), metadata.record_count)
        alive.add(dataset)
        return len(missing)

    if command == "checkout":
        target = intent.get("file")
        info = orpheus.staging.pinned(target) if target else None
        if info is not None:
            synthesize(
                f"{target} is staged in state but was never journaled",
                input_versions=list(info.parents),
            )
            return 1
        if not (target and _is_torn_artifact(target, intent)):
            return resolve("died before saving state")
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
        return 0

    if command == "drop" and dataset:
        if dataset in live or dataset not in alive:
            return resolve("left journal and state agreeing")
        synthesize(f"{dataset!r} is gone from state but still journaled as live")
        alive.discard(dataset)
        expected.pop(dataset, None)
        return 1

    # optimize (and anything future): repartitioning carries no
    # version-graph footprint the journal verifier checks, so the only
    # repair is closing the ``begin``.
    return resolve("has no journal-visible footprint")


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
