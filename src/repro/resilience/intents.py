"""Write-ahead intent log: detect operations that died halfway.

Before a mutating command touches any repository state it appends a
``begin`` record to ``.orpheus/journal/intents.jsonl``; after the state
save *and* the operation-journal append have both landed it appends a
matching ``done`` record. A ``begin`` with no ``done`` therefore marks a
*torn* operation — the process died somewhere between intent and
completion — and :mod:`repro.resilience.recovery` uses the pair set to
decide what to roll back or reconcile.

Records are single fsynced JSON lines (:mod:`repro.resilience.fsio`,
like the operation journal). Completed pairs are garbage: once a
``done`` leaves the file larger than :data:`COMPACT_BYTES` it is
compacted down to just the pending ``begin`` records via an atomic
rewrite. The decision is one ``stat``, so a ``done`` parses nothing
until it compacts, and the lock-free pending check every command runs
first parses a file of at most that size: a couple of dozen lines.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import telemetry
from repro.resilience import failpoints, fsio

INTENTS_FILE = "intents.jsonl"
JOURNAL_DIR = "journal"
#: A begin/done pair is 200-400 bytes, so this is 10-20 operations.
COMPACT_BYTES = 4096


class IntentLog:
    """Reader/writer for one repository's intent log."""

    def __init__(self, root: str | None = None) -> None:
        self.path = (
            Path(root or ".") / ".orpheus" / JOURNAL_DIR / INTENTS_FILE
        )

    # ------------------------------------------------------------------
    def begin(self, trace_id: str, command: str, **details) -> None:
        """Durably record the intent to run ``command`` before any state
        is touched. A ``file`` is recorded as an absolute path, so a
        recovery run from another directory reaches the same file."""
        if details.get("file"):
            details["file"] = os.path.abspath(details["file"])
        record = {
            "phase": "begin",
            "trace_id": trace_id,
            "command": command,
            "ts": telemetry.now(),
        }
        for key, value in details.items():
            if value is not None:
                record[key] = value
        fsio.append_jsonl(self.path, record, fsync=True)
        failpoints.fire("intent.after_begin")

    def done(self, trace_id: str, status: str = "ok") -> None:
        """Mark the operation complete (state + journal both durable)."""
        failpoints.fire("intent.before_done")
        fsio.append_jsonl(
            self.path,
            {
                "phase": "done",
                "trace_id": trace_id,
                "status": status,
                "ts": telemetry.now(),
            },
            fsync=True,
        )
        self.compact_if_needed()

    # ------------------------------------------------------------------
    def read(self) -> list[dict]:
        """All well-formed records; torn tail lines are skipped."""
        return fsio.read_jsonl(self.path)[0]

    def pending(self) -> list[dict]:
        """``begin`` records with no matching ``done`` — torn operations."""
        records = self.read()
        done = {
            r.get("trace_id")
            for r in records
            if r.get("phase") == "done" and r.get("trace_id")
        }
        return [
            r
            for r in records
            if r.get("phase") == "begin" and r.get("trace_id") not in done
        ]

    # ------------------------------------------------------------------
    def compact_if_needed(self, threshold: int = COMPACT_BYTES) -> bool:
        """Rewrite the log as its pending ``begin`` records once it is
        larger than ``threshold`` bytes. Caller holds the exclusive
        repository lock."""
        try:
            if self.path.stat().st_size <= threshold:
                return False
        except FileNotFoundError:
            return False
        fsio.rewrite_jsonl(self.path, self.pending(), fsync=True)
        return True


def has_pending_intents(root: str | None = None) -> bool:
    """Cheap pre-lock check: does this repository have torn operations?

    A false positive (an operation currently in flight in another live
    process) is harmless — the recovery path re-checks under the
    exclusive lock and no-ops once the other process completes.
    """
    return bool(IntentLog(root).pending())
