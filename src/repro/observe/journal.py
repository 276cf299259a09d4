"""The append-only operation journal: what happened to this repository.

Every mutating ``orpheus`` command (init/commit/checkout/optimize/drop)
appends exactly one JSON line to ``.orpheus/journal/ops.jsonl`` — success
*or* failure — carrying a trace id that is also stamped on the command's
root telemetry span, so a journal entry, its metrics, and its span tree
correlate. The journal is the durable "what happened" record DataHub-style
collaborative versioning needs: who ran what, against which versions,
producing which version, touching how many rows, and (for failures) why.

``orpheus log --ops`` renders it; ``orpheus log --ops --verify`` replays
the journal against the live version graph and reports divergence
(journaled versions missing from the graph, parent mismatches, record
counts drifting, datasets that should or should not exist).

The journal is also the write-ahead intent log. Before a mutating
command touches any state it appends a ``begin`` line; its op record,
carrying the same trace id, is its completion. A ``begin`` nothing
later closes marks a *torn* operation, which
:mod:`repro.resilience.recovery` repairs. Lines that are not op records
carry a ``phase`` key: ``begin``, or ``done`` for a bracket that closes
without an op record (an orpheusd ``serve`` save, a recovery rollback).
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.resilience import failpoints, fsio

JOURNAL_DIR = "journal"
JOURNAL_FILE = "ops.jsonl"

#: CLI commands that mutate repository state and therefore journal.
MUTATING_COMMANDS = frozenset(
    {"init", "commit", "checkout", "optimize", "drop"}
)

#: Everything that journals: the mutations plus the read-only commands
#: whose invocations matter for collaborative audit (who queried or
#: compared what). ``diff`` and ``run`` journal but write no ``begin``
#: and take no exclusive lock — they cannot tear.
JOURNALED_COMMANDS = MUTATING_COMMANDS | frozenset({"diff", "run"})


#: The scan-footprint fields an :class:`OpRecord` may carry.
SCAN_FIELDS = (
    "rows_scanned", "bytes_scanned", "rows_written", "bytes_written",
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id for one CLI invocation."""
    return uuid.uuid4().hex[:16]


@dataclass
class OpRecord:
    """One journal line. All fields JSON-scalar so lines stay greppable."""

    trace_id: str
    command: str
    status: str  # "ok" | "error"
    ts: float
    user: str = ""
    #: Daemon session that issued the command (None for CLI-local ops).
    session_id: int | None = None
    dataset: str | None = None
    input_versions: list[int] = field(default_factory=list)
    output_version: int | None = None
    rows: int | None = None
    duration_s: float | None = None
    error_type: str | None = None
    error_message: str | None = None
    #: A CLI command's scan footprint (its ``storage.io.*`` counters),
    #: the journal's half of the mined heat model. The daemon leaves
    #: them unset: its flight record carries each request's.
    rows_scanned: int | None = None
    bytes_scanned: int | None = None
    rows_written: int | None = None
    bytes_written: int | None = None

    def to_dict(self) -> dict:
        record = {
            "trace_id": self.trace_id,
            "command": self.command,
            "status": self.status,
            "ts": self.ts,
            "user": self.user,
        }
        if self.session_id is not None:
            record["session_id"] = self.session_id
        if self.dataset is not None:
            record["dataset"] = self.dataset
        if self.input_versions:
            record["input_versions"] = list(self.input_versions)
        if self.output_version is not None:
            record["output_version"] = self.output_version
        if self.rows is not None:
            record["rows"] = self.rows
        if self.duration_s is not None:
            record["duration_s"] = self.duration_s
        for key in SCAN_FIELDS:
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        if self.error_type is not None:
            record["error"] = {
                "type": self.error_type,
                "message": self.error_message or "",
            }
        return record


class Journal:
    """Reader/writer for one repository's operation journal."""

    def __init__(self, root: str | None = None) -> None:
        self.path = (
            Path(root or ".") / ".orpheus" / JOURNAL_DIR / JOURNAL_FILE
        )

    def append(self, record: OpRecord | dict) -> None:
        """Append one record as a single fsynced JSON line."""
        payload = record.to_dict() if isinstance(record, OpRecord) else record
        failpoints.fire("journal.before_append")
        fsio.append_jsonl(self.path, payload, fsync=True)
        failpoints.fire("journal.after_append")

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
        failpoints.fire("journal.after_begin")

    def read(self) -> list[dict]:
        """All well-formed op records, oldest first. Malformed lines (e.g.
        a torn tail write) are skipped, not fatal."""
        return [r for r in fsio.read_jsonl(self.path)[0] if "phase" not in r]

    def pending(self) -> list[dict]:
        """The ``begin`` lines no later line closes, oldest first.

        A writer checks this under the exclusive repository lock before
        it appends its own ``begin``, so every open ``begin`` is newer
        than the newest closed one. The walk back from the end stops
        there: it reads the journal's tail, however long the journal."""
        closed: set = set()
        open_begins = []
        for record in fsio.jsonl_reversed(self.path):
            trace_id = record.get("trace_id")
            if record.get("phase") != "begin":
                closed.add(trace_id)
            elif trace_id in closed:
                break
            else:
                open_begins.append(record)
        return open_begins[::-1]

    def render_text(self, records: list[dict] | None = None) -> str:
        records = self.read() if records is None else records
        if not records:
            return "no operations journaled\n"
        lines = []
        for record in records:
            status = record.get("status", "?")
            flag = "" if status == "ok" else " [FAILED]"
            bits = [
                f"{record.get('trace_id', '-'):<16}",
                f"{record.get('command', '?'):<9}",
            ]
            if record.get("dataset"):
                bits.append(f"d={record['dataset']}")
            if record.get("input_versions"):
                versions = ",".join(map(str, record["input_versions"]))
                bits.append(f"in=[{versions}]")
            if record.get("output_version") is not None:
                bits.append(f"out=v{record['output_version']}")
            if record.get("rows") is not None:
                bits.append(f"rows={record['rows']}")
            if record.get("user"):
                bits.append(f"by={record['user']}")
            if record.get("session_id") is not None:
                bits.append(f"sid={record['session_id']}")
            error = record.get("error")
            if error:
                bits.append(f"error={error.get('type')}: {error.get('message')}")
            lines.append("  ".join(bits) + flag)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Replay-verify
# ----------------------------------------------------------------------
def journal_expected_state(
    records: list[dict],
) -> tuple[dict[str, dict[int, tuple[tuple[int, ...], int | None]]], set[str]]:
    """Replay the successful records into the expected repository shape.

    Returns ``(expected, alive)``: per dataset, the versions the journal
    says exist (with parents and row counts), and the set of datasets
    the journal says are live. Shared by :func:`verify_journal` and the
    crash-recovery reconciler in :mod:`repro.resilience.recovery`.
    """
    expected: dict[str, dict[int, tuple[tuple[int, ...], int | None]]] = {}
    alive: set[str] = set()
    for record in records:
        if record.get("status") != "ok":
            continue
        command = record.get("command")
        dataset = record.get("dataset")
        if dataset is None:
            continue
        if command == "init":
            expected[dataset] = {}
            alive.add(dataset)
            vid = record.get("output_version")
            if vid:
                expected[dataset][vid] = ((), record.get("rows"))
        elif command == "commit":
            vid = record.get("output_version")
            if vid is None:
                continue  # malformed; verify_journal reports it
            parents = tuple(record.get("input_versions", ()))
            expected.setdefault(dataset, {})[vid] = (
                parents,
                record.get("rows"),
            )
            alive.add(dataset)
        elif command == "drop":
            alive.discard(dataset)
            expected.pop(dataset, None)
    return expected, alive


def verify_journal(orpheus, records: list[dict]) -> list[str]:
    """Cross-check journal records against the live version graph.

    Replays the successful dataset-mutating records to reconstruct the
    expected state (datasets alive, versions committed with which parents
    and row counts) and compares it against ``orpheus``. Returns a list
    of human-readable divergence descriptions; empty means the journal
    and the graph agree.
    """
    divergences: list[str] = []
    for record in records:
        if (
            record.get("status") == "ok"
            and record.get("command") == "commit"
            and record.get("dataset") is not None
            and record.get("output_version") is None
        ):
            divergences.append(
                f"journal: commit on {record['dataset']!r} lacks "
                f"output_version"
            )
    expected, alive = journal_expected_state(records)

    live = set(orpheus.ls())
    for dataset in sorted(alive - live):
        divergences.append(
            f"dataset {dataset!r} journaled as live but absent from the store"
        )
    for dataset in sorted(alive & live):
        cvd = orpheus.cvd(dataset)
        graph_vids = set(cvd.versions.vids())
        journal_vids = set(expected.get(dataset, ()))
        for vid in sorted(journal_vids - graph_vids):
            divergences.append(
                f"{dataset!r}: journaled version {vid} missing from the "
                f"version graph"
            )
        for vid in sorted(graph_vids - journal_vids):
            divergences.append(
                f"{dataset!r}: version {vid} exists in the graph but was "
                f"never journaled"
            )
        for vid in sorted(journal_vids & graph_vids):
            parents, rows = expected[dataset][vid]
            metadata = cvd.versions.get(vid)
            if tuple(parents) != tuple(metadata.parents):
                divergences.append(
                    f"{dataset!r} v{vid}: journaled parents "
                    f"{list(parents)} != graph parents "
                    f"{list(metadata.parents)}"
                )
            if rows is not None and rows != metadata.record_count:
                divergences.append(
                    f"{dataset!r} v{vid}: journaled {rows} rows != "
                    f"graph record_count {metadata.record_count}"
                )
    return divergences


def close_line(trace_id: str, status: str) -> dict:
    """The line that closes a bracket no op record closes."""
    return {
        "phase": "done",
        "trace_id": trace_id,
        "status": status,
        "ts": telemetry.now(),
    }


def make_record(
    trace_id: str,
    command: str,
    user: str = "",
) -> OpRecord:
    """A fresh record stamped with the telemetry clock, to be filled in
    as the command executes and appended at the CLI boundary."""
    return OpRecord(
        trace_id=trace_id,
        command=command,
        status="ok",
        ts=telemetry.now(),
        user=user,
    )


def journals(op: str, params: dict) -> bool:
    """Does this command append a journal record? Every journaled
    command, except a checkout without a file: orpheusd's inline cache
    read is not a repository operation."""
    return op in JOURNALED_COMMANDS and (op != "checkout" or bool(params.get("file")))


def op_fields(op: str, params: dict, result: dict | None = None) -> dict:
    """The per-op fields of a command — dataset, input versions, output
    version, rows — from its request parameters and, when it succeeded,
    the result dict it returned. The one rule behind journal records
    (CLI and daemon alike) and the daemon's request-trace stamps."""
    result = result or {}
    if op == "checkout":
        inputs = params.get("versions") or ()
    elif op == "diff":
        inputs = (params.get("a"), params.get("b"))
    else:
        inputs = result.get("parents") or ()
    if op == "diff":
        rows = (
            result["only_a_count"] + result["only_b_count"] if result else None
        )
    elif op == "run":
        rows = result.get("row_count")
    else:
        rows = result.get("rows")
    try:
        input_versions = [int(v) for v in inputs if v is not None]
    except (TypeError, ValueError):
        input_versions = []  # a malformed request: it failed before running
    return {
        "dataset": params.get("dataset"),
        "input_versions": input_versions,
        "output_version": result.get("version"),
        "rows": rows,
    }


def requested_versions(fields: dict) -> list[int]:
    """The version(s) an access is about, for the heat model: what the
    command produced (init/commit), else what it read (checkout/diff).
    Takes :func:`op_fields` output or a journal record dict."""
    output = fields.get("output_version")
    if output is not None:
        return [output]
    return list(fields.get("input_versions") or ())


def fill_record(
    record: OpRecord,
    params: dict,
    result: dict | None = None,
    error: BaseException | None = None,
) -> OpRecord:
    """Stamp a finished command's outcome on its journal record — the
    only writer of the per-op fields."""
    fields = op_fields(record.command, params, result)
    record.dataset = fields["dataset"]
    record.input_versions = fields["input_versions"]
    record.output_version = fields["output_version"]
    record.rows = fields["rows"]
    if error is not None:
        record.status = "error"
        record.error_type = type(error).__name__
        record.error_message = str(error)
    return record


@dataclass
class Operation:
    """One finished command as the record holds it: an orpheusd request
    (``source`` ``service``, ``seconds`` its ``total_s``) or a journal
    record (``cli``, ``seconds`` its ``duration_s``)."""

    source: str
    command: str
    ts: float
    status: str
    error_type: str | None
    seconds: float | None
    dataset: str | None
    versions: tuple
    rows_returned: int
    rows_scanned: int
    bytes_scanned: int
    rows_written: int
    bytes_written: int


def operations(
    root: str | None, journal: list[dict] | None = None
) -> list[Operation]:
    """Every finished command the flight record and the ops journal
    (``journal``: its records when the caller already read them) hold,
    in timestamp order: the one reader behind ``orpheus heat`` and
    ``orpheus stats``. A journal record with a flight twin (a daemon
    op, matched by trace id) is skipped, so each command counts once."""
    from repro.service.recorder import flight_dir_path, read_flight

    found: list[Operation] = []
    twins: set = set()
    for record in read_flight(flight_dir_path(root))["records"]:
        twins.add(record.get("trace"))
        found.append(Operation(
            "service", str(record.get("op")), float(record.get("ts") or 0.0),
            record.get("status"), record.get("error_type"),
            record.get("total_s"), record.get("dataset"),
            tuple(record.get("versions") or ()),
            *(record.get(key) or 0 for key in ("rows_returned", *SCAN_FIELDS)),
        ))
    for record in Journal(root).read() if journal is None else journal:
        if record.get("trace_id") in twins:
            continue  # the daemon journaled it *and* flight-recorded it
        found.append(Operation(
            "cli", str(record.get("command")), float(record.get("ts") or 0.0),
            record.get("status"), (record.get("error") or {}).get("type"),
            record.get("duration_s"), record.get("dataset"),
            tuple(requested_versions(record)),
            *(record.get(key) or 0 for key in ("rows", *SCAN_FIELDS)),
        ))
    found.sort(key=lambda op: op.ts)
    return found
