"""The ``orpheus`` command-line interface.

Git-style dataset version control over CSV files, mirroring the command
set of Section 3.3::

    orpheus init -d interaction -f data.csv -s schema.csv
    orpheus checkout -d interaction -v 1 -f working.csv
    orpheus commit -d interaction -f working.csv -m "cleaned nulls"
    orpheus log -d interaction
    orpheus diff -d interaction -a 1 -b 2
    orpheus ls
    orpheus drop -d interaction
    orpheus optimize -d interaction --gamma 2.0
    orpheus stats --json

State persists in ``.orpheus/state.pkl`` under the working directory, so
the in-memory engine behaves like a local repository between
invocations. Persistence is crash-safe and concurrency-safe
(:mod:`repro.resilience`): the state file is checksummed with rotating
backups, every invocation runs under an advisory repository lock
(exclusive for writers, shared for readers), mutating commands bracket
their work with write-ahead intent records, and torn operations from a
killed process are auto-recovered on the next invocation (or explicitly
via ``orpheus recover``).

Every command records telemetry (spans, counters, latency histograms);
the per-invocation snapshot accumulates in ``.orpheus/telemetry.json``
and ``orpheus stats`` renders the history. Pass ``--timings`` to any
command to print its span tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.core.commands import Orpheus
from repro.core.csvio import read_csv, read_schema_file
from repro.observe.journal import (
    JOURNALED_COMMANDS,
    MUTATING_COMMANDS,
    Journal,
    fill_record,
    make_record,
    new_trace_id,
    requested_versions,
    verify_journal,
)
from repro.resilience import failpoints, fsio
from repro.resilience.intents import IntentLog, has_pending_intents
from repro.resilience.lock import RepositoryLock, fold_lock
from repro.resilience.statestore import StateStore
from repro.telemetry.snapshot import Snapshot

STATE_DIR = ".orpheus"
STATE_FILE = "state.pkl"
TELEMETRY_FILE = "telemetry.json"

#: Commands that rewrite ``state.pkl`` (superset of the journaled
#: MUTATING_COMMANDS: user management writes state but is not part of
#: the dataset history). These take the exclusive repository lock;
#: everything else reads under a shared lock.
STATE_WRITING_COMMANDS = MUTATING_COMMANDS | {"create_user", "config"}


def _telemetry_path(root: str | None = None) -> Path:
    return Path(root or ".") / STATE_DIR / TELEMETRY_FILE


def load_state(root: str | None = None) -> Orpheus:
    """Load the repository state via the transactional store.

    Corrupt generations fall back to backups with a warning on stderr;
    a missing file yields a fresh :class:`Orpheus`.
    """
    obj, _info = StateStore(root).load()
    return obj if obj is not None else Orpheus()


def save_state(orpheus: Orpheus, root: str | None = None) -> None:
    """Durably replace the state file (checksummed container, temp +
    fsync + rename + dir fsync, rotating ``.bak`` generations)."""
    StateStore(root).save(orpheus)


def load_telemetry(root: str | None = None) -> Snapshot:
    """The accumulated cross-invocation snapshot (empty when absent)."""
    path = _telemetry_path(root)
    if path.exists():
        try:
            return Snapshot.from_json(path.read_text())
        except (ValueError, KeyError):
            return Snapshot()  # corrupt history: start over
    return Snapshot()


def save_telemetry(snapshot: Snapshot, root: str | None = None) -> None:
    fsio.atomic_write(
        _telemetry_path(root),
        snapshot.to_json(indent=None).encode(),
        fsync=False,
    )


# ----------------------------------------------------------------------
# The command table: one grammar for `orpheus` and `orpheus remote`
# ----------------------------------------------------------------------

#: Argument names that are request parameters: what ``orpheus remote``
#: forwards and what orpheusd's ops and :meth:`Orpheus.execute` take.
_PARAMS = (
    "dataset", "versions", "file", "schema", "message", "model",
    "a", "b", "sql", "gamma", "mu", "name", "email", "ops", "recent",
)


@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call. ``local=False`` leaves it out of the
    local grammar; ``remote`` says whether ``orpheus remote`` has it,
    and by default it does exactly when it is a request parameter —
    output flags such as ``--json`` or ``--explain`` stay local."""

    flags: tuple[str, ...]
    kwargs: dict
    local: bool = True
    remote: bool | None = None

    def in_grammar(self, remote: bool) -> bool:
        if not remote:
            return self.local
        if self.remote is not None:
            return self.remote
        name = next((f for f in self.flags if f.startswith("--")), self.flags[0])
        return name.lstrip("-").replace("-", "_") in _PARAMS


def _arg(*flags: str, local: bool = True, remote: bool | None = None, **kwargs) -> Arg:
    return Arg(flags, kwargs, local, remote)


@dataclass(frozen=True)
class Command:
    """One command of the table: its name, help line and arguments, and
    which grammars have it — ``orpheus`` itself, ``orpheus remote``
    (which forwards it to orpheusd), or both."""

    name: str
    help: str = ""
    args: tuple[Arg, ...] = ()
    local: bool = True
    remote: bool = False

    def in_grammar(self, remote: bool) -> bool:
        return self.remote if remote else self.local


_JSON = _arg("--json", action="store_true", help="machine-readable output")
_EXPLAIN = (
    _arg(
        "--explain",
        nargs="?",
        const="plan",
        choices=("plan", "analyze"),
        default=None,
        help="print the plan tree; 'analyze' also executes and attaches "
        "actual rows and per-node timings",
    ),
    _arg(
        "--json",
        action="store_true",
        help="with --explain: emit the plan tree as JSON",
    ),
)
_DATASET = _arg("-d", "--dataset", required=True)
_SOCKET = _arg("--socket", default=None, help="daemon socket (default: discover)")

#: Every command, in the order the help lists them. ``orpheus remote``
#: has the commands marked ``remote``, with their request parameters;
#: each run builds the sub-parser of its own command only.
COMMAND_TABLE: dict[str, Command] = {
    command.name: command
    for command in (
        Command("init", "register a CSV as a new CVD", (
            _DATASET,
            _arg("-f", "--file", required=True),
            _arg("-s", "--schema", required=True),
            _arg("--model", default="split_by_rlist"),
        ), remote=True),
        Command("checkout", "materialize version(s) to CSV", (
            _DATASET,
            _arg("-v", "--versions", required=True, nargs="+", type=int),
            _arg("-f", "--file", required=True, remote=False),
            # Remotely the file is optional: without it the rows come
            # back inline.
            _arg("-f", "--file", default=None, local=False),
            _arg("-s", "--schema", default=None),
            *_EXPLAIN,
        ), remote=True),
        Command("commit", "commit a checked-out CSV", (
            _DATASET,
            _arg("-f", "--file", required=True),
            _arg("-s", "--schema", default=None),
            _arg("-m", "--message", default=""),
            *_EXPLAIN,
        ), remote=True),
        Command("log", "show the version graph", (
            _arg("-d", "--dataset", default=None),
            _arg(
                "--ops",
                action="store_true",
                help="show the operation journal instead of the version graph",
            ),
            _arg(
                "--verify",
                action="store_true",
                help="with --ops: replay the journal against the version graph",
            ),
            _JSON,
        ), remote=True),
        Command("diff", "records in one version but not another", (
            _DATASET,
            _arg("-a", type=int, required=True),
            _arg("-b", type=int, required=True),
            *_EXPLAIN,
        ), remote=True),
        Command("ls", "list CVDs", (_JSON,), remote=True),
        Command("run", "execute a version-aware SQL SELECT", (
            _arg("sql", help="the query, e.g. \"SELECT * FROM d ...\""),
            _JSON,
            _arg(
                "--limit",
                type=int,
                default=None,
                help="print at most this many rows (full result still computed)",
            ),
        ), remote=True),
        Command("drop", "drop a CVD", (_DATASET,), remote=True),
        Command("optimize", "run the partition optimizer", (
            _DATASET,
            _arg("--gamma", type=float, default=2.0),
            _arg("--mu", type=float, default=1.5),
        ), remote=True),
        Command("create_user", "register a user", (
            _arg("name"),
            _arg("--email", default=""),
        ), remote=True),
        Command("config", "log in as a user", (_arg("name"),)),
        Command("whoami", "print the current user", remote=True),
        Command(
            "doctor",
            "run storage-health probes against this repository",
            (_arg("--json", action="store_true", help="machine-readable report"),),
            remote=True,
        ),
        Command("status", local=False, remote=True),
        Command("recover", "detect and repair operations torn by a crash", (
            _arg(
                "--dry-run",
                action="store_true",
                help="report what recovery would do without changing anything",
            ),
        )),
        Command(
            "migrate-state",
            "convert the repository between the pickle and paged "
            "(out-of-core) state layouts in place",
            (
                _arg(
                    "--to",
                    choices=("paged", "pickle"),
                    default="paged",
                    help="target layout (default: paged)",
                ),
                _arg(
                    "--dry-run",
                    action="store_true",
                    help="report the planned conversion without changing anything",
                ),
            ),
        ),
        Command(
            "profile",
            "run any orpheus command with resource profiling and print its "
            "span-tree profile",
            (
                _arg(
                    "--top",
                    type=int,
                    default=15,
                    help="number of hot spans in the self-time table (default 15)",
                ),
                _arg(
                    "--collapsed",
                    action="store_true",
                    help="emit folded stacks (flamegraph.pl / speedscope "
                    "format) instead of the tree",
                ),
                _arg(
                    "--json",
                    action="store_true",
                    help="emit the profiled tree and hot-span table as JSON",
                ),
                _arg(
                    "cmd",
                    nargs=argparse.REMAINDER,
                    metavar="command",
                    help="the orpheus command to profile, e.g. "
                    "`orpheus profile checkout -d data -v 3 -f out.csv`",
                ),
            ),
        ),
        Command(
            "serve",
            "run the version-service daemon (orpheusd) over this repository",
            (
                _arg(
                    "--socket",
                    default=None,
                    help="Unix socket path (default: .orpheus/service.sock)",
                ),
                _arg(
                    "--tcp",
                    default=None,
                    metavar="HOST:PORT",
                    help="additionally listen on TCP (port 0 picks a free port)",
                ),
                _arg("--workers", type=int, default=4, help="read worker threads"),
                _arg(
                    "--cache-mb",
                    type=float,
                    default=64.0,
                    help="materialized-version cache budget in MiB",
                ),
                _arg(
                    "--queue-depth",
                    type=int,
                    default=8,
                    help="writer queue depth before BUSY load-shedding",
                ),
                _arg(
                    "--read-queue-depth",
                    type=int,
                    default=64,
                    help="read queue depth before BUSY load-shedding",
                ),
                _arg(
                    "--idle-timeout",
                    type=float,
                    default=300.0,
                    help="close sessions silent for this many seconds",
                ),
                _arg(
                    "--metrics-port",
                    type=int,
                    default=None,
                    metavar="PORT",
                    help="serve Prometheus /metrics (and /stats, /healthz) on "
                    "this HTTP port; 0 picks a free port, recorded in "
                    "service.json",
                ),
                _arg(
                    "--slow-ms",
                    type=float,
                    default=None,
                    metavar="MS",
                    help="log requests slower than this to "
                    ".orpheus/journal/slow.jsonl (default: $ORPHEUS_SLOW_MS "
                    "or 500)",
                ),
                _arg(
                    "--flight-sample",
                    type=float,
                    default=1.0,
                    metavar="FRAC",
                    help="fraction of requests the flight recorder keeps, "
                    "0..1 (default 1.0; 0 disables)",
                ),
                _arg(
                    "--flight-segment-mb",
                    type=float,
                    default=None,
                    metavar="MB",
                    help="rotate flight-recorder segments at this size "
                    "(default 4)",
                ),
                _arg(
                    "--flight-segments",
                    type=int,
                    default=None,
                    metavar="N",
                    help="keep at most N flight segments on disk (default 8)",
                ),
                _arg(
                    "--status",
                    action="store_true",
                    help="query a running daemon instead of starting one",
                ),
                _arg(
                    "--stop",
                    action="store_true",
                    help="ask a running daemon to drain and exit",
                ),
                _arg("--json", action="store_true", help="with --status: JSON output"),
            ),
        ),
        Command(
            "remote",
            "run a command against the daemon instead of the local state file",
            (
                # None means $ORPHEUS_USER, read when the command runs.
                _arg(
                    "--user",
                    default=None,
                    help="session identity (default: $ORPHEUS_USER or anonymous)",
                ),
                _SOCKET,
                _arg(
                    "--json",
                    action="store_true",
                    help="print the raw response data as JSON",
                ),
                _arg(
                    "cmd",
                    nargs=argparse.REMAINDER,
                    metavar="command",
                    help="the command to forward, e.g. "
                    "`orpheus remote checkout -d data -v 3 -f out.csv`",
                ),
            ),
        ),
        Command(
            "top",
            "live dashboard for a running daemon (polls its stats op)",
            (
                _arg(
                    "--interval",
                    type=float,
                    default=2.0,
                    help="seconds between polls (default 2)",
                ),
                _arg(
                    "--once",
                    action="store_true",
                    help="print one frame and exit (no screen clearing)",
                ),
                _arg(
                    "--json",
                    action="store_true",
                    help="dump the raw stats payload instead of the dashboard",
                ),
                _arg(
                    "--iterations",
                    type=int,
                    default=None,
                    help=argparse.SUPPRESS,  # bounded loop, for tests/scripts
                ),
            ),
        ),
        Command(
            "replay",
            "re-issue a recorded flight against the running daemon and "
            "compare latency/shed/cache behaviour",
            (
                _arg(
                    "flight_dir",
                    nargs="?",
                    default=None,
                    metavar="FLIGHT_DIR",
                    help="flight-recorder directory "
                    "(default: .orpheus/journal/flight)",
                ),
                _arg(
                    "--speedup",
                    type=float,
                    default=1.0,
                    metavar="X",
                    help="compress recorded inter-arrival times by this "
                    "factor (default 1 = real time)",
                ),
                _arg(
                    "--user",
                    default=None,
                    help="session identity for the replay connections",
                ),
                _SOCKET,
                _arg(
                    "--json",
                    action="store_true",
                    help="emit the comparison report as JSON",
                ),
                _arg(
                    "--check",
                    action="store_true",
                    help="exit non-zero when replayed p95 drifts past the "
                    "budget or op counts fail to reproduce the recording",
                ),
                _arg(
                    "--budget-pct",
                    type=float,
                    default=None,
                    metavar="PCT",
                    help="with --check: relative p95 drift budget (default 50)",
                ),
                _arg(
                    "--budget-ms",
                    type=float,
                    default=None,
                    metavar="MS",
                    help="with --check: absolute p95 drift floor (default 5)",
                ),
            ),
        ),
        Command(
            "heat",
            "storage access observatory: hot/cold partitions and versions, "
            "I/O amplification, and the partition advisor",
            (
                _arg("-d", "--dataset", default=None, help="restrict to one dataset"),
                _arg(
                    "--top",
                    type=int,
                    default=10,
                    help="rows per hot/cold table (default 10)",
                ),
                _JSON,
                _arg(
                    "--from-flight",
                    action="store_true",
                    help="rebuild the heat model offline from the flight "
                    "recorder and the ops journal instead of reading heat.json",
                ),
            ),
        ),
        Command("stats", "show accumulated telemetry for this repository", (
            _JSON,
            _arg(
                "--prometheus",
                action="store_true",
                help="Prometheus text exposition format",
            ),
            _arg("--reset", action="store_true", help="clear the recorded telemetry"),
            # `orpheus remote stats` asks orpheusd for its live metrics.
            _arg(
                "--recent",
                type=int,
                default=0,
                help="include the N newest server-side span trees",
                local=False,
            ),
        ), remote=True),
        Command("ping", local=False, remote=True),
        Command("flush-cache", local=False, remote=True),
        Command("flush-quarantine", local=False, remote=True),
        Command("shutdown", local=False, remote=True),
    )
}


def _build_parser(
    command: str | None = None, remote: bool = False
) -> argparse.ArgumentParser:
    """``orpheus``'s grammar, or with ``remote`` ``orpheus remote``'s:
    every command of the table, or only ``command``'s sub-parser (whose
    errors raise :class:`_Reparse` instead of printing)."""
    parser_class = _OneCommandParser if command else argparse.ArgumentParser
    if remote:
        parser = parser_class(prog="orpheus remote")
    else:
        parser = parser_class(
            prog="orpheus",
            description="Dataset version control (OrpheusDB reproduction)",
        )
        parser.add_argument(
            "--root", default=None, help="repository root (default: cwd)"
        )
        parser.add_argument(
            "--timings",
            action="store_true",
            help="print this invocation's span tree to stderr",
        )
    sub = parser.add_subparsers(dest="command", required=True)
    for entry in COMMAND_TABLE.values():
        if command not in (None, entry.name) or not entry.in_grammar(remote):
            continue
        # `orpheus remote -h` lists bare command names.
        help_kw = {} if remote else {"help": entry.help}
        subparser = sub.add_parser(entry.name, **help_kw)
        for arg in entry.args:
            if arg.in_grammar(remote):
                subparser.add_argument(*arg.flags, **arg.kwargs)
    return parser


class _Reparse(Exception):
    """A one-command parse failed: let the full grammar report it."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _Reparse(message)


def _command_word(argv: list[str], remote: bool) -> str | None:
    """The table command ``argv`` names, past the top-level ``--root
    VALUE`` / ``--root=VALUE`` / ``--timings``; None for anything else."""
    index = 0
    while not remote and index < len(argv):
        if argv[index] == "--root":
            index += 2
        elif argv[index].startswith("--root=") or argv[index] == "--timings":
            index += 1
        else:
            break
    entry = COMMAND_TABLE.get(argv[index]) if index < len(argv) else None
    return entry.name if entry is not None and entry.in_grammar(remote) else None


def _parse(argv: list[str], remote: bool = False) -> argparse.Namespace:
    """Parse one command line building only the sub-parser of the
    command it names. Top-level help, a missing or unknown command and
    every parse error go to the full grammar, so their text (whose
    usage line lists every command) is exactly the full grammar's."""
    command = _command_word(argv, remote)
    if command is not None:
        try:
            return _build_parser(command, remote).parse_args(argv)
        except _Reparse:
            pass
    return _build_parser(remote=remote).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "remote":
        return _run_remote(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "top":
        from repro.observe.top import run_top

        return run_top(
            root=args.root,
            interval=args.interval,
            iterations=args.iterations,
            once=args.once,
            as_json=args.json,
        )
    if args.command == "stats":
        # Readers share the lock; --reset rewrites the accumulator and
        # must serialize against invocations folding their snapshots in.
        with RepositoryLock(
            args.root, shared=not args.reset, command="stats"
        ):
            return _run_stats(args)
    if args.command == "heat":
        # Pure reader: renders the persisted heat model (or mines one
        # offline) without folding telemetry of its own.
        with RepositoryLock(args.root, shared=True, command="heat"):
            return _run_heat(args)

    # Each invocation records its own telemetry from a clean registry,
    # then folds the snapshot into .orpheus/telemetry.json so metrics
    # accumulate across processes — failures included, tagged under
    # `commands.failed` with the span's error status keeping the latency
    # histograms clean. The enabled flag is restored so embedding
    # programs that keep telemetry off stay unaffected.
    was_enabled = telemetry.is_enabled()
    telemetry.reset()
    telemetry.enable()
    trace_id = new_trace_id()
    # `--explain` without execution neither mutates state nor journals.
    plan_only = getattr(args, "explain", None) == "plan"
    mutating = args.command in MUTATING_COMMANDS and not plan_only
    journaled = args.command in JOURNALED_COMMANDS and not plan_only
    writes = (
        (args.command in STATE_WRITING_COMMANDS and not plan_only)
        or args.command == "recover"
        or args.command == "migrate-state"
    )
    record = make_record(trace_id, args.command) if journaled else None
    code = 0
    try:
        try:
            if args.command != "recover":
                _auto_recover(args.root)
            with RepositoryLock(
                args.root, shared=not writes, command=args.command
            ):
                code = _locked_invocation(args, record, trace_id, mutating)
        except Exception as error:  # CLI boundary: print, don't traceback
            sys.stderr.write(f"error: {error}\n")
            code = 1
    finally:
        if not was_enabled:
            telemetry.disable()
    return code


def _auto_recover(root: str | None) -> None:
    """Repair torn operations left by a crashed process before running
    the requested command.

    The pending check is lock-free (a begin record from a *live*
    in-flight process looks pending too), so the recovery pass
    re-derives the pending set under the exclusive lock — once the
    other process finishes, there is nothing to do.
    """
    if not has_pending_intents(root):
        return
    from repro.resilience.recovery import run_recovery

    with RepositoryLock(root, shared=False, command="auto-recover"):
        report = run_recovery(root, dry_run=False)
    if report.actions:
        sys.stderr.write(
            f"warning: recovered {len(report.actions)} interrupted "
            f"action(s) from a previous crash; see `orpheus log --ops` "
            f"or run `orpheus recover --dry-run` for details\n"
        )
    for problem in report.problems:
        sys.stderr.write(f"warning: recovery incomplete: {problem}\n")


def _locked_invocation(
    args: argparse.Namespace, record, trace_id: str, mutating: bool
) -> int:
    """One command executed under the repository lock: intent begin,
    dispatch, journal, intent done, telemetry fold — in that order, so
    a crash at any point is classifiable by recovery."""
    intents = IntentLog(args.root)
    if mutating:
        intents.begin(
            trace_id,
            args.command,
            dataset=getattr(args, "dataset", None),
            file=getattr(args, "file", None),
            versions=getattr(args, "versions", None),
        )
    code = 0
    try:
        with telemetry.span(f"cli.{args.command}") as root:
            if root is not None:
                root.set_attr("trace_id", trace_id)
            code = _dispatch(args, record)
    except Exception as error:  # CLI boundary: print, don't traceback
        sys.stderr.write(f"error: {error}\n")
        kind = type(error).__name__
        telemetry.count("commands.failed")
        telemetry.count(f"commands.failed.{kind}")
        if record is not None:
            fill_record(record, _params(args), error=error)
        code = 1
    tree = telemetry.last_span_tree()
    if record is not None:
        if tree is not None:
            record.duration_s = tree.duration_s
        Journal(args.root).append(record)
    if mutating:
        intents.done(trace_id, status=record.status if record else "ok")
    # Readers run side by side under the shared lock; the two
    # read-modify-writes of the accumulators must not.
    with fold_lock(args.root):
        _fold_heat_cli(args, record)
        failpoints.fire("telemetry.before_save")
        save_telemetry(
            load_telemetry(args.root).merged(telemetry.snapshot()),
            args.root,
        )
    if args.timings and tree is not None:
        sys.stderr.write(tree.render() + "\n")
    return code


def _fold_heat_cli(args: argparse.Namespace, record) -> None:
    """Fold a journaled command that :func:`build_event` counts as a
    heat event into the persisted heat model
    (``.orpheus/telemetry/heat.json``), using this invocation's
    ``storage.io.*`` counters as the scan footprint. Runs under the
    fold lock; never fatal."""
    if record is None:
        return
    try:
        from repro.observe.heat import HeatAccountant, build_event

        registry = telemetry.get_registry()
        event = build_event(
            getattr(args, "_orpheus", None),
            ts=record.ts,
            command=record.command,
            dataset=record.dataset,
            versions=requested_versions(record.to_dict()),
            rows_returned=record.rows or 0,
            rows_scanned=registry.counter_value("storage.io.seq_rows")
            + registry.counter_value("storage.io.random_rows"),
            bytes_scanned=registry.counter_value("storage.io.bytes_read"),
            rows_written=registry.counter_value("storage.io.rows_written"),
            bytes_written=registry.counter_value(
                "storage.io.bytes_written"
            ),
            status=record.status,
        )
        if event is None:
            return
        heat = HeatAccountant.load(args.root)
        heat.record(event)
        heat.save(args.root)
    except Exception as error:
        sys.stderr.write(f"warning: heat accounting skipped: {error}\n")


def _render_plan(plan, args) -> str:
    return (plan.to_json() if args.json else plan.render()) + "\n"


def _params(args: argparse.Namespace) -> dict:
    """The request a parsed command line stands for: what orpheusd
    receives, and what :meth:`Orpheus.execute` takes in process."""
    params = {}
    for key in _PARAMS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            params[key] = value
    return params


def _plan(orpheus: Orpheus, args: argparse.Namespace):
    """The EXPLAIN tree of a checkout, commit or diff command line."""
    cvd = orpheus.cvd(args.dataset)
    if args.command == "checkout":
        return cvd.explain_checkout(args.versions)
    if args.command == "diff":
        return cvd.explain_diff(args.a, args.b)
    schema = read_schema_file(args.schema) if args.schema else cvd.schema
    pin = orpheus.staging.pinned(args.file)
    return cvd.explain_commit(
        len(read_csv(args.file, schema)), pin.parents if pin else ()
    )


def _dispatch(args: argparse.Namespace, record=None) -> int:
    """Execute one parsed command; raises on failure (the boundary in
    :func:`main` turns exceptions into exit code 1, telemetry, and the
    journal record). ``record`` is the journal entry to fill in for
    journaled commands (None for the others and plan-only invocations)."""
    out = sys.stdout
    if args.command == "recover":
        # Recovery manages its own files and must run even when the
        # state is too corrupt for load_state.
        from repro.resilience.recovery import run_recovery

        report = run_recovery(args.root, dry_run=args.dry_run)
        out.write(report.render_text())
        return 0 if report.clean else 1
    if args.command == "migrate-state":
        # Handles its own load/save cycle (the save must use the target
        # layout, not whatever save_state would sniff).
        from repro.pagestore.store import migrate_state

        result = migrate_state(args.root, to=args.to, dry_run=args.dry_run)
        out.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return 0
    orpheus = load_state(args.root)
    #: The heat fold in _locked_invocation resolves models/partitions
    #: against the same state this command ran on.
    args._orpheus = orpheus
    user = orpheus.access.current_user or ""
    if record is not None:
        record.user = user
    if args.command == "doctor":
        from repro.observe.doctor import run_doctor

        report = run_doctor(orpheus, args.root)
        out.write(report.to_json() + "\n" if args.json else report.render_text())
        return report.exit_code
    if args.command == "config":
        orpheus.config(args.name)
        out.write(f"logged in as {args.name!r}\n")
        save_state(orpheus, args.root)
        return 0

    params = _params(args)
    explain = getattr(args, "explain", None)
    plan = _plan(orpheus, args) if explain else None
    if explain == "plan":
        out.write(_render_plan(plan, args))
        return 0
    do = lambda: orpheus.execute(
        args.command, params, user, root=args.root, read_csv=read_csv
    )
    if plan is None:
        data = do()
    else:
        from repro.observe.explain import run_with_actuals

        data = run_with_actuals(plan, do)
    if record is not None:
        fill_record(record, params, data)
    if plan is not None:
        out.write(_render_plan(plan, args))
    code = _write_local(out, args, params, data, orpheus)
    # Readers hold only the shared lock and must not rewrite state.
    if args.command in STATE_WRITING_COMMANDS:
        save_state(orpheus, args.root)
    return code


def _write_local(out, args, params: dict, data: dict, orpheus) -> int:
    """Print an in-process result: the shared renderer, or the local-only
    ``--json`` / ``run --limit`` views; then ``log --ops --verify``."""
    limit = getattr(args, "limit", None)
    if limit is not None:
        data = dict(data, data=data["data"][:limit])
    if args.command in ("log", "ls", "run") and args.json:
        if args.command == "run":
            payload = {
                "columns": data["columns"],
                "rows": data["data"],
                "total_rows": data["row_count"],
            }
        else:
            payload = data.get("records", data.get("datasets", data))
        out.write(json.dumps(payload, default=str) + "\n")
    else:
        _render(out, args.command, params, data)
        if limit is not None and data["row_count"] > limit:
            out.write(f"... ({data['row_count'] - limit} more rows)\n")
    if args.command == "log" and args.ops and args.verify:
        divergences = verify_journal(orpheus, data["records"])
        for line in divergences:
            out.write(f"DIVERGED: {line}\n")
        if divergences:
            return 1
        out.write("journal and version graph agree\n")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """``orpheus profile <command...>``: run the command with resource
    profiling enabled and render its span tree (self/total time, CPU,
    peak memory)."""
    from repro.observe.profile import (
        collapsed_stacks,
        profile_to_json,
        render_report,
    )

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        sys.stderr.write("error: profile needs a command to run\n")
        return 2
    if cmd[0] == "profile":
        sys.stderr.write(f"error: cannot profile {cmd[0]!r}\n")
        return 2
    inner = (["--root", args.root] if args.root else []) + cmd
    was_profiling = telemetry.is_profiling()
    telemetry.enable_profiling()
    try:
        code = main(inner)
    finally:
        if not was_profiling:
            telemetry.disable_profiling()
    tree = telemetry.last_span_tree()
    if tree is None:
        sys.stderr.write(
            "profile: the command recorded no span tree (nothing to show)\n"
        )
        return code if code != 0 else 1
    if args.collapsed:
        sys.stdout.write(collapsed_stacks(tree))
    elif args.json:
        sys.stdout.write(profile_to_json(tree, args.top) + "\n")
    else:
        sys.stdout.write(render_report(tree, args.top))
    return code


def _run_replay(args: argparse.Namespace) -> int:
    """``orpheus replay``: re-issue a recorded flight against the live
    daemon and print (or gate on) the recorded-vs-replayed report."""
    from repro.service.client import daemon_running
    from repro.service.recorder import flight_dir_path
    from repro.service.replay import (
        DEFAULT_BUDGET_MS,
        DEFAULT_BUDGET_PCT,
        check_report,
        render_report_text,
        run_replay,
        write_report_json,
    )

    flight_dir = args.flight_dir or str(flight_dir_path(args.root))
    if not os.path.isdir(flight_dir):
        sys.stderr.write(
            f"error: no flight directory at {flight_dir} — start the "
            "daemon with flight recording on (`orpheus serve`) and run "
            "a workload first\n"
        )
        return 1
    if args.socket is None and not daemon_running(args.root):
        sys.stderr.write(
            "error: orpheusd is not running here; start it with "
            "`orpheus serve` before replaying\n"
        )
        return 1
    try:
        report = run_replay(
            flight_dir,
            root=args.root,
            socket_path=args.socket,
            user=_user(args),
            speedup=args.speedup,
        )
    except Exception as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    if args.json:
        sys.stdout.write(write_report_json(report) + "\n")
    else:
        sys.stdout.write(render_report_text(report))
    if args.check:
        violations = check_report(
            report,
            budget_pct=(
                args.budget_pct
                if args.budget_pct is not None
                else DEFAULT_BUDGET_PCT
            ),
            budget_ms=(
                args.budget_ms
                if args.budget_ms is not None
                else DEFAULT_BUDGET_MS
            ),
        )
        for violation in violations:
            sys.stderr.write(f"replay check: {violation}\n")
        if violations:
            return 3
        sys.stderr.write("replay check: ok\n")
    return 0


def _user(args: argparse.Namespace) -> str:
    """The session identity of ``remote`` / ``replay``: ``--user``, else
    ``$ORPHEUS_USER``, else anonymous."""
    if args.user is not None:
        return args.user
    return os.environ.get("ORPHEUS_USER", "")


def _parse_tcp(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host:
        raise ValueError(f"--tcp wants HOST:PORT, got {spec!r}")
    return host, int(port)


def _run_serve(args: argparse.Namespace) -> int:
    """``orpheus serve``: run (or query/stop) the version-service
    daemon. ``--status`` and ``--stop`` talk to a running daemon over
    its socket and never touch the repository lock the daemon holds."""
    import signal

    from repro.service.client import (
        ServiceClient,
        ServiceError,
        ServiceUnavailableError,
        daemon_running,
        read_status_file,
    )
    from repro.service.daemon import ServiceConfig, ServiceDaemon

    if args.status or args.stop:
        if not daemon_running(args.root):
            sys.stderr.write("orpheusd is not running here\n")
            return 1
        try:
            with ServiceClient(
                socket_path=args.socket, root=args.root
            ) as client:
                if args.stop:
                    client.shutdown()
                    sys.stdout.write("orpheusd draining\n")
                    return 0
                status = client.status()
        except (ServiceError, ServiceUnavailableError) as error:
            sys.stderr.write(f"error: {error}\n")
            return 1
        if args.json:
            sys.stdout.write(json.dumps(status, indent=2, sort_keys=True) + "\n")
        else:
            server = status.get("server", {})
            cache = status.get("cache", {})
            requests = status.get("requests", {})
            scheduler = status.get("scheduler", {})
            sys.stdout.write(
                f"orpheusd pid={server.get('pid')} "
                f"uptime={status.get('uptime_s')}s "
                f"datasets={server.get('datasets')}\n"
                f"  socket: {server.get('socket')}\n"
                f"  requests: {requests.get('total', 0)} total, "
                f"{requests.get('busy', 0)} shed busy\n"
                f"  scheduler: {scheduler.get('executed_reads', 0)} reads, "
                f"{scheduler.get('executed_writes', 0)} writes, "
                f"write queue {scheduler.get('write_queue_depth', 0)}/"
                f"{scheduler.get('write_queue_capacity', 0)}\n"
                f"  cache: {cache.get('entries', 0)} entries, "
                f"{cache.get('bytes', 0)} bytes, "
                f"hit rate {cache.get('hit_rate', 0.0):.0%} "
                f"({cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses, "
                f"{cache.get('evictions', 0)} evicted)\n"
                f"  sessions: "
                f"{status.get('sessions', {}).get('active', 0)} active\n"
            )
            degrade = status.get("degrade", {})
            if degrade.get("degraded"):
                sys.stdout.write(
                    f"  DEGRADED (read-only): "
                    f"{degrade.get('cause') or 'unknown'} — writes are "
                    f"refused until a state save succeeds\n"
                )
            quarantine = status.get("quarantine", {})
            if quarantine.get("quarantined"):
                sys.stdout.write(
                    f"  quarantine: {quarantine.get('quarantined')} "
                    f"poisoned digest(s), "
                    f"{quarantine.get('refused_total', 0)} refusal(s) "
                    f"(clear with `orpheus remote -- flush-quarantine`)\n"
                )
            failures = (
                requests.get("worker_errors", 0),
                requests.get("deadline_exceeded", 0),
                scheduler.get("deadline_shed", 0),
                requests.get("degraded", 0),
            )
            if any(failures):
                sys.stdout.write(
                    "  failures: {} worker error(s), {} deadline "
                    "refusal(s) ({} shed in the queue), {} degraded "
                    "refusal(s)\n".format(*failures)
                )
            slow = status.get("slow", {})
            if slow.get("count"):
                sys.stdout.write(
                    f"  slow: {slow.get('count')} request(s) over "
                    f"{slow.get('threshold_ms')}ms logged "
                    f"(see `orpheus top`)\n"
                )
            flight = status.get("flight", {})
            if flight:
                if flight.get("enabled"):
                    sys.stdout.write(
                        f"  flight: recording at sample "
                        f"{flight.get('sample', 0.0):g}, "
                        f"{flight.get('segments', 0)} segment(s), "
                        f"{flight.get('bytes', 0)} bytes "
                        f"(replay with `orpheus replay`)\n"
                    )
                else:
                    sys.stdout.write("  flight: recording disabled\n")
            if server.get("metrics"):
                sys.stdout.write(
                    f"  metrics: http://{server['metrics']}/metrics\n"
                )
        return 0

    if daemon_running(args.root):
        status = read_status_file(args.root) or {}
        sys.stderr.write(
            f"error: orpheusd already running (pid {status.get('pid')}); "
            f"use `orpheus serve --status` or `orpheus remote`\n"
        )
        return 1
    config = ServiceConfig(
        root=args.root,
        socket_path=args.socket,
        tcp=_parse_tcp(args.tcp) if args.tcp else None,
        workers=args.workers,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        read_queue_depth=args.read_queue_depth,
        write_queue_depth=args.queue_depth,
        idle_timeout=args.idle_timeout,
        metrics_port=args.metrics_port,
        slow_ms=args.slow_ms,
        flight_sample=args.flight_sample,
        flight_segment_bytes=(
            int(args.flight_segment_mb * 1024 * 1024)
            if args.flight_segment_mb is not None
            else ServiceConfig.flight_segment_bytes
        ),
        flight_max_segments=(
            args.flight_segments
            if args.flight_segments is not None
            else ServiceConfig.flight_max_segments
        ),
    )
    daemon = ServiceDaemon(config)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: daemon.request_shutdown())
    daemon.start()
    listen = config.resolved_socket()
    if config.tcp is not None:
        listen += f" and tcp://{config.tcp[0]}:{config.tcp[1]}"
    if daemon._metrics_server is not None:
        listen += f", metrics on http://{daemon._metrics_server.address}"
    sys.stderr.write(f"orpheusd listening on {listen}\n")
    daemon.serve_forever()
    sys.stderr.write("orpheusd stopped\n")
    return 0


def _run_remote(args: argparse.Namespace) -> int:
    """``orpheus remote <cmd ...>``: forward one command to the daemon.

    The daemon runs the same command code as the local CLI and the
    answer is rendered by the same renderer, so scripts can switch
    between direct and served execution by inserting ``remote``;
    ``--json`` prints the raw response data instead.
    """
    from repro.service.client import (
        ServiceBusyError,
        ServiceClient,
        ServiceError,
    )

    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        sys.stderr.write("error: remote needs a command to forward\n")
        return 2
    remote_args = _parse(cmd, remote=True)
    op = remote_args.command.replace("-", "_")
    params = _params(remote_args)
    if op == "checkout" and "file" not in params:
        params["inline"] = True
    try:
        with ServiceClient(
            socket_path=args.socket, root=args.root, user=_user(args)
        ) as client:
            data = client.request(op, **params)
    except ServiceBusyError as error:
        sys.stderr.write(f"busy: {error} (retry with backoff)\n")
        return 3
    except ServiceError as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    if args.json:
        sys.stdout.write(json.dumps(data, default=str, sort_keys=True) + "\n")
        return 0
    _render(sys.stdout, op, params, data)
    return 0


def _render(out, op: str, params: dict, data: dict) -> None:
    """Human output of one command's result dict: the same lines whether
    the command ran in process or on orpheusd."""
    if op == "init":
        out.write(
            f"initialized CVD {data['dataset']!r} at version "
            f"{data['version']}\n"
        )
    elif op == "checkout":
        where = f"into {data['file']} " if data.get("file") else ""
        hot = " [cached]" if data.get("cached") else ""
        out.write(
            f"checked out version(s) {params['versions']} of "
            f"{params['dataset']!r} {where}({data['rows']} records){hot}\n"
        )
        if data.get("data") is not None:
            out.write("  ".join(data["columns"]) + "\n")
            for row in data["data"]:
                out.write("  ".join(str(v) for v in row) + "\n")
    elif op == "commit":
        out.write(
            f"committed version {data['version']} to {params['dataset']!r}\n"
        )
    elif op == "log":
        if params.get("ops"):
            out.write(Journal().render_text(data.get("records", [])))
        else:
            for v in data.get("versions", []):
                parents = ",".join(map(str, v["parents"])) or "-"
                out.write(
                    f"v{v['vid']}  parents=[{parents}]  "
                    f"records={v['records']}  "
                    f"author={v['author'] or '-'}  {v['message']}\n"
                )
    elif op == "diff":
        out.write(f"records only in v{params['a']}: {data['only_a_count']}\n")
        for row in data["only_a"]:
            out.write(f"  + {tuple(row)}\n")
        out.write(f"records only in v{params['b']}: {data['only_b_count']}\n")
        for row in data["only_b"]:
            out.write(f"  - {tuple(row)}\n")
    elif op == "ls":
        for info in data["datasets"]:
            out.write(
                f"{info['dataset']}  versions={info['versions']}  "
                f"records={info['records']}\n"
            )
    elif op == "run":
        out.write("  ".join(data["columns"]) + "\n")
        for row in data["data"]:
            out.write("  ".join(str(v) for v in row) + "\n")
    elif op == "drop":
        out.write(f"dropped {params['dataset']!r}\n")
    elif op == "optimize":
        out.write(
            f"repartitioned {params['dataset']!r} into "
            f"{data['partitions']} partitions\n"
        )
    elif op == "create_user":
        out.write(f"created user {data['user']!r}\n")
    elif op == "whoami":
        out.write((data.get("user") or "anonymous") + "\n")
    elif op in ("doctor", "status", "stats"):
        out.write(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n")
    elif op == "ping":
        out.write("pong\n" if data.get("pong") else "no reply\n")
    elif op == "flush_cache":
        out.write(f"dropped {data['dropped']} cached checkouts\n")
    elif op == "flush_quarantine":
        out.write(
            f"cleared {data['dropped']} quarantined request digest(s)\n"
        )
    elif op == "shutdown":
        out.write("orpheusd draining\n")


def _run_stats(args: argparse.Namespace) -> int:
    """``orpheus stats``: render the accumulated telemetry history."""
    if args.reset:
        # Leave an empty-but-valid snapshot behind rather than deleting:
        # scrapers and `stats --json` consumers keep a parseable file.
        save_telemetry(Snapshot(), args.root)
        sys.stdout.write("telemetry reset\n")
        return 0
    snapshot = load_telemetry(args.root)
    if args.json:
        sys.stdout.write(snapshot.to_json() + "\n")
    elif args.prometheus:
        sys.stdout.write(snapshot.render_prometheus())
    else:
        sys.stdout.write(snapshot.render_text())
    return 0


def _run_heat(args: argparse.Namespace) -> int:
    """``orpheus heat``: the storage access observatory report.

    Hot/cold rankings come from the persisted EWMA model (or, with
    ``--from-flight``, from re-mining the flight recorder + ops
    journal); amplification and the advisor join that heat with the
    live page cost model.
    """
    from repro.observe.amplification import (
        amplification_report,
        bound_comparison,
    )
    from repro.observe.heat import HeatAccountant, advise, mine

    try:
        orpheus = load_state(args.root)
    except FileNotFoundError:
        sys.stderr.write("error: not an orpheus repository\n")
        return 2
    if args.from_flight:
        heat = mine(args.root, orpheus)
    else:
        heat = HeatAccountant.load(args.root)
    now = telemetry.now()
    top = max(1, args.top)

    def _table(table: dict, reverse: bool) -> list[dict]:
        rows = []
        for key, entry, decayed in heat.ranked(table, now, reverse=reverse):
            if args.dataset and not (
                key == args.dataset or key.startswith(args.dataset + ":")
            ):
                continue
            rows.append(
                {
                    "key": key,
                    "heat": round(decayed, 4),
                    "touches": entry["touches"],
                    "rows_scanned": entry["rows_scanned"],
                    "bytes_scanned": entry["bytes_scanned"],
                }
            )
            if len(rows) >= top:
                break
        return rows

    cold = heat.cold_fraction(orpheus, now)
    report = {
        "schema_version": 1,
        "source": "flight" if args.from_flight else "live",
        "half_life_s": heat.half_life_s,
        "events_total": heat.events_total,
        "hot_datasets": _table(heat.datasets, reverse=True),
        "hot_partitions": _table(heat.partitions, reverse=True),
        "hot_versions": _table(heat.versions, reverse=True),
        "cold_partitions": _table(heat.partitions, reverse=False),
        "cold_fraction": None if cold is None else round(cold, 4),
        "amplification": amplification_report(heat),
        "bound": bound_comparison(orpheus, heat),
        "advisor": advise(orpheus, heat, now),
    }
    if args.json:
        sys.stdout.write(
            json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
        )
        return 0
    out = sys.stdout
    out.write(
        f"heat model: {report['events_total']} events, "
        f"half-life {report['half_life_s']:g}s, "
        f"source={report['source']}\n"
    )
    if cold is not None:
        out.write(f"cold fraction: {cold:.1%} of versions\n")
    for title, rows in (
        ("hot datasets", report["hot_datasets"]),
        ("hot partitions", report["hot_partitions"]),
        ("hot versions", report["hot_versions"]),
        ("cold partitions", report["cold_partitions"]),
    ):
        if not rows:
            continue
        out.write(f"\n{title}:\n")
        for row in rows:
            out.write(
                f"  {row['key']:<24} heat={row['heat']:<10g} "
                f"touches={row['touches']:<6} "
                f"rows_scanned={row['rows_scanned']}\n"
            )
    if report["amplification"]:
        out.write("\namplification (per model, per command):\n")
        for model, commands in report["amplification"].items():
            for command, factors in commands.items():
                ramp = factors["read_amplification"]
                wamp = factors["write_amplification"]
                out.write(
                    f"  {model:<20} {command:<10} "
                    f"read={'-' if ramp is None else ramp} "
                    f"write={'-' if wamp is None else wamp} "
                    f"({factors['events']} events)\n"
                )
    if report["bound"]:
        out.write("\ncheckout-cost bound:\n")
        for row in report["bound"]:
            bound = row.get("bound_rows_per_checkout")
            status = row.get("within_bound")
            out.write(
                f"  {row['dataset']:<24} model={row['model']} "
                f"observed={row['observed_rows_per_checkout']} "
                f"bound={'-' if bound is None else bound} "
                f"within={'-' if status is None else status}\n"
            )
    if report["advisor"]:
        out.write("\nadvisor:\n")
        for rec in report["advisor"]:
            out.write(
                f"  #{rec['rank']} {rec['kind']:<12} {rec['dataset']:<24} "
                f"delta={rec['estimated_checkout_cost_delta']:g} "
                f"{rec['reason']}\n"
            )
    if not heat.events_total:
        out.write(
            "no access events recorded yet -- run some commands (or "
            "`orpheus heat --from-flight` against a recorded workload)\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
