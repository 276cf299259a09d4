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
(exclusive for writers, shared for readers), mutating commands open
their work with a write-ahead ``begin`` line in the operation journal
that their op record closes, and torn operations from a killed process
are auto-recovered on the next invocation (or explicitly via
``orpheus recover``).

``orpheus stats`` reads per-command counts, failures and latencies
from the record the repository already keeps: the operation journal
and orpheusd's flight record. Nothing accumulates beside them. Pass
``--timings`` to any command to print its span tree and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass

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
    verify_journal,
)
from repro.resilience.lock import RepositoryLock
from repro.resilience.recovery import needs_recovery, run_recovery
from repro.resilience.statestore import StateStore

#: Commands that rewrite ``state.pkl`` (superset of the journaled
#: MUTATING_COMMANDS: user management writes state but is not part of
#: the dataset history). These take the exclusive repository lock;
#: everything else reads under a shared lock.
STATE_WRITING_COMMANDS = MUTATING_COMMANDS | {"create_user", "config"}


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


def save_telemetry(*_args) -> None:
    # Called by nothing: benchmarks/e2e/harness.py:87 still wraps this
    # name, so it stays until ROADMAP item 1(a) drops it from CLI_TARGETS.
    pass


# ----------------------------------------------------------------------
# The command table: one grammar for `orpheus` and `orpheus remote`
# ----------------------------------------------------------------------

#: Argument names that are request parameters: what ``orpheus remote``
#: forwards and what orpheusd's ops and :meth:`Orpheus.execute` take.
_PARAMS = (
    "dataset", "versions", "file", "schema", "message", "model",
    "a", "b", "sql", "gamma", "name", "email", "ops", "recent",
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


def _tcp_address(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"wants HOST:PORT, got {spec!r}")
    return host, int(port)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"wants an integer >= 1, got {text!r}")
    return int(text)


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
                    type=_tcp_address,
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
                    type=_positive_int,
                    default=8,
                    help="writer queue depth before BUSY load-shedding",
                ),
                _arg(
                    "--read-queue-depth",
                    type=_positive_int,
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
                    default=500.0,
                    metavar="MS",
                    help="keep the span breakdown of requests slower than "
                    "this in their flight record (default 500; 0 keeps "
                    "every request's)",
                ),
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
                    "--iterations",
                    type=int,
                    default=None,
                    help=argparse.SUPPRESS,  # bounded loop, for tests/scripts
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
            ),
        ),
        Command("stats", "command counts and latencies mined from the record", (
            _JSON,
            _arg(
                "--prometheus",
                action="store_true",
                help="Prometheus text exposition format",
            ),
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
            help="print this invocation's span tree and counters to stderr",
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
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "remote":
        return _run_remote(args)
    if args.command == "top":
        return _run_top(args)

    # Each invocation records its own telemetry from a clean registry
    # (what --timings prints and the journal record's scan stamps come
    # from). The enabled flag is restored so embedding programs that
    # keep telemetry off stay unaffected.
    was_enabled = telemetry.is_enabled()
    telemetry.reset()
    telemetry.enable()
    trace_id = new_trace_id()
    # `--explain` without execution neither mutates state nor journals.
    plan_only = getattr(args, "explain", None) == "plan"
    mutating = args.command in MUTATING_COMMANDS and not plan_only
    # `stats` and `heat` only mine the record: they repair nothing.
    recovers = args.command not in ("recover", "stats", "heat") and not mutating
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
            # A writer checks under its own lock, before its `begin`.
            if recovers:
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


def _auto_recover(root: str | None, locked: bool = False) -> None:
    """Repair torn operations left by a crashed process before running
    the requested command.

    A reader checks without the lock (a ``begin`` from a *live*
    in-flight process looks pending too), so the recovery pass
    re-derives the pending set under the exclusive lock — once the
    other process finishes, there is nothing to do. A writer checks
    once it holds the exclusive lock (``locked``), before it appends
    its own ``begin``: a process that crashed while it waited for the
    lock left the newest ``begin`` open, and the journal's tail rule
    (:meth:`Journal.pending`) holds only if no ``begin`` is appended
    after an open one.
    """
    if not needs_recovery(root):
        return
    with nullcontext() if locked else RepositoryLock(
        root, shared=False, command="auto-recover"
    ):
        report = run_recovery(root, dry_run=False)
    if report.actions:
        sys.stderr.write(
            f"warning: recovered {len(report.actions)} interrupted "
            f"action(s) from a previous crash; see `orpheus log --ops` "
            f"or run `orpheus recover --dry-run` for details\n"
        )
    for problem in report.problems:
        sys.stderr.write(f"warning: recovery incomplete: {problem}\n")
    if locked and Journal(root).pending():
        raise RuntimeError(
            "a torn operation could not be recovered; see "
            "`orpheus recover --dry-run`"
        )


def _locked_invocation(
    args: argparse.Namespace, record, trace_id: str, mutating: bool
) -> int:
    """One command executed under the repository lock: recovery check,
    ``begin``, dispatch, op record (which closes the ``begin``) — in
    that order, so a crash at any point is classifiable by recovery."""
    if mutating:
        _auto_recover(args.root, locked=True)
        Journal(args.root).begin(
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
        _stamp_scans(record)
        Journal(args.root).append(record)
    if args.timings and tree is not None:
        counters = telemetry.get_registry().counters()
        sys.stderr.write(tree.render() + "\n")
        if counters:
            sys.stderr.write(telemetry.Snapshot(counters=counters).render_text())
    return code


def _stamp_scans(record) -> None:
    """Stamp this invocation's ``storage.io.*`` counters on its journal
    record: the scan footprint :func:`repro.observe.heat.mine` reads."""
    registry = telemetry.get_registry()
    record.rows_scanned = registry.counter_value(
        "storage.io.seq_rows"
    ) + registry.counter_value("storage.io.random_rows")
    record.bytes_scanned = registry.counter_value("storage.io.bytes_read")
    record.rows_written = registry.counter_value("storage.io.rows_written")
    record.bytes_written = registry.counter_value("storage.io.bytes_written")


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
    if args.command in ("stats", "heat"):
        return (_run_stats if args.command == "stats" else _run_heat)(args)
    if args.command == "recover":
        # Recovery manages its own files and must run even when the
        # state is too corrupt for load_state.
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
    user = orpheus.access.current_user or ""
    if record is not None:
        record.user = user
    if args.command == "doctor":
        from repro.observe.doctor import render_text, run_doctor

        report = run_doctor(orpheus, args.root)
        out.write(
            report.to_json() + "\n" if args.json
            else render_text(report.to_dict())
        )
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
    do = lambda: orpheus.execute(  # noqa: E731
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


def _user(args: argparse.Namespace) -> str:
    """The session identity of ``remote``: ``--user``, else
    ``$ORPHEUS_USER``, else anonymous."""
    if args.user is not None:
        return args.user
    return os.environ.get("ORPHEUS_USER", "")


def _run_serve(args: argparse.Namespace) -> int:
    """``orpheus serve``: run the version-service daemon until a signal
    or a ``shutdown`` request (``orpheus remote shutdown``) drains it."""
    import signal

    from repro.service.daemon import ServiceConfig, ServiceDaemon
    from repro.service.status import daemon_running, read_status_file

    if daemon_running(args.root):
        status = read_status_file(args.root) or {}
        sys.stderr.write(
            f"error: orpheusd already running (pid {status.get('pid')}); "
            f"watch it with `orpheus top` or use `orpheus remote`\n"
        )
        return 1
    config = ServiceConfig(
        root=args.root,
        socket_path=args.socket,
        tcp=args.tcp,
        workers=args.workers,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        read_queue_depth=args.read_queue_depth,
        write_queue_depth=args.queue_depth,
        idle_timeout=args.idle_timeout,
        metrics_port=args.metrics_port,
        slow_ms=args.slow_ms,
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


def _run_top(args: argparse.Namespace) -> int:
    """``orpheus top``: poll the daemon's ``stats`` op and repaint a
    :func:`~repro.observe.top.render_frame` each ``--interval``.

    Survives a daemon restart mid-session: a failed poll after at
    least one success drops the connection and retries next interval,
    and a counter reset (:func:`~repro.observe.top.detect_restart`)
    discards the previous sample so rates restart from zero instead of
    rendering garbage deltas."""
    import time

    from repro.observe.top import detect_restart, render_frame
    from repro.service.client import ServiceClient, ServiceError

    out = sys.stdout
    interval = max(0.1, args.interval)
    prev: dict | None = None
    polls = 0
    client: ServiceClient | None = None
    connected_once = False

    def _drop_client() -> None:
        nonlocal client
        if client is not None:
            try:
                client.close()
            except Exception:
                pass
            client = None

    try:
        while True:
            polls += 1
            last_poll = args.once or (
                args.iterations is not None and polls >= args.iterations
            )
            try:
                if client is None:
                    client = ServiceClient(root=args.root).connect()
                stats = client.stats()
            except (ServiceError, OSError) as error:
                _drop_client()
                if not connected_once or last_poll:
                    sys.stderr.write(f"orpheus top: {error}\n")
                    return 1
                # The daemon is likely restarting; forget the old
                # counters and keep polling.
                prev = None
                time.sleep(interval)
                continue
            connected_once = True
            restarted = detect_restart(prev, stats)
            if restarted:
                prev = None
            if not args.once:
                out.write("\x1b[2J\x1b[H")  # clear + home
            out.write(render_frame(stats, prev, interval, restarted=restarted))
            out.flush()
            prev = stats
            if last_poll:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    finally:
        _drop_client()


def _run_remote(args: argparse.Namespace) -> int:
    """``orpheus remote <cmd ...>``: forward one command to the daemon.

    The daemon runs the same command code as the local CLI and the
    answer is rendered by the same renderer, so scripts can switch
    between direct and served execution by inserting ``remote``;
    ``--json`` prints the raw response data instead. A failing
    ``doctor`` exits 1 either way, as it does locally.
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
    else:
        _render(sys.stdout, op, params, data)
    return 1 if op == "doctor" and data["severity"] == "fail" else 0


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
    elif op == "doctor":
        from repro.observe.doctor import render_text

        out.write(render_text(data))
    elif op == "stats":
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
    """``orpheus stats``: one ``cli.<command>`` / ``service.<op>`` span
    per finished command the record holds (:func:`operations`), with
    ``commands.failed[.<Type>]`` and the summed scan stamps as counters.
    A record without a duration (an orpheusd journal record whose flight
    twin has rotated away) is not counted."""
    from repro.observe.journal import SCAN_FIELDS, operations

    registry = telemetry.Registry(enabled=True)
    for op in operations(args.root):
        if op.seconds is None:
            continue
        failed = op.status != "ok"
        registry.record_span(f"{op.source}.{op.command}", op.seconds, failed)
        if failed:
            registry.inc("commands.failed")
            if op.error_type:
                registry.inc(f"commands.failed.{op.error_type}")
        for key in SCAN_FIELDS:
            if getattr(op, key):
                registry.inc(f"io.{key}", getattr(op, key))
    snapshot = registry.snapshot()
    if args.json:
        sys.stdout.write(snapshot.to_json() + "\n")
    elif args.prometheus:
        sys.stdout.write(snapshot.render_prometheus())
    else:
        sys.stdout.write(snapshot.render_text())
    return 0


def _run_heat(args: argparse.Namespace) -> int:
    """``orpheus heat``: the storage access observatory report.

    Hot/cold rankings come from the EWMA model mined from the ops
    journal and the flight record; amplification and the advisor join
    that heat with the live page cost model.
    """
    from repro.observe.amplification import amplification_report
    from repro.observe.heat import advise, mine

    try:
        orpheus = load_state(args.root)
    except FileNotFoundError:
        sys.stderr.write("error: not an orpheus repository\n")
        return 2
    heat = mine(args.root, orpheus)
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
        "schema_version": 2,
        "half_life_s": heat.half_life_s,
        "events_total": heat.events_total,
        "hot_datasets": _table(heat.datasets, reverse=True),
        "hot_partitions": _table(heat.partitions, reverse=True),
        "hot_versions": _table(heat.versions, reverse=True),
        "cold_partitions": _table(heat.partitions, reverse=False),
        "cold_fraction": None if cold is None else round(cold, 4),
        "amplification": amplification_report(heat),
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
        f"half-life {report['half_life_s']:g}s\n"
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
            "no access events recorded yet -- run some commands\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
