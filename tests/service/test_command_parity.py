"""One implementation per command: ``orpheus <cmd>`` and
``orpheus remote -- <cmd>`` accept the same request flags, run the same
:meth:`Orpheus.execute` code, print the same lines, and journal the
same records; a commit stores its checkout pin's time however it
arrives."""

from __future__ import annotations

import argparse

import pytest

from repro import telemetry
from repro.cli import _PARAMS, COMMAND_TABLE, _build_parser, load_state, main
from repro.core.commands import Orpheus
from repro.observe.journal import SCAN_FIELDS, Journal
from repro.resilience.statestore import LAYOUT_ENV
from repro.telemetry.clock import FrozenClock

from tests.service.conftest import DaemonHandle

DATA = "key,value\nk1,1\nk2,2\nk3,3\n"
SCHEMA = "key,text\nvalue,integer\nprimary_key,key\n"

#: Journal fields that name the invocation rather than what it did,
#: and the scan footprint only a CLI record carries (a daemon request's
#: is in its flight record).
PER_INVOCATION = ("trace_id", "session_id", "ts", "duration_s", *SCAN_FIELDS)


def make_repo(path):
    path.mkdir()
    (path / "data.csv").write_text(DATA)
    (path / "schema.csv").write_text(SCHEMA)
    return path


def cli(*args: str) -> None:
    assert main(["--root", ".", *args]) == 0


def remote(*args: str) -> None:
    cli("remote", "--", *args)


@pytest.fixture
def frozen():
    clock = FrozenClock(start=1_000.0)
    telemetry.set_clock(clock)
    yield clock
    telemetry.set_clock(None)


@pytest.mark.parametrize("path", ["local", "remote", "library"])
def test_commit_stores_the_pins_checkout_time(tmp_path, monkeypatch, frozen, path):
    monkeypatch.chdir(make_repo(tmp_path / "repo"))
    init = ("init", "-d", "d", "-f", "data.csv", "-s", "schema.csv")
    checkout = ("checkout", "-d", "d", "-v", "1", "-f", "w.csv")
    commit = ("commit", "-d", "d", "-f", "w.csv", "-m", "edit")
    if path == "library":
        orpheus = Orpheus()
        orpheus.execute("init", {"dataset": "d", "file": "data.csv", "schema": "schema.csv"})
        frozen.advance(10)
        orpheus.execute("checkout", {"dataset": "d", "versions": [1], "file": "w.csv"})
        frozen.advance(10)
        with open("w.csv", "a") as handle:
            handle.write("k4,4\n")
        orpheus.execute("commit", {"dataset": "d", "file": "w.csv", "message": "edit"})
    elif path == "local":
        cli(*init)
        frozen.advance(10)
        cli(*checkout)
        frozen.advance(10)
        with open("w.csv", "a") as handle:
            handle.write("k4,4\n")
        cli(*commit)
        orpheus = load_state(".")
    else:
        with DaemonHandle(".") as handle:
            remote(*init)
            frozen.advance(10)
            remote(*checkout)
            frozen.advance(10)
            with open("w.csv", "a") as handle_:
                handle_.write("k4,4\n")
            remote(*commit)
            orpheus = handle.daemon.orpheus
    version = orpheus.cvd("d").versions.get(2)
    assert tuple(version.parents) == (1,)
    assert version.checkout_time == 1_010.0
    assert version.commit_time == 1_020.0


SCRIPT = (
    ("init", "-d", "d", "-f", "data.csv", "-s", "schema.csv",
     "--model", "partitioned_rlist"),
    ("checkout", "-d", "d", "-v", "1", "-f", "w.csv"),
    "edit",
    ("commit", "-d", "d", "-f", "w.csv", "-m", "edit"),
    ("log", "-d", "d"),
    ("diff", "-d", "d", "-a", "1", "-b", "2"),
    ("run", "SELECT key, value FROM VERSION 2 OF CVD d"),
    ("ls",),
    ("optimize", "-d", "d", "--gamma", "2.0"),
    ("drop", "-d", "d"),
)


def drive(step_runner) -> None:
    for step in SCRIPT:
        if step == "edit":
            with open("w.csv", "a", newline="") as handle:
                handle.write("k4,4\r\nk5,5\r\n")
        else:
            step_runner(*step)


def journal_shape(root) -> list[dict]:
    return [
        {k: v for k, v in record.items() if k not in PER_INVOCATION}
        for record in Journal(str(root)).read()
    ]


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_local_and_remote_agree(tmp_path, monkeypatch, capsys, layout):
    monkeypatch.setenv(LAYOUT_ENV, layout)
    monkeypatch.delenv("ORPHEUS_USER", raising=False)
    local = make_repo(tmp_path / "local")
    served = make_repo(tmp_path / "remote")

    monkeypatch.chdir(local)
    capsys.readouterr()
    drive(cli)
    local_out = capsys.readouterr().out

    monkeypatch.chdir(served)
    with DaemonHandle("."):
        capsys.readouterr()
        drive(remote)
        remote_out = capsys.readouterr().out

    assert remote_out.replace(" [cached]", "") == local_out
    assert "committed version 2 to 'd'" in local_out
    local_journal, remote_journal = journal_shape(local), journal_shape(served)
    assert [r["command"] for r in local_journal] == [
        "init", "checkout", "commit", "diff", "run", "optimize", "drop",
    ]
    assert remote_journal == local_journal


def request_flags(command: str, remote: bool) -> set[str]:
    """The request-parameter flags (and positionals) ``command``'s
    sub-parser accepts in the local or the remote grammar."""
    parser = _build_parser(command, remote)
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = set()
    for action in subparsers.choices[command]._actions:
        if action.dest in _PARAMS:
            flags.update(action.option_strings or [action.dest])
    return flags


@pytest.mark.parametrize(
    "command", [n for n, c in COMMAND_TABLE.items() if c.local and c.remote]
)
def test_remote_accepts_exactly_the_local_request_flags(command):
    local, remote = request_flags(command, False), request_flags(command, True)
    if command == "stats":
        # Two commands under one name: the local one mines the journal
        # and the flight record; the remote one asks orpheusd for its
        # live report, optionally with its newest span trees.
        assert (local, remote) == (set(), {"--recent"})
    else:
        assert remote == local
