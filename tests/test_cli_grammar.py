"""One command table, two grammars, one sub-parser per run.

* A command line parsed with only its command's sub-parser gives the
  same ``Namespace`` as the full grammar, for a corpus that uses every
  flag of every command, local and ``remote``.
* Help and error text is what the two hand-written grammars printed
  (``cli_golden.json``, 80 columns; argparse's layout differs between
  Python versions, so the goldens are checked on 3.11, and the
  one-sub-parser path is checked against the full grammar everywhere).

Regenerate the goldens only for a deliberate change of text::

    PYTHONPATH=src python -m tests.test_cli_grammar > tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import COMMAND_TABLE, _build_parser, _parse, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

LOCAL_CORPUS = [
    ["init", "-d", "ds", "-f", "a.csv", "-s", "s.csv", "--model", "partitioned_rlist"],
    ["init", "--dataset", "ds", "--file", "a.csv", "--schema", "s.csv"],
    ["checkout", "-d", "ds", "-v", "1", "2", "-f", "o.csv", "-s", "s.csv", "--explain"],
    ["checkout", "-d", "ds", "-v", "3", "-f", "o.csv", "--explain", "analyze", "--json"],
    ["checkout", "--dataset", "ds", "--versions", "1", "--file", "o.csv", "--schema", "s.csv"],
    ["commit", "-d", "ds", "-f", "o.csv", "-s", "s.csv", "-m", "msg", "--explain=plan", "--json"],
    ["commit", "--dataset", "ds", "--file", "o.csv", "--message", "m"],
    ["log"],
    ["log", "-d", "ds", "--json"],
    ["log", "--dataset", "ds", "--ops", "--verify"],
    ["diff", "-d", "ds", "-a", "1", "-b", "2", "--explain", "--json"],
    ["diff", "--dataset", "ds", "-a", "2", "-b", "1"],
    ["ls"],
    ["ls", "--json"],
    ["run", "SELECT key FROM VERSION 1 OF CVD ds", "--json", "--limit", "5"],
    ["drop", "-d", "ds"],
    ["drop", "--dataset", "ds"],
    ["optimize", "-d", "ds", "--gamma", "3"],
    ["optimize", "--dataset", "ds"],
    ["create_user", "alice", "--email", "a@example.org"],
    ["create_user", "bob"],
    ["config", "alice"],
    ["whoami"],
    ["doctor"],
    ["doctor", "--json"],
    ["recover"],
    ["recover", "--dry-run"],
    ["migrate-state"],
    ["migrate-state", "--to", "pickle", "--dry-run"],
    ["serve", "--socket", "s.sock", "--tcp", "127.0.0.1:0", "--workers", "2",
     "--cache-mb", "8", "--queue-depth", "4", "--read-queue-depth", "16",
     "--idle-timeout", "30", "--metrics-port", "0", "--slow-ms", "100"],
    ["remote", "--user", "u", "--socket", "s.sock", "--json", "checkout", "-d", "ds", "-v", "1"],
    ["remote", "--", "ls"],
    ["top", "--interval", "0.5", "--once", "--iterations", "2"],
    ["heat", "-d", "ds", "--top", "3", "--json"],
    ["heat", "--dataset", "ds"],
    ["stats", "--json"],
    ["stats", "--prometheus"],
    ["--root", "r", "--timings", "ls"],
    ["--root=r", "whoami"],
    ["--timings", "--root", "r", "log", "-d", "ds"],
]

REMOTE_CORPUS = [
    ["init", "-d", "ds", "-f", "a.csv", "-s", "s.csv", "--model", "partitioned_rlist"],
    ["checkout", "-d", "ds", "-v", "1", "2"],
    ["checkout", "--dataset", "ds", "--versions", "1", "--file", "o.csv", "--schema", "s.csv"],
    ["commit", "-d", "ds", "-f", "o.csv", "-s", "s.csv", "-m", "msg"],
    ["log", "-d", "ds", "--ops"],
    ["diff", "-d", "ds", "-a", "1", "-b", "2"],
    ["ls"],
    ["run", "SELECT key FROM VERSION 1 OF CVD ds"],
    ["drop", "-d", "ds"],
    ["optimize", "-d", "ds", "--gamma", "3"],
    ["create_user", "alice", "--email", "a@example.org"],
    ["whoami"],
    ["doctor"],
    ["stats", "--recent", "3"],
    ["ping"],
    ["flush-cache"],
    ["flush-quarantine"],
    ["shutdown"],
]

#: Label -> argv of every golden case.
CASES = {"--help": ["--help"], "no command": [], "unknown command": ["frobnicate"]}
CASES.update(
    {f"{name} --help": [name, "--help"] for name, c in COMMAND_TABLE.items() if c.local}
)
CASES.update({
    "missing required flag": ["checkout", "-d", "ds", "-f", "out.csv"],
    "bad type": ["diff", "-d", "ds", "-a", "one", "-b", "2"],
    "bad choice": ["migrate-state", "--to", "zip"],
    "unrecognized argument": ["ls", "--bogus"],
    "root without value": ["--root"],
    "remote missing required flag": ["remote", "--", "diff", "-d", "ds", "-a", "1"],
})


def run(call, argv) -> dict:
    """Exit code and output of ``call(argv)``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exit_:
            code = exit_.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def full(argv):
    return _build_parser().parse_args(argv)


def command_of(argv: list[str]) -> str:
    return next(token for token in argv if token in COMMAND_TABLE)


@pytest.mark.parametrize("argv", LOCAL_CORPUS, ids=" ".join)
def test_one_sub_parser_parses_as_the_full_grammar(argv):
    assert _parse(argv) == full(argv)


@pytest.mark.parametrize("argv", REMOTE_CORPUS, ids=" ".join)
def test_remote_one_sub_parser_parses_as_the_full_grammar(argv):
    assert _parse(argv, remote=True) == _build_parser(remote=True).parse_args(argv)


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_corpus_uses_every_flag_of_every_command(remote):
    corpus = REMOTE_CORPUS if remote else LOCAL_CORPUS
    used: dict[str, set[str]] = {}
    for argv in corpus:
        tokens = {t.split("=")[0] for t in argv if t.startswith("-")}
        used.setdefault(command_of(argv), set()).update(tokens)
    for name, command in COMMAND_TABLE.items():
        if not command.in_grammar(remote):
            continue
        assert name in used, name
        for arg in command.args:
            optional = arg.flags[0].startswith("-")
            if optional and arg.in_grammar(remote):
                assert used[name] & set(arg.flags), (name, arg.flags)


@pytest.mark.parametrize("label", sorted(CASES))
def test_help_and_errors_match_the_full_grammar(label, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = CASES[label]
    if argv[:2] == ["remote", "--"]:
        expected = run(lambda a: _build_parser(remote=True).parse_args(a), argv[2:])
        actual = run(lambda a: _parse(a, remote=True), argv[2:])
    else:
        expected, actual = run(full, argv), run(_parse, argv)
    assert actual == expected


#: Commands and options the grammar no longer has (names built by
#: concatenation so a repository-wide search for them stays empty).
REFUSED = [
    ["re" + "play", "flight"],
    ["pro" + "file", "ls"],
    ["serve", "--flight-" + "sample", "0.5"],
    ["serve", "--flight-" + "segment-mb", "1"],
    ["serve", "--flight-" + "segments", "3"],
    ["stats", "--re" + "set"],
    ["serve", "--sta" + "tus"],
    ["serve", "--st" + "op"],
    ["top", "--js" + "on"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_deleted_command_and_serve_flags_are_refused(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    actual = run(_parse, argv)
    assert actual == run(full, argv)
    assert actual["code"] == 2
    assert (
        "invalid choice" in actual["stderr"]
        or "unrecognized arguments" in actual["stderr"]
    )


#: Remote commands the grammar no longer has: ``stats`` is the one report.
REMOTE_REFUSED = [["sta" + "tus"]]


@pytest.mark.parametrize("argv", REMOTE_REFUSED, ids=" ".join)
def test_deleted_remote_command_is_refused(argv, monkeypatch):
    """``orpheus remote <gone>`` exits 2 at parse time, before any
    connection is tried."""
    monkeypatch.setenv("COLUMNS", "80")
    connected = []
    monkeypatch.setattr(
        "repro.service.client.ServiceClient.connect", connected.append
    )
    actual = run(main, ["remote", *argv])
    assert actual["code"] == 2 and connected == []
    assert actual["stderr"].startswith("usage: orpheus remote")
    assert "invalid choice" in actual["stderr"]
    assert run(lambda a: _parse(a, remote=True), argv) == run(
        lambda a: _build_parser(remote=True).parse_args(a), argv
    )


#: Serve values no daemon can run with: the parser refuses them.
BAD_SERVE_VALUES = [
    ["serve", "--tcp", "localhost"],
    ["serve", "--tcp", "host:abc"],
    ["serve", "--tcp", "host:"],
    ["serve", "--tcp", ":8080"],
    ["serve", "--tcp", "host:-1"],
    ["serve", "--tcp", "host:65536"],
    ["serve", "--queue-depth", "0"],
    ["serve", "--queue-depth", "-1"],
    ["serve", "--queue-depth", "2.5"],
    ["serve", "--read-queue-depth", "0"],
    ["serve", "--read-queue-depth", "-3"],
    ["serve", "--read-queue-depth", "many"],
]


@pytest.mark.parametrize("argv", BAD_SERVE_VALUES, ids=" ".join)
def test_bad_serve_values_exit_2_before_the_daemon_starts(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    started = []
    monkeypatch.setattr(cli, "_run_serve", started.append)
    actual = run(main, argv)
    assert actual == run(full, argv)
    assert actual["code"] == 2 and started == []
    assert actual["stderr"].startswith("usage: orpheus serve")
    assert f"error: argument {argv[1]}: wants " in actual["stderr"]


def test_serve_tcp_parses_to_host_and_port():
    assert _parse(["serve", "--tcp", "127.0.0.1:0"]).tcp == ("127.0.0.1", 0)


#: Serve values at the edges the checks draw, and what they parse to.
GOOD_SERVE_VALUES = [
    (["serve"], "tcp", None),
    (["serve", "--tcp", "example.org:65535"], "tcp", ("example.org", 65535)),
    (["serve", "--tcp", "::1:8080"], "tcp", ("::1", 8080)),
    (["serve"], "queue_depth", 8),
    (["serve", "--queue-depth", "1"], "queue_depth", 1),
    (["serve"], "read_queue_depth", 64),
    (["serve", "--read-queue-depth", "1"], "read_queue_depth", 1),
]


@pytest.mark.parametrize(
    "argv, field, value",
    GOOD_SERVE_VALUES,
    ids=[f"{field} of {' '.join(argv)}" for argv, field, _ in GOOD_SERVE_VALUES],
)
def test_serve_keeps_every_value_a_daemon_can_run_with(argv, field, value):
    """The edges the checks draw: the last valid port, a host that holds
    colons of its own, a queue one deep, and the defaults."""
    assert getattr(_parse(argv), field) == value


REPO = Path(__file__).resolve().parents[1]

#: Where a command is named for a reader to run: the docs, the doctor's
#: remediations and the CLI's own help.
NAMING_FILES = [
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / "src" / "repro" / "observe" / "doctor.py",
    REPO / "src" / "repro" / "cli.py",
]

#: `` `orpheus <word>` `` inline, or a command line in a code block.
NAMED_COMMAND = re.compile(
    r"`orpheus\s+([A-Za-z][\w-]*)|^\s*(?:\$\s+)?orpheus\s+([A-Za-z][\w-]*)",
    re.MULTILINE,
)


@pytest.mark.parametrize(
    "path", NAMING_FILES, ids=lambda path: path.relative_to(REPO).as_posix()
)
def test_docs_and_remediations_name_only_commands_that_exist(path):
    named = {
        inline or line for inline, line in NAMED_COMMAND.findall(path.read_text())
    }
    assert named - set(COMMAND_TABLE) == set()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="goldens hold Python 3.11's argparse layout"
)
@pytest.mark.parametrize("label", sorted(CASES))
def test_help_and_errors_match_the_goldens(label, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text())
    assert run(main, CASES[label]) == golden[label]


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    goldens = {label: run(main, argv) for label, argv in CASES.items()}
    sys.stdout.write(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
