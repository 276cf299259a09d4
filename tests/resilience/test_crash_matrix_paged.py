"""The crash matrix re-run against the ``ORPHSTA2`` paged layout.

Every cell runs with ``ORPHEUS_STATE_LAYOUT=paged`` exported, so the
in-process setup *and* the crashed subprocess both persist through the
page store. The paged-specific failpoints bracket dirty-page write-back;
``statestore.after_replace`` is the crash between the state swap and
page garbage collection. The invariants are the legacy matrix's, plus a
paged one: a crashed save leaves only orphan page files, which recovery
removes."""

from __future__ import annotations

import pytest

from repro.pagestore import pages as pagefiles
from repro.pagestore.store import orphan_pages
from repro.resilience.failpoints import CRASH_EXIT_CODE
from repro.resilience.statestore import StateStore

from tests.resilience.conftest import run_cli, run_inproc

#: Failpoints a paged save passes through, in firing order.
PAGED_FAILPOINTS = [
    "pagestore.before_page_write",
    "pagestore.after_page_write",
    "statestore.before_replace",
    "statestore.after_replace",
]

COMMANDS = ["init", "commit"]

CELLS = [
    (command, failpoint)
    for command in COMMANDS
    for failpoint in PAGED_FAILPOINTS
]


@pytest.fixture(autouse=True)
def paged_layout(monkeypatch):
    """Every save in this module — in-process setup, crashed
    subprocess, post-crash verification — uses the paged layout
    (run_cli copies os.environ into the subprocess)."""
    monkeypatch.setenv("ORPHEUS_STATE_LAYOUT", "paged")


def prepare(command, workspace):
    data = str(workspace / "data.csv")
    schema = str(workspace / "schema.csv")
    init = ["init", "-d", "ds", "-f", data, "-s", schema]
    if command == "init":
        return init
    assert run_inproc(workspace, *init) == 0
    assert StateStore(workspace).integrity()["layout"] == "paged"
    target = workspace / "co.csv"
    assert (
        run_inproc(workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target))
        == 0
    )
    with open(target, "a") as handle:
        handle.write("k-new,9\n")
    return ["commit", "-d", "ds", "-f", str(target)]


@pytest.mark.parametrize(
    "command,failpoint", CELLS, ids=[f"{c}-{f}" for c, f in CELLS]
)
def test_paged_crash_then_autorecover(command, failpoint, workspace):
    argv = prepare(command, workspace)

    crashed = run_cli(workspace, *argv, failpoints_spec=f"{failpoint}=crash")
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"{command} did not die at {failpoint}: rc={crashed.returncode}\n"
        f"stdout: {crashed.stdout}\nstderr: {crashed.stderr}"
    )
    assert "failpoint" in crashed.stderr

    # Auto-recovery must leave every probe green (page_store_health
    # included) and the journal consistent with the graph.
    assert run_inproc(workspace, "doctor") == 0
    assert run_inproc(workspace, "log", "--ops", "--verify") == 0


@pytest.mark.parametrize("failpoint", PAGED_FAILPOINTS)
def test_paged_repo_usable_after_commit_crash(failpoint, workspace):
    """After a crashed paged commit the user simply retries; the repo
    ends with exactly versions 1 and 2 either way."""
    argv = prepare("commit", workspace)
    crashed = run_cli(workspace, *argv, failpoints_spec=f"{failpoint}=crash")
    assert crashed.returncode == CRASH_EXIT_CODE

    # Only a crash after the atomic state replace leaves it durable.
    if failpoint != "statestore.after_replace":
        assert run_inproc(workspace, *argv) == 0
    assert run_inproc(workspace, "log", "--ops", "--verify") == 0
    assert run_inproc(workspace, "diff", "-d", "ds", "-a", "1", "-b", "2") == 0


def test_crashed_writeback_leaves_only_orphans_and_recovery_removes_them(
    workspace,
):
    """Kill -9 after the new pages land but before the state swap: the
    live state must still load (it references only the old pages), the
    debris must be *extra* files only, and recovery must delete them."""
    argv = prepare("commit", workspace)
    before = set(
        p.name for p in pagefiles.list_page_files(pagefiles.pages_dir(workspace))
    )

    crashed = run_cli(
        workspace, *argv, failpoints_spec="pagestore.after_page_write=crash"
    )
    assert crashed.returncode == CRASH_EXIT_CODE

    after = set(
        p.name for p in pagefiles.list_page_files(pagefiles.pages_dir(workspace))
    )
    assert before < after, "the crashed commit wrote new pages"
    orphans = orphan_pages(workspace)
    assert orphans, "unreferenced new pages must be orphans"
    assert {p.name for p in orphans} == after - before

    assert run_inproc(workspace, "recover") == 0
    assert orphan_pages(workspace) == []
    assert run_inproc(workspace, "doctor") == 0
    # The uncommitted version never became durable.
    assert run_inproc(workspace, "log", "--ops", "--verify") == 0


def test_doctor_reports_paged_layout_health(workspace, capsys):
    prepare("commit", workspace)
    import json

    capsys.readouterr()  # drop the setup commands' output
    assert run_inproc(workspace, "doctor", "--json") == 0
    probes = {
        p["probe"]: p for p in json.loads(capsys.readouterr().out)["probes"]
    }
    assert probes["page_store_health"]["severity"] == "ok"
