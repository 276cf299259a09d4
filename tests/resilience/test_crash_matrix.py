"""The crash-consistency matrix: kill every mutating command at every
failpoint, then assert the next invocation auto-recovers.

Each cell builds a fresh repository to the command's precondition
(in-process, fast), runs the command as a real subprocess with one
failpoint armed to ``crash`` (``os._exit`` — no unwinding, the closest
userspace analogue to SIGKILL), and then verifies:

* the subprocess actually died at the failpoint (exit code 86),
* ``orpheus doctor`` exits 0 afterwards (auto-recovery ran and every
  probe, including journal verification and pending-intent checks,
  passes),
* ``orpheus log --ops --verify`` exits 0 (the operation journal and the
  version graph agree again).
"""

from __future__ import annotations

import pytest

from repro.resilience.failpoints import CRASH_EXIT_CODE

from tests.resilience.conftest import run_cli, run_inproc

#: Failpoints on the shared mutating-command path — every one of these
#: fires for every mutating command.
COMMON_FAILPOINTS = [
    "journal.after_begin",
    "statestore.after_temp_write",
    "statestore.before_replace",
    "statestore.after_replace",
    "journal.before_append",
    "journal.after_append",
]

COMMANDS = ["init", "checkout", "commit", "drop", "optimize"]

#: (command, failpoint) cells: the full cross product, plus the
#: CSV-writer failpoint which only checkout reaches.
CELLS = [
    (command, failpoint)
    for command in COMMANDS
    for failpoint in COMMON_FAILPOINTS
] + [("checkout", "csv.mid_write")]


def prepare(command, workspace):
    """Bring the repository to the command's precondition and return the
    argv for the invocation that will be crashed."""
    data = str(workspace / "data.csv")
    schema = str(workspace / "schema.csv")
    init = ["init", "-d", "ds", "-f", data, "-s", schema]
    if command == "init":
        return init
    if command == "optimize":
        # The optimizer operates on the partitioned model.
        init += ["--model", "partitioned_rlist"]
    assert run_inproc(workspace, *init) == 0
    if command == "checkout":
        return ["checkout", "-d", "ds", "-v", "1", "-f", str(workspace / "out.csv")]
    if command == "commit":
        target = workspace / "co.csv"
        assert run_inproc(
            workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target)
        ) == 0
        with open(target, "a") as handle:
            handle.write("k-new,9\n")
        return ["commit", "-d", "ds", "-f", str(target)]
    if command == "drop":
        return ["drop", "-d", "ds"]
    return ["optimize", "-d", "ds"]


@pytest.mark.parametrize(
    "command,failpoint", CELLS, ids=[f"{c}-{f}" for c, f in CELLS]
)
def test_crash_then_autorecover(command, failpoint, workspace):
    argv = prepare(command, workspace)

    crashed = run_cli(
        workspace, *argv, failpoints_spec=f"{failpoint}=crash"
    )
    assert crashed.returncode == CRASH_EXIT_CODE, (
        f"{command} did not die at {failpoint}: rc={crashed.returncode}\n"
        f"stdout: {crashed.stdout}\nstderr: {crashed.stderr}"
    )
    assert "failpoint" in crashed.stderr

    # The very next invocation must auto-recover and leave every doctor
    # probe green...
    assert run_inproc(workspace, "doctor") == 0
    # ...and the operation journal consistent with the version graph.
    assert run_inproc(workspace, "log", "--ops", "--verify") == 0


@pytest.mark.parametrize("failpoint", COMMON_FAILPOINTS)
def test_repo_still_usable_after_commit_crash(failpoint, workspace):
    """Beyond consistency: after a crashed commit the user can simply
    retry and end up with exactly one new version."""
    argv = prepare("commit", workspace)
    crashed = run_cli(workspace, *argv, failpoints_spec=f"{failpoint}=crash")
    assert crashed.returncode == CRASH_EXIT_CODE

    state_landed = failpoint in (
        "statestore.after_replace",
        "journal.before_append",
        "journal.after_append",
    )
    if not state_landed:
        # The commit never became durable; the retry performs it.
        assert run_inproc(workspace, *argv) == 0
    # Whether the crash landed the commit or the retry did, the graph
    # holds versions 1 and 2 and verifies cleanly.
    assert run_inproc(workspace, "log", "--ops", "--verify") == 0
    assert run_inproc(workspace, "diff", "-d", "ds", "-a", "1", "-b", "2") == 0


def test_csv_failpoint_does_not_fire_for_commit(workspace):
    """csv.mid_write sits in the CSV *writer*; commit only reads CSVs,
    so arming it must not perturb a commit."""
    argv = prepare("commit", workspace)
    proc = run_cli(workspace, *argv, failpoints_spec="csv.mid_write=crash")
    assert proc.returncode == 0, proc.stderr


def test_error_action_fails_cleanly_not_traceback(workspace):
    """The `error` action raises inside the process; the CLI must turn
    it into a clean non-zero exit, not an unhandled traceback."""
    argv = prepare("commit", workspace)
    proc = run_cli(
        workspace, *argv, failpoints_spec="statestore.before_replace=error"
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    # And the failure is itself recoverable.
    assert run_inproc(workspace, "doctor") == 0
