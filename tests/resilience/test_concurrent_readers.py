"""Read-only commands run side by side under the shared repository lock;
their journal records must still all land. Twelve real ``diff``
processes start their commands at the same instant: ``orpheus stats``
must count exactly twelve more, and the heat model mined from the
journal exactly twelve more events, each carrying its diff's scan
footprint."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro import telemetry
from repro.cli import load_state
from repro.observe.heat import mine
from tests.resilience.conftest import SRC, SUBPROCESS_TIMEOUT, run_inproc

READERS = 12

#: Import first, then wait for the go file, so every process reaches
#: its journal append at about the same moment rather than staggered
#: by imports.
RUNNER = """
import os, sys, time
from repro.cli import main
root, go = sys.argv[1], sys.argv[2]
while not os.path.exists(go):
    time.sleep(0.001)
sys.exit(main(["--root", root, "diff", "-d", "ds", "-a", "1", "-b", "2"]))
"""


def diff_sample(root) -> dict:
    """The mined ``diff`` sample: event count and rows scanned."""
    heat = mine(str(root), load_state(str(root)))
    empty = {"events": 0, "rows_scanned": 0}
    return heat.samples.get("split_by_rlist|diff", empty)


def diff_spans(root, capsys) -> int:
    capsys.readouterr()
    assert run_inproc(root, "stats", "--json") == 0
    spans = json.loads(capsys.readouterr().out)["spans"]
    return spans.get("cli.diff", {}).get("count", 0)


def test_concurrent_readers_lose_no_record(workspace, capsys):
    assert run_inproc(
        workspace, "init", "-d", "ds",
        "-f", str(workspace / "data.csv"), "-s", str(workspace / "schema.csv"),
    ) == 0
    work = workspace / "work.csv"
    assert run_inproc(workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(work)) == 0
    with open(work, "a") as handle:
        handle.write("k4,4\n")
    assert run_inproc(workspace, "commit", "-d", "ds", "-f", str(work)) == 0
    # One diff in process, for the scan footprint each reader repeats.
    assert run_inproc(workspace, "diff", "-d", "ds", "-a", "1", "-b", "2") == 0
    registry = telemetry.get_registry()
    per_diff = registry.counter_value(
        "storage.io.seq_rows"
    ) + registry.counter_value("storage.io.random_rows")
    assert per_diff > 0
    before = diff_sample(workspace)
    spans_before = diff_spans(workspace, capsys)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("ORPHEUS_FAILPOINTS", None)
    go = workspace / "go"
    readers = [
        subprocess.Popen(
            [sys.executable, "-c", RUNNER, str(workspace), str(go)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(READERS)
    ]
    time.sleep(1.0)  # let them finish importing
    go.touch()
    for reader in readers:
        _, err = reader.communicate(timeout=SUBPROCESS_TIMEOUT)
        assert reader.returncode == 0, err

    after = diff_sample(workspace)
    assert after["events"] - before["events"] == READERS
    assert after["rows_scanned"] - before["rows_scanned"] == READERS * per_diff
    assert diff_spans(workspace, capsys) - spans_before == READERS
