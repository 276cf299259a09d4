"""``orpheus stats`` is read from the record: CLI commands from the ops
journal, orpheusd requests from the flight record, each command once."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.observe.journal import Journal
from repro.service.client import ServiceError
from repro.service.recorder import flight_dir_path, read_flight

from .conftest import DaemonHandle, seed_dataset


def test_stats_counts_a_cli_session_and_daemon_requests_once(
    workspace, capsys
):
    root = str(workspace)
    local, remote = workspace / "local.csv", workspace / "remote.csv"
    seed_dataset(workspace)
    checkout = ["--root", root, "checkout", "-d", "inter", "-v", "1", "-f"]
    assert main([*checkout, str(local)]) == 0
    assert main(["--root", root, "checkout", "-d", "gone", "-v", "1",
                 "-f", str(local)]) == 1
    assert main(["--root", root, "ls"]) == 0  # journals nothing
    with DaemonHandle(workspace) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], inline=True)
            client.checkout("inter", [1], file=str(remote))
            with remote.open("a") as out:
                out.write("k4,4\r\n")
            client.commit("inter", file=str(remote), message="m", parents=[1])
            commit_trace = client.last_trace["trace_id"]
            with pytest.raises(ServiceError):
                client.checkout("gone", [1], inline=True)
            client.ping()  # same connection: every request finalized
    # The daemon's commit is in both records, with one trace id.
    journaled = [r["trace_id"] for r in Journal(root).read()]
    flown = [r["trace"] for r in read_flight(flight_dir_path(root))["records"]]
    assert commit_trace in journaled and commit_trace in flown

    capsys.readouterr()
    assert main(["--root", root, "stats", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    spans = {name: (s["count"], s["errors"]) for name, s in data["spans"].items()}
    assert spans == {
        "cli.init": (1, 0),
        "cli.checkout": (2, 1),
        "service.checkout": (3, 1),
        "service.commit": (1, 0),
        "service.ping": (1, 0),
    }
    failed = {
        name: value for name, value in data["counters"].items()
        if name.startswith("commands.failed")
    }
    assert failed == {"commands.failed": 2, "commands.failed.CVDError": 2}
    # Latency histograms cover the successes only.
    assert data["spans"]["service.checkout"]["seconds"]["count"] == 2
    assert data["spans"]["service.commit"]["seconds"]["count"] == 1
