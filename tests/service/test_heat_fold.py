"""Daemon-side access accounting: orpheusd keeps no heat model of its
own. Its request ledger rolls up each dataset's scans, the heat model
is mined from the flight record and the journal, and what the record
has pruned leaves the model."""

from __future__ import annotations

import json
import sys

import pytest

from repro.cli import load_state, main
from repro.observe import heat as heat_module
from repro.observe.heat import mine
from repro.service.metrics import exposition
from repro.service.recorder import FlightRecorder, flight_dir_path, read_flight
from tests.service.conftest import DaemonHandle, seed_dataset


@pytest.fixture
def busy_daemon(workspace):
    """A daemon that served one full workload (init, checkouts, commit,
    diff) and shut down cleanly."""
    with DaemonHandle(workspace) as handle:
        with handle.client() as client:
            client.init(
                "demo",
                str(workspace / "data.csv"),
                str(workspace / "schema.csv"),
            )
            client.checkout("demo", [1])
            client.checkout("demo", [1])
            commit_file = workspace / "commit.csv"
            commit_file.write_text("key,value\nk1,1\nk2,2\nk3,3\nk4,4\n")
            client.commit("demo", str(commit_file), message="grow")
            client.diff("demo", 1, 2)
            stats = client.stats()
            metrics_text = exposition(handle.daemon.stats_payload())
    return workspace, stats, metrics_text


def test_stats_carries_no_heat_block(busy_daemon):
    _root, stats, _metrics = busy_daemon
    assert "heat" not in stats
    entry = stats["by_dataset"]["demo"]
    for gone in ("heat", "partition_touches", "read_amplification"):
        assert gone not in entry


def test_by_dataset_gains_io_rollups(busy_daemon):
    _root, stats, _metrics = busy_daemon
    entry = stats["by_dataset"]["demo"]
    assert entry["count"] == 5
    assert entry["rows_scanned"] > 0
    assert entry["bytes_scanned"] > 0


def test_prometheus_scan_counters(busy_daemon):
    _root, stats, metrics = busy_daemon
    assert "orpheusd_partition_touch_total" not in metrics
    assert "orpheusd_buffer_pool_pinned_bytes" not in metrics
    samples = dict(
        line.split() for line in metrics.splitlines()
        if line.startswith("orpheusd_scanned_")
    )
    entry = stats["by_dataset"]["demo"]
    rows, nbytes = entry["rows_scanned"], entry["bytes_scanned"]
    assert float(samples["orpheusd_scanned_rows_total"]) == rows
    assert float(samples["orpheusd_scanned_bytes_total"]) == nbytes


def test_top_renders_the_ledgers_scan_table(busy_daemon):
    from repro.observe.top import render_frame

    _root, stats, _metrics = busy_daemon
    frame = render_frame(stats)
    assert "scan-rows" in frame
    assert "half-life" not in frame and "pins" not in frame
    entry = stats["by_dataset"]["demo"]
    (row,) = [line for line in frame.splitlines() if line.startswith("demo ")]
    count, rows = str(entry["count"]), str(entry["rows_scanned"])
    assert row.split()[1:3] == [count, rows]


def test_heat_persists_across_shutdown(busy_daemon):
    """The daemon's heat outlives it in the flight record: the model
    mined after shutdown holds every access it served."""
    root, _stats, _metrics = busy_daemon
    mined = mine(str(root), load_state(str(root)))
    assert mined.events_total == 5
    assert "demo:1" in mined.versions
    assert "demo:2" in mined.versions
    assert mined.samples["split_by_rlist|checkout"]["events"] == 2
    assert mined.samples["split_by_rlist|checkout"]["rows_scanned"] > 0
    assert not (root / ".orpheus" / "telemetry").exists()


def test_restarted_daemon_resumes_heat(busy_daemon):
    root, _stats, _metrics = busy_daemon
    with DaemonHandle(root) as handle:
        with handle.client() as client:
            client.checkout("demo", [2])
    assert mine(str(root), load_state(str(root))).events_total == 6


def test_one_rule_decides_heat_events(busy_daemon):
    """Neither a daemon `log -d` (a dataset request, not an access) nor
    a CLI `drop` is a heat event; a CLI `init` is."""
    root, _stats, _metrics = busy_daemon
    with DaemonHandle(root) as handle:
        with handle.client() as client:
            client.log(dataset="demo")
            client.log(dataset="demo")
    init = [
        "--root", str(root), "init", "-d", "scratch",
        "-f", str(root / "data.csv"), "-s", str(root / "schema.csv"),
    ]
    for argv in (init, ["--root", str(root), "drop", "-d", "scratch"], init):
        assert main(argv) == 0
    mined = mine(str(root), load_state(str(root)))
    assert mined.events_total == 7
    assert mined.samples["split_by_rlist|init"]["events"] == 3


def test_serving_builds_no_heat_events(workspace, monkeypatch):
    """orpheusd keeps no heat beside the record: serving 50 inline
    checkouts never builds a heat event, wherever ``build_event`` was
    imported."""
    calls = []
    real = heat_module.build_event

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with DaemonHandle(workspace) as handle:
        with handle.client() as client:
            client.init(
                "demo",
                str(workspace / "data.csv"),
                str(workspace / "schema.csv"),
            )
            for module in list(sys.modules.values()):
                if getattr(module, "build_event", None) is real:
                    monkeypatch.setattr(module, "build_event", counting)
            for _ in range(50):
                client.checkout("demo", [1], inline=True)
            client.ping()  # same connection: every checkout finalized
    assert calls == []


def test_pruned_flight_reads_leave_heat_but_journaled_commit_stays(
    workspace, capsys
):
    """Heat covers what the records retain: reads whose flight segment
    was pruned leave ``orpheus heat``; the daemon's commit stays,
    because the ops journal keeps it."""
    seed_dataset(workspace, "inter")
    with DaemonHandle(workspace) as handle:
        daemon = handle.daemon
        daemon.recorder = FlightRecorder(
            str(workspace), segment_bytes=4096, max_segments=2,
            boot_id=daemon.boot_id,
        )
        with handle.client() as client:
            commit_file = workspace / "commit.csv"
            commit_file.write_text("key,value\nk1,1\nk2,2\nk3,3\nk4,4\n")
            client.commit(
                "inter", str(commit_file), message="grow", parents=[1]
            )
            for _ in range(60):
                client.checkout("inter", [1], inline=True)
    records = read_flight(flight_dir_path(str(workspace)))["records"]
    ops = [record["op"] for record in records]
    assert "commit" not in ops  # its segment was pruned
    kept = ops.count("checkout")
    assert 0 < kept < 60

    capsys.readouterr()
    assert main(["--root", str(workspace), "heat", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    samples = report["amplification"]["split_by_rlist"]
    assert samples["checkout"]["events"] == kept
    assert samples["commit"]["events"] == 1
    assert samples["init"]["events"] == 1
    assert report["events_total"] == kept + 2
