"""Daemon-side heat accounting: live folds, the ``stats`` heat rollup,
Prometheus scan counters, persistence across the housekeeping fold, and
flight-mining parity with the live model."""

from __future__ import annotations

import pytest

from repro.observe.heat import HeatAccountant, mine
from tests.service.conftest import DaemonHandle


@pytest.fixture
def busy_daemon(workspace):
    """A daemon that served one full workload (init, checkouts, commit,
    diff) and shut down cleanly, persisting its heat model."""
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
            metrics_text = handle.daemon.render_metrics()
    return workspace, stats, metrics_text


def test_stats_carries_heat_rollup(busy_daemon):
    _root, stats, _metrics = busy_daemon
    heat = stats["heat"]
    assert heat["events_total"] == 5
    assert heat["partition_touches_total"] >= 5
    assert heat["rows_scanned_total"] > 0
    assert heat["hot_datasets"][0]["dataset"] == "demo"
    assert heat["hot_partitions"][0]["partition"] == "demo:p0"


def test_by_dataset_gains_io_rollups(busy_daemon):
    _root, stats, _metrics = busy_daemon
    entry = stats["by_dataset"]["demo"]
    assert entry["rows_scanned"] > 0
    assert entry["partition_touches"] >= 5
    assert entry["heat"] > 0
    assert entry["read_amplification"] is not None


def test_prometheus_scan_counters(busy_daemon):
    _root, _stats, metrics = busy_daemon
    assert "orpheusd_partition_touch_total" in metrics
    assert "orpheusd_scanned_bytes_total" in metrics
    for line in metrics.splitlines():
        if line.startswith("orpheusd_partition_touch_total"):
            assert float(line.split()[-1]) >= 5


def test_heat_persists_across_shutdown(busy_daemon):
    root, stats, _metrics = busy_daemon
    live = HeatAccountant.load(str(root))
    assert live.events_total == stats["heat"]["events_total"]
    assert "demo:1" in live.versions
    assert "demo:2" in live.versions
    assert live.samples["split_by_rlist|checkout"]["events"] == 2


def test_restarted_daemon_resumes_heat(busy_daemon):
    root, _stats, _metrics = busy_daemon
    with DaemonHandle(root) as handle:
        with handle.client() as client:
            client.checkout("demo", [2])
            stats = client.stats()
    assert stats["heat"]["events_total"] == 6


def test_flight_mining_matches_live_accounting(busy_daemon):
    """The offline miner rebuilds the live model from the flight
    recorder: identical events (the daemon flight-samples at 1.0), so
    identical touch tables, scan sums, and amplification samples."""
    root, _stats, _metrics = busy_daemon
    from repro.cli import load_state

    orpheus = load_state(str(root))
    mined = mine(str(root), orpheus)
    live = HeatAccountant.load(str(root))
    assert mined.events_total == live.events_total
    assert mined.samples == live.samples
    for table in ("datasets", "versions", "partitions"):
        mined_table = getattr(mined, table)
        live_table = getattr(live, table)
        assert set(mined_table) == set(live_table)
        for key, entry in mined_table.items():
            twin = live_table[key]
            assert entry["touches"] == twin["touches"], key
            assert entry["rows_scanned"] == twin["rows_scanned"], key
            assert entry["bytes_scanned"] == twin["bytes_scanned"], key
            assert entry["heat"] == pytest.approx(twin["heat"]), key

    # One rule decides what is a heat event on every path: neither a
    # daemon `log -d` (a dataset request, not an access) nor a CLI `drop`
    # is one, live or mined. The CLI part is compared by count and
    # sample key only: the journal carries no scan stamps.
    from repro.cli import main

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
    live = HeatAccountant.load(str(root))
    assert live.events_total == mined.events_total == 7
    assert set(live.samples) == set(mined.samples)


def test_pins_follow_heat_on_the_housekeeping_tick_not_per_request(
    workspace, monkeypatch
):
    """Requests fold heat but never re-rank the buffer pool's pins;
    the housekeeping tick does, from the heat they left behind."""
    from repro.pagestore.bufferpool import BufferPool, get_pool

    set_pins_calls = []
    original = BufferPool.set_pins

    def counting(self, heat_keys):
        set_pins_calls.append(frozenset(heat_keys))
        original(self, heat_keys)

    with DaemonHandle(workspace) as handle:  # fold_interval 30 s: no tick fires
        with handle.client() as client:
            client.init(
                "demo",
                str(workspace / "data.csv"),
                str(workspace / "schema.csv"),
            )
            monkeypatch.setattr(BufferPool, "set_pins", counting)
            for _ in range(5):
                client.checkout("demo", [1], inline=True)
            client.diff("demo", 1, 1)
            client.ping()  # same connection: the diff has been folded
            assert handle.daemon.heat.events_total == 7
            assert set_pins_calls == []
            handle.daemon._housekeeping_tick()
            assert set_pins_calls == [frozenset({"demo", "demo:p0"})]
            assert get_pool().pins == {"demo", "demo:p0"}
