"""Multi-client workloads against one daemon: the ISSUE's acceptance
scenario (8 clients, zero lost commits, cache hit-rate, BUSY shedding)
and a real-process kill-mid-commit recovered on restart."""

import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.observe.journal import Journal
from repro.pagestore.store import orphan_pages
from repro.resilience import failpoints
from repro.resilience.statestore import LAYOUT_ENV, MAGIC, MAGIC2, StateStore
from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)

from tests.service.conftest import (
    SUBPROCESS_TIMEOUT,
    assert_healthy_on_disk,
    seed_dataset,
    spawn_daemon_subprocess,
)


class TestMixedWorkload:
    def test_eight_clients_no_lost_updates(self, workspace, daemon_factory, tmp_path):
        """6 readers + 2 writers, >=200 requests: commits are totally
        ordered with unique versions, reads are never torn, the cache
        serves a majority of the hot reads."""
        seed_dataset(workspace, name="hot")   # read-mostly dataset
        seed_dataset(workspace, name="inter")  # write-target dataset
        handle = daemon_factory(workers=4)
        reads_per_reader = 32
        commits_per_writer = 6
        committed = []  # (writer, vid) in response order
        errors = []

        with handle:
            def reader(index):
                try:
                    with handle.client() as client:
                        for _ in range(reads_per_reader):
                            data = client.request_with_retry(
                                "checkout",
                                dataset="hot", versions=[1], inline=True,
                            )
                            # torn-read check: v1 is immutable, always 3 rows
                            if data["rows"] != 3 or len(data["data"]) != 3:
                                errors.append(
                                    f"reader {index} saw torn checkout: {data}"
                                )
                except Exception as error:
                    errors.append(f"reader {index}: {error!r}")

            def writer(index):
                try:
                    with handle.client() as client:
                        for turn in range(commits_per_writer):
                            work = tmp_path / f"w{index}-{turn}.csv"
                            client.request_with_retry(
                                "checkout",
                                dataset="inter", versions=[1],
                                file=str(work), retries=8,
                            )
                            work.write_text(
                                work.read_text()
                                + f"w{index}t{turn},{index * 100 + turn}\n"
                            )
                            result = client.request_with_retry(
                                "commit",
                                dataset="inter", file=str(work),
                                message=f"writer {index} turn {turn}",
                                parents=[1], retries=8,
                            )
                            committed.append((index, result["version"]))
                except Exception as error:
                    errors.append(f"writer {index}: {error!r}")

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(6)
            ] + [
                threading.Thread(target=writer, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "workload thread hung"

            assert not errors, errors

            with handle.client() as client:
                status = client.stats()
                log = client.log(dataset="inter")

            total_requests = status["requests"]["total"]
            assert total_requests >= 200, total_requests

            # zero lost commits: every acknowledged vid is unique and
            # present in the version graph
            vids = [vid for _, vid in committed]
            assert len(vids) == 2 * commits_per_writer
            assert len(set(vids)) == len(vids), "duplicate vid: lost update"
            graph_vids = {v["vid"] for v in log["versions"]}
            assert set(vids) <= graph_vids

            # the hot dataset was never invalidated; after each reader's
            # first miss everything is a hit => well above 50%
            cache = status["cache"]
            assert cache["hit_rate"] >= 0.5, cache

        # journal agrees: one ok commit record per acknowledged commit
        records = Journal(str(workspace)).read()
        commit_records = [
            r for r in records
            if r["command"] == "commit" and r["status"] == "ok"
        ]
        assert len(commit_records) == len(vids)
        assert sorted(r["output_version"] for r in commit_records) == sorted(vids)

    def test_busy_shedding_under_writer_storm(self, workspace, daemon_factory, tmp_path):
        """A commit storm against a depth-1 writer queue sheds with BUSY
        rather than queueing unboundedly; shed commits did not run."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=2, write_queue_depth=1)
        with handle:
            # Stage the working files first, then release every commit
            # simultaneously with the journal fsync slowed — the depth-1
            # writer queue must shed the burst.
            clients = [handle.client().connect() for _ in range(6)]
            for index, client in enumerate(clients):
                work = tmp_path / f"storm{index}.csv"
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + f"s{index},{index}\n")
            failpoints.activate("journal.before_append", "delay", 0.2)
            barrier = threading.Barrier(6, timeout=30)
            busy = []
            succeeded = []

            def storm(index):
                try:
                    barrier.wait()
                    succeeded.append(
                        clients[index].commit(
                            "inter",
                            file=str(tmp_path / f"storm{index}.csv"),
                            parents=[1],
                        )["version"]
                    )
                except ServiceBusyError:
                    busy.append(index)

            threads = [
                threading.Thread(target=storm, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            failpoints.clear()
            for client in clients:
                client.close()
            assert busy, "expected BUSY responses under the storm"
            assert succeeded, "some commits must still land"
            with handle.client() as client:
                log = client.log(dataset="inter")
                status = client.stats()
            assert status["requests"]["busy"] >= len(busy)
            # shed commits truly did not execute
            assert len(log["versions"]) == 1 + len(succeeded)


class TestKillMidCommit:
    def test_daemon_killed_mid_commit_recovers_on_restart(
        self, workspace, tmp_path
    ):
        """A real daemon process dies at statestore.before_replace while
        committing; the repository is torn (pending intent, no state
        write) and the next daemon start runs recovery clean."""
        seed_dataset(workspace)
        proc = spawn_daemon_subprocess(
            workspace,
            failpoints_spec="statestore.before_replace=crash",
        )
        try:
            from repro.service.client import ServiceClient

            work = tmp_path / "doomed.csv"
            with pytest.raises((ServiceError, ServiceUnavailableError)):
                with ServiceClient(root=str(workspace), timeout=30) as client:
                    client.checkout("inter", [1], file=str(work))
                    work.write_text(work.read_text() + "k4,4\n")
                    client.commit("inter", file=str(work), message="doomed")
            assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 86  # crash exit
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=SUBPROCESS_TIMEOUT)

        # the crash left a torn operation and a stale status file behind
        assert Journal(str(workspace)).pending(), "expected a torn operation"
        assert (Path(workspace) / ".orpheus" / "service.json").exists()

        # restart: startup recovery must clean the torn op, and the
        # stale socket/status file are replaced
        proc = spawn_daemon_subprocess(workspace)
        try:
            from repro.service.client import ServiceClient

            with ServiceClient(root=str(workspace), timeout=30) as client:
                log = client.log(dataset="inter")
                # the doomed commit never became durable
                assert [v["vid"] for v in log["versions"]] == [1]
                report = client.doctor()
            assert Journal(str(workspace)).pending() == []
            probe_names = {
                p["probe"]: p["severity"] for p in report["probes"]
            }
            assert probe_names["pending_intents"] == "ok"
        finally:
            proc.terminate()
            assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0  # graceful drain
        assert not (Path(workspace) / ".orpheus" / "service.json").exists()

    @pytest.mark.parametrize("during", ["commit", "drain"])
    @pytest.mark.parametrize(
        "site, upgraded",
        [
            ("pagestore.after_page_write", False),
            ("statestore.after_replace", True),
        ],
    )
    def test_daemon_killed_in_its_upgrading_save_recovers_on_restart(
        self, workspace, tmp_path, monkeypatch, site, upgraded, during
    ):
        """The daemon's first save upgrades a pickle repository to the
        paged layout: a commit's, or, when it served no write, the
        drain's. Killed inside it, the repository restarts either still
        pickle or paged, with no orphan pages either way; the doctor is
        green, every acknowledged commit reads back identically and the
        commit can be retried."""
        monkeypatch.delenv(LAYOUT_ENV, raising=False)
        seed_dataset(workspace)
        work = tmp_path / "work.csv"
        root = str(workspace)
        assert main(["--root", root, "checkout", "-d", "inter", "-v", "1",
                     "-f", str(work)]) == 0
        work.write_text(work.read_text() + "k4,4\n")
        assert main(["--root", root, "commit", "-d", "inter", "-f", str(work),
                     "-m", "acked"]) == 0

        def read_back() -> dict:
            orpheus, _info = StateStore(root).load(warn=None)
            cvd = orpheus.cvd("inter")
            return {vid: sorted(cvd.checkout(vid).rows) for vid in (1, 2)}

        acked = read_back()
        state = workspace / ".orpheus" / "state.pkl"
        assert state.read_bytes().startswith(MAGIC)

        work.write_text(work.read_text() + "k5,5\n")
        proc = spawn_daemon_subprocess(workspace, failpoints_spec=f"{site}=crash")
        try:
            if during == "commit":
                with pytest.raises((ServiceError, ServiceUnavailableError)):
                    with ServiceClient(root=root, timeout=30) as client:
                        client.commit("inter", file=str(work), parents=[2])
            else:
                proc.terminate()
            assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 86
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=SUBPROCESS_TIMEOUT)
        assert Journal(root).pending()
        # What the kill left: page files no state names, or a paged
        # state already in place.
        assert state.read_bytes().startswith(MAGIC2 if upgraded else MAGIC)
        assert bool(orphan_pages(workspace)) != upgraded

        proc = spawn_daemon_subprocess(workspace)
        try:
            # Startup recovery has run; nothing has saved since.
            assert state.read_bytes().startswith(MAGIC2 if upgraded else MAGIC)
            assert orphan_pages(workspace) == []
            with ServiceClient(root=root, timeout=30) as client:
                probes = {p["probe"]: p["severity"] for p in client.doctor()["probes"]}
                assert probes["pending_intents"] == "ok", probes
                assert probes["page_store_health"] == "ok", probes
                retried = client.commit("inter", file=str(work), parents=[2])
                # Only a killed commit whose state swap landed made v3.
                landed = during == "commit" and upgraded
                assert retried["version"] == (4 if landed else 3)
        finally:
            proc.terminate()
            assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0
        assert state.read_bytes().startswith(MAGIC2)
        assert read_back() == acked
        assert_healthy_on_disk(workspace)

    def test_cli_recover_cleans_after_daemon_crash(self, workspace, tmp_path):
        """`orpheus recover` (no daemon) also repairs the torn state."""
        from tests.resilience.conftest import run_cli

        seed_dataset(workspace)
        proc = spawn_daemon_subprocess(
            workspace,
            failpoints_spec="statestore.before_replace=crash",
        )
        try:
            from repro.service.client import ServiceClient

            work = tmp_path / "doomed.csv"
            with pytest.raises((ServiceError, ServiceUnavailableError)):
                with ServiceClient(root=str(workspace), timeout=30) as client:
                    client.checkout("inter", [1], file=str(work))
                    work.write_text(work.read_text() + "k4,4\n")
                    client.commit("inter", file=str(work))
            proc.wait(timeout=SUBPROCESS_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=SUBPROCESS_TIMEOUT)
        assert Journal(str(workspace)).pending()
        result = run_cli(workspace, "recover")
        assert result.returncode == 0, result.stderr
        assert Journal(str(workspace)).pending() == []
