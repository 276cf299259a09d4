"""End-to-end daemon tests over a real Unix socket: lifecycle,
handshake, caching, durability bracket, journaling, load shedding,
and the doctor probe."""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.observe.doctor import Checkup, run_probe
from repro.observe.journal import Journal
from repro.resilience import failpoints
from repro.resilience.lock import LockTimeoutError, RepositoryLock
from repro.service.client import (
    ServiceBusyError,
    ServiceDeniedError,
    ServiceError,
    ServiceShutdownError,
)
from repro.service.daemon import ServiceConfig, ServiceDaemon
from repro.service.status import daemon_running, read_status_file

from tests.service.conftest import seed_dataset


class TestLifecycle:
    def test_start_serves_and_shutdown_cleans_up(self, workspace, daemon_factory):
        seed_dataset(workspace)
        handle = daemon_factory()
        with handle:
            assert daemon_running(str(workspace))
            status = read_status_file(str(workspace))
            assert status["pid"] == os.getpid()
            assert Path(status["socket"]).exists()
            with handle.client() as client:
                assert client.ping()
                listing = client.ls()
                assert listing[0]["dataset"] == "inter"
        # graceful shutdown removes socket + status file
        assert not Path(status["socket"]).exists()
        assert read_status_file(str(workspace)) is None

    def test_daemon_owns_the_repository_lock(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory():
            with pytest.raises(LockTimeoutError, match="serve"):
                RepositoryLock(
                    str(workspace), shared=False, timeout=0.2, command="commit"
                ).acquire()
        # released after shutdown
        RepositoryLock(str(workspace), shared=False, timeout=2).acquire().release()

    def test_status_op_reports_shape(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                status = client.status()
        assert status["server"]["name"] == "orpheusd"
        assert status["server"]["datasets"] == 1
        for key in ("scheduler", "cache", "sessions", "requests"):
            assert key in status

    def test_drain_finishes_beside_an_unwritable_leftover(self, workspace):
        """A ``telemetry.json`` that can be neither read nor written
        (here: a directory) does not stop a drain: ``shutdown()``
        returns, the socket and ``service.json`` are gone, the daemon is
        stopped and the repository lock is free."""
        seed_dataset(workspace)
        leftover = workspace / ".orpheus" / "telemetry.json"
        leftover.unlink(missing_ok=True)  # a folding release wrote one
        leftover.mkdir()
        daemon = ServiceDaemon(ServiceConfig(root=str(workspace)))
        daemon.start()
        socket_path = Path(daemon.config.resolved_socket())
        assert socket_path.exists()
        daemon.shutdown()
        assert daemon._stopped.is_set()
        assert not socket_path.exists()
        assert read_status_file(str(workspace)) is None
        RepositoryLock(str(workspace), shared=False, timeout=2).acquire().release()

    def test_shutdown_op_drains(self, workspace, daemon_factory):
        seed_dataset(workspace)
        handle = daemon_factory()
        with handle:
            with handle.client() as client:
                client.request("shutdown")
                # wait for the drain to take effect, then further
                # commands fail with shutdown/closed-connection errors
                assert handle.daemon._stopped.wait(10)
                with pytest.raises((ServiceShutdownError, ServiceError)):
                    client.ls()


class TestHandshake:
    def test_unknown_user_denied(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with pytest.raises(ServiceDeniedError, match="unknown user"):
                handle.client(user="mallory").connect()

    def test_registered_user_identity_sticks(self, workspace, daemon_factory):
        from repro.cli import main

        seed_dataset(workspace)
        assert main(["--root", str(workspace), "create_user", "alice"]) == 0
        with daemon_factory() as handle:
            with handle.client(user="alice") as client:
                assert client.whoami()["user"] == "alice"
            with handle.client() as anonymous:
                assert anonymous.whoami()["anonymous"] is True

    def test_protocol_mismatch_denied(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory():
            # Bypass connect()'s handshake to send a wrong version.
            import socket as socketlib

            from repro.service import protocol as proto

            status = read_status_file(str(workspace))
            sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            sock.connect(status["socket"])
            channel = proto.LineChannel(sock)
            channel.send({"op": "hello", "protocol": 999, "id": 1})
            response = proto.decode_response(channel.recv_line())
            assert response.status == proto.DENIED
            channel.close()

    def test_first_op_must_be_hello(self, workspace, daemon_factory):
        import socket as socketlib

        from repro.service import protocol as proto

        seed_dataset(workspace)
        with daemon_factory():
            status = read_status_file(str(workspace))
            sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            sock.connect(status["socket"])
            channel = proto.LineChannel(sock)
            channel.send({"op": "ls", "id": 1})
            response = proto.decode_response(channel.recv_line())
            assert response.status == proto.DENIED
            channel.close()


class TestCaching:
    def test_cold_then_hot_then_committed_head_is_hot(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                cold = client.checkout("inter", [1], inline=True)
                assert cold["cached"] is False
                hot = client.checkout("inter", [1], inline=True)
                assert hot["cached"] is True
                assert hot["data"] == cold["data"]

                # a commit evicts nothing and admits its own version
                work = tmp_path / "work.csv"
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                result = client.commit("inter", file=str(work), message="add k4")
                assert result["version"] == 2
                assert client.checkout("inter", [1], inline=True)["cached"] is True
                head = client.checkout("inter", [2], inline=True)
                assert head["cached"] is True
                assert head["data"] == cold["data"] + [["k4", 4]]
                assert client.status()["cache"]["invalidations"] == 0

                # a drop evicts the dataset: its name and vids may return
                client.drop("inter")
                client.init("inter", str(work), str(workspace / "schema.csv"))
                again = client.checkout("inter", [1], inline=True)
                assert again["cached"] is False
                assert again["data"] == head["data"]
                assert client.status()["cache"]["invalidations"] == 1

    def test_flush_cache(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)
                assert client.flush_cache() == 1
                assert client.checkout("inter", [1], inline=True)["cached"] is False


class TestDurability:
    def test_commit_survives_daemon_restart(self, workspace, daemon_factory, tmp_path):
        seed_dataset(workspace)
        work = tmp_path / "work.csv"
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                assert client.commit("inter", file=str(work))["version"] == 2
        # fresh daemon over the same repository sees the version
        with daemon_factory() as handle:
            with handle.client() as client:
                log = client.log(dataset="inter")
                assert [v["vid"] for v in log["versions"]] == [1, 2]

    def test_checkout_pin_supplies_commit_parents(self, workspace, daemon_factory, tmp_path):
        seed_dataset(workspace)
        work = tmp_path / "work.csv"
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                client.commit("inter", file=str(work))
                log = client.log(dataset="inter")
                assert log["versions"][1]["parents"] == [1]

    def test_explicit_parents_override_pin(self, workspace, daemon_factory, tmp_path):
        seed_dataset(workspace)
        work = tmp_path / "w.csv"
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                client.commit("inter", file=str(work))
                # branch from v1 explicitly
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k5,5\n")
                branched = client.commit(
                    "inter", file=str(work), parents=[1]
                )
                log = client.log(dataset="inter")
                by_vid = {v["vid"]: v for v in log["versions"]}
                assert by_vid[branched["version"]]["parents"] == [1]

    def test_failed_write_journals_error_and_completes_intent(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                with pytest.raises(ServiceError):
                    client.drop("no_such_dataset")
        records = Journal(str(workspace)).read()
        failed = [r for r in records if r.get("status") == "error"]
        assert failed and failed[-1]["command"] == "drop"
        assert Journal(str(workspace)).pending() == []


class TestJournalUniformity:
    def test_remote_diff_run_and_checkout_journal(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        work = tmp_path / "work.csv"
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                client.commit("inter", file=str(work), message="second")
                client.diff("inter", 1, 2)
                client.run("SELECT key FROM VERSION 2 OF CVD inter")
        commands = [r["command"] for r in Journal(str(workspace)).read()]
        # init (CLI seed), then the daemon's checkout/commit/diff/run
        assert commands == ["init", "checkout", "commit", "diff", "run"]
        by_command = {r["command"]: r for r in Journal(str(workspace)).read()}
        assert by_command["diff"]["input_versions"] == [1, 2]
        assert by_command["run"]["rows"] == 4
        assert by_command["checkout"]["input_versions"] == [1]

    def test_inline_cached_checkouts_do_not_journal(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)
                client.checkout("inter", [1], inline=True)
        commands = [r["command"] for r in Journal(str(workspace)).read()]
        assert commands == ["init"]


class TestLoadShedding:
    def test_busy_then_retry_succeeds(self, workspace, daemon_factory, tmp_path):
        seed_dataset(workspace)
        handle = daemon_factory(
            workers=1, read_queue_depth=1, write_queue_depth=1, per_cvd_depth=1
        )
        with handle:
            # Slow every file-writing checkout so queues actually fill.
            failpoints.activate("csv.mid_write", "delay", 0.25)
            clients = [handle.client().connect() for _ in range(4)]
            try:
                shed = []
                threads = []

                def fire(index):
                    try:
                        clients[index].checkout(
                            "inter", [1],
                            file=str(tmp_path / f"out{index}.csv"),
                        )
                    except ServiceBusyError:
                        shed.append(index)

                for index in range(4):
                    thread = threading.Thread(target=fire, args=(index,))
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join(timeout=15)
                assert shed, "expected at least one BUSY under saturation"
                failpoints.clear()
                # the polite client retries through the pressure
                data = clients[0].request_with_retry(
                    "checkout", dataset="inter", versions=[1], inline=True
                )
                assert data["rows"] == 3
                status = clients[0].status()
                assert status["requests"]["busy"] >= 1
            finally:
                for client in clients:
                    client.close()


class TestDoctorProbe:
    def test_healthy_daemon_probes_ok(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                client.checkout("inter", [1], inline=True)
            # The daemon's doctor judges the daemon's own report.
            (result,) = run_probe("service_health", Checkup(
                root=str(workspace), report=handle.daemon.stats_payload()
            ))
            assert result.severity == "ok", result.summary
            assert result.data["pid"] == os.getpid()

    def test_no_daemon_is_ok(self, workspace):
        seed_dataset(workspace)
        (result,) = run_probe("service_health", Checkup(root=str(workspace)))
        assert result.severity == "ok"
        assert "not running" in result.summary

    def test_stale_status_file_warns(self, workspace):
        seed_dataset(workspace)
        status_path = workspace / ".orpheus" / "service.json"
        status_path.write_text(
            '{"pid": 999999999, "socket": "/tmp/nope.sock"}'
        )
        (result,) = run_probe("service_health", Checkup(root=str(workspace)))
        assert result.severity == "warn"
        assert "dead" in result.summary

    def test_a_status_file_naming_a_live_pid_is_stale_too(self, workspace):
        """The CLI doctor holds the repository lock no daemon shares, so
        a leftover ``service.json`` is stale whatever pid it names."""
        seed_dataset(workspace)
        status_path = workspace / ".orpheus" / "service.json"
        status_path.write_text(json.dumps({"pid": os.getpid()}))
        (result,) = run_probe("service_health", Checkup(root=str(workspace)))
        assert result.severity == "warn"
        assert "service.json" in result.remediation

    @staticmethod
    def _faults(client) -> dict:
        probes = {p["probe"]: p for p in client.doctor()["probes"]}
        return probes["service_faults"]

    def test_remote_doctor_sees_degraded_mode(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle, handle.client() as client:
            degrade = handle.daemon.degrade
            for _ in range(degrade.threshold):
                degrade.record_save_failure(RuntimeError("disk full"))
            faults = self._faults(client)
        assert faults["severity"] == "warn"
        assert "degraded read-only mode" in faults["summary"]
        assert "disk full" in faults["summary"]
        assert faults["data"]["degrade"]["degraded"] is True

    def test_remote_doctor_sees_a_quarantined_digest(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle, handle.client() as client:
            strikes = handle.daemon.quarantine.strikes
            failpoints.activate("worker.mid_execute", "error", count=strikes)
            for _ in range(strikes):
                with pytest.raises(ServiceError):
                    client.checkout("inter", [1], inline=True)
            faults = self._faults(client)
        assert faults["severity"] == "warn"
        assert "1 request digest(s) quarantined" in faults["summary"]
        assert "flush-quarantine" in faults["remediation"]

    def test_remote_doctor_sees_worker_errors_over_budget(
        self, workspace, daemon_factory
    ):
        seed_dataset(workspace)
        with daemon_factory() as handle, handle.client() as client:
            failpoints.activate("worker.mid_execute", "error", count=1)
            with pytest.raises(ServiceError):
                client.checkout("inter", [1], inline=True)
            faults = self._faults(client)
        assert faults["severity"] == "warn"
        assert "worker-error rate" in faults["summary"]
        assert faults["data"]["worker_errors"] == 1

    def test_remote_doctor_runs_clean(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory() as handle:
            with handle.client() as client:
                report = client.doctor()
        assert report["severity"] in ("ok", "warn")
        probes = {p["probe"] for p in report["probes"]}
        assert "service_health" in probes


class TestSecondDaemonRefused:
    def test_lock_prevents_two_daemons(self, workspace, daemon_factory):
        seed_dataset(workspace)
        with daemon_factory():
            os.environ["ORPHEUS_LOCK_TIMEOUT"] = "0.2"
            try:
                second = daemon_factory()
                with pytest.raises(LockTimeoutError):
                    second.daemon.start()
            finally:
                os.environ.pop("ORPHEUS_LOCK_TIMEOUT", None)
