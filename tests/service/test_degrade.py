"""Graceful degradation: the DegradeController / Quarantine units,
then the full daemon lifecycle — enter degraded read-only mode on
repeated save failures, keep serving reads, refuse writes with the
typed status, auto-exit on the housekeeping save probe; and the
poison-request quarantine end to end including the flush op."""

import pytest

from repro.resilience import failpoints
from repro.service.client import (
    ServiceDegradedError,
    ServiceError,
    ServiceInternalError,
)
from repro.service.degrade import (
    MAX_TRACKED_DIGESTS,
    DegradeController,
    DegradedError,
    Quarantine,
    QuarantinedRequestError,
)

from tests.service.conftest import seed_dataset


class TestDegradeController:
    def test_consecutive_failures_below_threshold_stay_writable(self):
        controller = DegradeController(threshold=3)
        assert not controller.record_save_failure(OSError("disk full"))
        assert not controller.record_save_failure(OSError("disk full"))
        assert not controller.degraded
        controller.check_writable()  # no raise

    def test_threshold_consecutive_failures_flip(self):
        controller = DegradeController(threshold=3)
        flipped = [
            controller.record_save_failure(OSError("boom"))
            for _ in range(3)
        ]
        assert flipped == [False, False, True]
        assert controller.degraded
        assert "boom" in controller.cause
        with pytest.raises(DegradedError):
            controller.check_writable()

    def test_interleaved_success_resets_the_count(self):
        controller = DegradeController(threshold=2)
        controller.record_save_failure(OSError("one"))
        controller.record_save_success()
        controller.record_save_failure(OSError("two"))
        assert not controller.degraded  # never 2 *consecutive*

    def test_success_exits_degraded_mode(self):
        controller = DegradeController(threshold=1)
        assert controller.record_save_failure(OSError("gone"))
        assert controller.record_save_success()
        assert not controller.degraded
        assert controller.cause is None
        status = controller.status()
        assert status["entries_total"] == 1
        assert status["exits_total"] == 1

    def test_success_while_healthy_returns_false(self):
        controller = DegradeController()
        assert not controller.record_save_success()


class TestQuarantine:
    def test_strikes_gate_the_refusal(self):
        quarantine = Quarantine(strikes=2)
        quarantine.note_crash("d1", "commit", RuntimeError("x"))
        quarantine.check("d1", "commit")  # one strike: still allowed
        quarantine.note_crash("d1", "commit", RuntimeError("x"))
        with pytest.raises(QuarantinedRequestError) as excinfo:
            quarantine.check("d1", "commit")
        assert excinfo.value.digest == "d1"
        assert "flush-quarantine" in str(excinfo.value)

    def test_distinct_digests_tracked_separately(self):
        quarantine = Quarantine(strikes=2)
        quarantine.note_crash("d1", "commit", RuntimeError("x"))
        quarantine.note_crash("d2", "commit", RuntimeError("x"))
        quarantine.check("d1", "commit")
        quarantine.check("d2", "commit")

    def test_flush_clears_and_counts_quarantined_only(self):
        quarantine = Quarantine(strikes=1)
        quarantine.note_crash("d1", "commit", RuntimeError("x"))
        quarantine2 = Quarantine(strikes=2)
        quarantine2.note_crash("d2", "commit", RuntimeError("x"))
        assert quarantine.flush() == 1
        assert quarantine2.flush() == 0  # tracked but below strikes
        quarantine.check("d1", "commit")  # cleared: allowed again

    def test_tracked_digests_are_bounded(self):
        quarantine = Quarantine(strikes=2)
        for index in range(MAX_TRACKED_DIGESTS + 10):
            quarantine.note_crash(f"d{index}", "run", RuntimeError("x"))
        assert quarantine.status()["tracked"] <= MAX_TRACKED_DIGESTS

    def test_status_surface(self):
        quarantine = Quarantine(strikes=1)
        quarantine.note_crash("d1", "commit", ValueError("why"))
        status = quarantine.status()
        assert status["quarantined"] == 1
        assert status["entries"]["d1"]["op"] == "commit"
        assert "ValueError" in status["entries"]["d1"]["last_error"]


class TestDaemonDegradedMode:
    def test_enter_serve_reads_refuse_writes_then_auto_exit(
        self, workspace, daemon_factory, tmp_path
    ):
        """state.before_save=error@3 fails exactly three saves: three
        doomed commits flip the daemon to degraded, a fourth write is
        refused with the typed status while reads keep answering, and
        the (now healed) save probe exits degraded mode."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=2)
        with handle:
            with handle.client() as client:
                work = tmp_path / "w.csv"
                client.checkout("inter", [1], file=str(work))
                failpoints.activate("state.before_save", "error", count=3)
                # Three *distinct* commits (unique messages -> unique
                # digests) so the quarantine never kicks in first.
                for turn in range(3):
                    with pytest.raises(ServiceInternalError):
                        client.commit(
                            "inter", file=str(work),
                            message=f"doomed {turn}", parents=[1],
                        )
                status = client.stats()
                assert status["degrade"]["degraded"], status["degrade"]
                assert "FailpointError" in status["degrade"]["cause"]

                # writes refuse with the typed degraded status...
                with pytest.raises(ServiceDegradedError) as excinfo:
                    client.commit(
                        "inter", file=str(work),
                        message="while degraded", parents=[1],
                    )
                assert "read-only" in str(excinfo.value)
                # ...while reads keep flowing
                data = client.checkout("inter", [1], inline=True)
                assert data["rows"] == 3

                # the refusal was counted on its dedicated counter
                status = client.stats()
                assert status["requests"]["degraded"] >= 1

                # the fault disarmed after 3 firings; the housekeeping
                # probe's save now succeeds and heals the daemon
                handle.daemon._probe_degraded()
                status = client.stats()
                assert not status["degrade"]["degraded"]
                assert status["degrade"]["exits_total"] == 1

                result = client.commit(
                    "inter", file=str(work),
                    message="after healing", parents=[1],
                )
                assert result["version"] == 2

                # no doomed commit was acknowledged, none is in the log
                log = client.log(dataset="inter")
                assert [v["vid"] for v in log["versions"]] == [1, 2]

    def test_top_once_names_degraded_mode_and_its_cause(
        self, workspace, daemon_factory, tmp_path, capsys
    ):
        """``orpheus top --once`` is the human view of a degraded daemon:
        the doctor's verdicts name the mode, the failing save's cause
        and the worker-error rate, and the frame counts the worker
        errors the doomed commits answered with."""
        from repro.cli import main

        seed_dataset(workspace)
        with daemon_factory(workers=2) as handle:
            with handle.client() as client:
                work = tmp_path / "w.csv"
                client.checkout("inter", [1], file=str(work))
                failpoints.activate("state.before_save", "error", count=3)
                for turn in range(3):
                    with pytest.raises(ServiceInternalError):
                        client.commit(
                            "inter", file=str(work),
                            message=f"doomed {turn}", parents=[1],
                        )
            capsys.readouterr()
            assert main(["--root", str(workspace), "top", "--once"]) == 0
            frame = capsys.readouterr().out.splitlines()
        degraded, errors = [
            line for line in frame if line.startswith("[WARN]")
        ]
        assert degraded.startswith(
            "[WARN] service_health[degraded] degraded read-only mode "
            "(FailpointError"
        )
        assert "state.before_save" in degraded
        assert errors.startswith(
            "[WARN] service_health[worker_errors] worker-error rate "
        )
        assert any(
            line.startswith("failures: 3 worker error(s), ") for line in frame
        ), frame

    def test_a_nacked_commit_takes_its_memo_entries_with_it(
        self, workspace, daemon_factory, tmp_path
    ):
        """The CVD's version -> rids / rid -> payload memo lives on the
        state object, so re-anchoring to the last durable save drops what
        the doomed commit published into it, rid counter included."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=2)
        with handle, handle.client() as client:
            work = tmp_path / "w.csv"
            client.checkout("inter", [1], file=str(work))
            with open(work, "a", newline="") as out:
                out.write("k9,9\r\n")
            doomed_on = handle.daemon.orpheus.cvd("inter")
            failpoints.activate("state.before_save", "error", count=1)
            with pytest.raises(ServiceInternalError):
                client.commit("inter", file=str(work), message="doomed", parents=[1])
            assert 2 in doomed_on._membership  # it had been published...

            cvd = handle.daemon.orpheus.cvd("inter")
            assert cvd is not doomed_on  # ...on the state that was dropped
            assert cvd._membership == {} and cvd._payloads == {}
            kept = client.commit("inter", file=str(work), message="kept", parents=[1])
            assert kept["version"] == 2
            (new,) = set(cvd.membership(2)).difference(cvd.membership(1))
            assert new == cvd.num_records == 4
            assert cvd.payload_of(new) == ("k9", 9)

    def test_degraded_write_does_not_count_as_save_failure(
        self, workspace, daemon_factory, tmp_path
    ):
        """Refused-while-degraded writes never reach the save path, so
        they cannot deepen the failure count."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=1)
        with handle:
            handle.daemon.degrade = DegradeController(threshold=1)
            handle.daemon.degrade.record_save_failure(OSError("gone"))
            with handle.client() as client:
                work = tmp_path / "w.csv"
                client.checkout("inter", [1], file=str(work))
                with pytest.raises(ServiceDegradedError):
                    client.commit("inter", file=str(work), parents=[1])
            status = handle.daemon.degrade.status()
            assert status["save_failures_total"] == 1


class TestDaemonQuarantine:
    def test_repeat_crasher_quarantined_then_flushed(
        self, workspace, daemon_factory
    ):
        """The same request crashing its worker twice is refused on the
        third try; flush-quarantine clears it; with the fault gone the
        request succeeds."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=2)
        with handle:
            with handle.client() as client:
                failpoints.activate("worker.mid_execute", "error")
                for _ in range(2):
                    with pytest.raises(ServiceInternalError):
                        client.checkout("inter", [1], inline=True)
                # third identical request: refused pre-dispatch, typed
                # as a *user* error (fix the request / flush)
                with pytest.raises(ServiceError) as excinfo:
                    client.checkout("inter", [1], inline=True)
                assert "quarantined" in str(excinfo.value)
                assert not isinstance(excinfo.value, ServiceInternalError)

                # the quarantine outlives the fault: even with the
                # injection disarmed, the poisoned digest stays refused
                failpoints.deactivate("worker.mid_execute")
                with pytest.raises(ServiceError, match="quarantined"):
                    client.checkout("inter", [1], inline=True)

                status = client.stats()
                assert status["quarantine"]["quarantined"] == 1
                assert status["requests"]["worker_errors"] == 2

                # a *different* request was never affected
                assert client.ls()

                assert client.flush_quarantine() == 1
                data = client.checkout("inter", [1], inline=True)
                assert data["rows"] == 3

    def test_user_errors_never_quarantine(self, workspace, daemon_factory):
        """A bad request (unknown dataset) is the client's fault: typed
        ``user``, no worker_errors counted, never quarantined."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=1)
        with handle:
            with handle.client() as client:
                for _ in range(4):
                    with pytest.raises(ServiceError) as excinfo:
                        client.checkout("nope", [1], inline=True)
                    assert not isinstance(
                        excinfo.value, ServiceInternalError
                    )
                status = client.stats()
                assert status["requests"]["worker_errors"] == 0
                assert status["quarantine"]["quarantined"] == 0
