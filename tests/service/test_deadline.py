"""Deadline propagation end to end: context stamping, server-side
admission + queue-boundary shedding with its own accounting, and the
client retry loop honoring the *total* elapsed budget."""

import threading
import time

import pytest

from repro import telemetry
from repro.service.client import (
    ServiceBusyError,
    ServiceClient,
    ServiceDeadlineError,
)
from repro.service.scheduler import (
    DeadlineExceededError,
    RequestScheduler,
)
from repro.service.tracing import RequestTrace, new_trace_context

from tests.service.conftest import seed_dataset


class TestTraceDeadline:
    def test_context_carries_the_budget(self):
        context = new_trace_context(deadline_ms=250)
        assert context["deadline_ms"] == 250.0

    def test_no_budget_means_no_key(self):
        assert "deadline_ms" not in new_trace_context()
        assert "deadline_ms" not in new_trace_context(deadline_ms=0)

    def test_request_trace_anchors_and_expires(self):
        rtrace = RequestTrace(
            "checkout", trace={"deadline_ms": 50.0}
        )
        assert rtrace.deadline_ms == 50.0
        assert not rtrace.expired(now=rtrace.t0 + 0.049)
        assert rtrace.expired(now=rtrace.t0 + 0.051)

    def test_garbage_deadline_ignored(self):
        rtrace = RequestTrace("checkout", trace={"deadline_ms": "soon"})
        assert rtrace.deadline_at is None
        assert not rtrace.expired()


class TestSchedulerShedding:
    def test_expired_read_is_shed_not_run(self):
        scheduler = RequestScheduler(workers=1)
        scheduler.start()
        try:
            ran = []
            job = scheduler.submit_read(
                lambda: ran.append(True),
                deadline=telemetry.monotonic() - 0.01,
            )
            with pytest.raises(DeadlineExceededError):
                job.wait(timeout=10)
            assert not ran, "an expired job must never execute"
            assert scheduler.deadline_shed == 1
            assert scheduler.status()["deadline_shed"] == 1
        finally:
            scheduler.stop()

    def test_expired_write_releases_per_cvd_depth(self):
        """A deadline-shed write must release its per-CVD share, or the
        dataset would answer BUSY forever."""
        scheduler = RequestScheduler(workers=1, write_queue_depth=2)
        scheduler.start()
        try:
            shed = scheduler.submit_write(
                lambda: None,
                dataset="inter",
                deadline=telemetry.monotonic() - 0.01,
            )
            with pytest.raises(DeadlineExceededError):
                shed.wait(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    ok = scheduler.submit_write(lambda: 42, dataset="inter")
                    break
                except Exception:
                    time.sleep(0.01)
            else:
                pytest.fail("per-CVD depth leaked after a deadline shed")
            assert ok.wait(timeout=10) == 42
        finally:
            scheduler.stop()

    def test_unexpired_jobs_run_normally(self):
        scheduler = RequestScheduler(workers=1)
        scheduler.start()
        try:
            job = scheduler.submit_read(
                lambda: "fine", deadline=telemetry.monotonic() + 60
            )
            assert job.wait(timeout=10) == "fine"
            assert scheduler.deadline_shed == 0
        finally:
            scheduler.stop()


class TestDaemonDeadline:
    def test_queued_request_behind_slow_writer_is_shed(
        self, workspace, daemon_factory, tmp_path
    ):
        """A write stuck behind a slow one expires in the queue and is
        answered ``deadline_exceeded`` — with the dedicated counter
        bumped, not errors_total (shedding is load policy, not
        failure)."""
        from repro.resilience import failpoints

        seed_dataset(workspace)
        handle = daemon_factory(workers=2)
        with handle:
            with handle.client() as slow_client, handle.client() as fast:
                work = tmp_path / "w.csv"
                slow_client.checkout("inter", [1], file=str(work))
                # every write sleeps 0.5s at the execute boundary
                failpoints.activate(
                    "worker.before_execute", "delay", arg=0.5
                )
                results = {}

                def slow_commit():
                    try:
                        results["slow"] = slow_client.commit(
                            "inter", file=str(work),
                            message="slow", parents=[1],
                        )
                    except Exception as error:
                        results["slow_error"] = error

                thread = threading.Thread(target=slow_commit)
                thread.start()
                time.sleep(0.15)  # the slow write is now executing
                # 100ms budget, ~500ms queue wait ahead: must be shed
                with pytest.raises(ServiceDeadlineError):
                    fast.request(
                        "commit",
                        dataset="inter", file=str(work),
                        message="hurried", parents=[1],
                        trace=new_trace_context(deadline_ms=100),
                    )
                thread.join(timeout=30)
                failpoints.clear()

                assert "slow" in results, results
                status = fast.stats()
                assert status["requests"]["deadline_exceeded"] >= 1
                # only the slow commit landed
                log = fast.log(dataset="inter")
                assert len(log["versions"]) == 2

    def test_expired_at_admission(self, workspace, daemon_factory):
        """A request arriving already-expired never reaches a queue."""
        seed_dataset(workspace)
        handle = daemon_factory(workers=1)
        with handle:
            with handle.client() as client:
                context = new_trace_context(deadline_ms=1000)
                # shrink the budget to something long past
                context["deadline_ms"] = 0.000001
                with pytest.raises(ServiceDeadlineError):
                    client.request(
                        "checkout",
                        dataset="inter", versions=[1], inline=True,
                        trace=context,
                    )


class TestRetryBudget:
    def _busy_client(self, deadline_ms):
        """A client whose transport always answers BUSY, without a
        daemon: request() is stubbed at the method layer."""
        client = ServiceClient(root=".", deadline_ms=deadline_ms)
        client.request = lambda op, **params: (_ for _ in ()).throw(
            ServiceBusyError("queue full")
        )
        return client

    def test_budget_bounds_total_elapsed_time(self):
        client = self._busy_client(deadline_ms=150)
        t0 = time.monotonic()
        with pytest.raises(ServiceDeadlineError):
            client.request_with_retry(
                "checkout", retries=1000, backoff=0.01,
                dataset="inter", versions=[1],
            )
        elapsed = time.monotonic() - t0
        # generous ceiling: the loop must give up around the budget,
        # never sleep past it, and never exhaust 1000 retries
        assert elapsed < 2.0

    def test_no_budget_falls_back_to_retry_count(self):
        client = self._busy_client(deadline_ms=None)
        with pytest.raises(ServiceBusyError):
            client.request_with_retry(
                "checkout", retries=2, backoff=0.001,
                dataset="inter", versions=[1],
            )

    def test_remaining_budget_is_restamped_per_attempt(self):
        """Each retry carries the *remaining* budget, not the original:
        the server must not honor time the client already spent."""
        seen = []

        client = ServiceClient(root=".", deadline_ms=200)

        def fake_request(op, **params):
            seen.append(params["trace"].get("deadline_ms"))
            if len(seen) < 3:
                raise ServiceBusyError("queue full")
            return {"ok": True}

        client.request = fake_request
        assert client.request_with_retry(
            "checkout", retries=5, backoff=0.02, dataset="inter",
        ) == {"ok": True}
        assert len(seen) == 3
        assert all(b is not None for b in seen)
        # monotonically shrinking: each stamp is the remaining budget
        assert seen[0] >= seen[1] >= seen[2]
        assert seen[0] <= 200.0
