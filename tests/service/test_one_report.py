"""orpheusd keeps one set of books: every request outcome is counted once
(in :class:`ServiceMetrics`), the ``status`` and ``stats`` ops and HTTP
``/stats`` return one report, and the doctor's daemon probes classify
that report without double counting."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.observe import doctor
from repro.resilience import failpoints
from repro.service import client as service_client
from repro.service.client import (
    ServiceBusyError,
    ServiceDeadlineError,
    ServiceDegradedError,
    ServiceInternalError,
)
from repro.service.tracing import new_trace_context

from .conftest import seed_dataset


def _commit(client, work, message, **params):
    return client.request(
        "commit", dataset="inter", file=str(work), message=message,
        parents=[1], **params,
    )


def _shed_one_in_the_queue(handle, work, busy_too=False) -> None:
    """A commit that sleeps 0.5 s at the execute boundary, a commit with
    a 100 ms budget queued behind it (shed when dequeued) and, with
    ``busy_too``, a third commit refused BUSY by the per-dataset depth."""
    outcomes: dict = {}

    def run(name, **params):
        with handle.client() as client:
            try:
                outcomes[name] = _commit(client, work, name, **params)
            except Exception as error:
                outcomes[name] = error

    failpoints.activate("worker.before_execute", "delay", arg=0.5, count=1)
    slow = threading.Thread(target=run, args=("slow",))
    slow.start()
    time.sleep(0.15)  # the slow commit is executing
    hurried = threading.Thread(
        target=run, args=("hurried",),
        kwargs={"trace": new_trace_context(deadline_ms=100)},
    )
    hurried.start()
    time.sleep(0.1)  # the hurried commit is queued
    if busy_too:
        with handle.client() as client, pytest.raises(ServiceBusyError):
            _commit(client, work, "refused")
    slow.join(timeout=30)
    hurried.join(timeout=30)
    assert isinstance(outcomes["slow"], dict), outcomes
    assert isinstance(outcomes["hurried"], ServiceDeadlineError), outcomes


def test_one_queue_shed_is_one_deadline_event(
    workspace, daemon_factory, tmp_path, monkeypatch
):
    """A request shed in the queue is one ``deadline_exceeded`` response;
    the scheduler's ``deadline_shed`` is the subset of those shed in a
    queue, never a second count on top."""
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    with daemon_factory(workers=2, per_cvd_depth=2) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], file=str(work))
        _shed_one_in_the_queue(handle, work)
        with handle.client() as client:
            report = client.status()
    assert report["requests"]["deadline_exceeded"] == 1
    assert report["scheduler"]["deadline_shed"] == 1

    # The probe, fed this report as if it came from another process (an
    # in-process daemon would short-circuit it as "this process").
    class _Client:
        def __init__(self, **_kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def status(self):
            return report

    monkeypatch.setattr(
        service_client, "read_status_file", lambda root: {"pid": 1}
    )
    monkeypatch.setattr(service_client, "_pid_alive", lambda pid: True)
    monkeypatch.setattr(service_client, "ServiceClient", _Client)
    result = doctor.probe_service_faults(str(workspace))
    assert result.data["deadline_exceeded"] == 1


def test_status_does_not_queue_behind_a_writer(
    workspace, daemon_factory, tmp_path
):
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    with daemon_factory(workers=2) as handle:
        with handle.client() as writer, handle.client() as watcher:
            writer.checkout("inter", [1], file=str(work))
            failpoints.activate(
                "worker.before_execute", "delay", arg=1.0, count=1
            )
            thread = threading.Thread(
                target=_commit, args=(writer, work, "slow")
            )
            thread.start()
            time.sleep(0.15)  # the commit holds the writer lock, asleep
            started = time.perf_counter()
            status = watcher.status()
            elapsed = time.perf_counter() - started
            thread.join(timeout=30)
    assert elapsed < 0.1, f"status waited {elapsed * 1000:.0f} ms"
    assert status["server"]["name"] == "orpheusd"


def test_status_stats_and_http_stats_return_one_requests_block(
    workspace, daemon_factory, tmp_path
):
    """One BUSY shed, one deadline shed, one degraded refusal and one
    internal worker error, each counted once, and the same block on
    every surface (totals differ only by the reads themselves)."""
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    with daemon_factory(workers=2, per_cvd_depth=2, metrics_port=0) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], file=str(work))
        _shed_one_in_the_queue(handle, work, busy_too=True)
        daemon = handle.daemon
        with handle.client() as client:
            for _ in range(daemon.degrade.threshold):
                daemon.degrade.record_save_failure(RuntimeError("disk"))
            with pytest.raises(ServiceDegradedError):
                _commit(client, work, "while degraded")
            daemon.degrade.record_save_success()
            failpoints.activate("worker.mid_execute", "error", count=1)
            with pytest.raises(ServiceInternalError):
                client.checkout("inter", [1], inline=True)

            status = client.status()
            stats = client.stats()
        address = daemon._metrics_server.address
        deadline = time.monotonic() + 5
        while True:
            with urllib.request.urlopen(f"http://{address}/stats") as reply:
                http = json.load(reply)
            total = http["requests"]["total"]
            if total == stats["requests"]["total"] + 1 or (
                time.monotonic() > deadline
            ):
                break
            time.sleep(0.01)

    requests = status["requests"]
    assert requests["busy"] == 1
    assert requests["deadline_exceeded"] == 1
    assert requests["degraded"] == 1
    assert requests["worker_errors"] == 1
    assert requests["errors"] == 1
    assert stats["requests"] == dict(requests, total=requests["total"] + 1)
    assert http["requests"] == dict(requests, total=requests["total"] + 2)
    assert set(status) == set(stats) == set(http)
