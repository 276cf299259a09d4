"""orpheusd keeps one set of books: every request outcome is counted once
(in :class:`ServiceMetrics`), the ``stats`` op and HTTP ``/stats`` return
one report, and the doctor's judge classifies that report without
double counting."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.observe import doctor
from repro.resilience import failpoints
from repro.service import daemon as daemon_module
from repro.service.client import (
    ServiceBusyError,
    ServiceDeadlineError,
    ServiceDegradedError,
    ServiceError,
    ServiceInternalError,
)
from repro.service.recorder import flight_dir_path, read_flight
from repro.service.tracing import new_trace_context

from ..test_one_of_each import LEDGER_ONLY
from .conftest import await_ledger, seed_dataset


def _await(condition, what: str, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail the test, never hang,
    once ``timeout`` seconds pass without it."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.002)


def _await_delayed_execute() -> None:
    """Wait until a commit armed with ``worker.before_execute=delay``
    is inside its delay: the site counts a firing before it sleeps, and
    the writer holds the write lock while it executes."""
    _await(
        lambda: failpoints.stats()["fired"].get("worker.before_execute", 0) >= 1,
        "the delayed commit to reach its delay",
    )


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
    _await_delayed_execute()
    hurried = threading.Thread(
        target=run, args=("hurried",),
        kwargs={"trace": new_trace_context(deadline_ms=100)},
    )
    hurried.start()
    _await(  # the slow commit left the queue: this is the hurried one
        lambda: handle.daemon.scheduler.status()["write_queue_depth"] >= 1,
        "the hurried commit to queue",
    )
    if busy_too:
        with handle.client() as client, pytest.raises(ServiceBusyError):
            _commit(client, work, "refused")
    slow.join(timeout=30)
    hurried.join(timeout=30)
    assert isinstance(outcomes["slow"], dict), outcomes
    assert isinstance(outcomes["hurried"], ServiceDeadlineError), outcomes


def test_one_queue_shed_is_one_deadline_event(
    workspace, daemon_factory, tmp_path
):
    """A request shed in the queue is one ``deadline_exceeded`` response;
    the scheduler's ``deadline_shed`` is the subset of those shed in a
    queue, never a second count on top."""
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    with daemon_factory(workers=2, write_queue_depth=4) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], file=str(work))
        _shed_one_in_the_queue(handle, work)
        await_ledger(  # both commits: the one that ran, the one shed
            handle,
            lambda metrics: "commit" in metrics.by_op
            and metrics.by_op["commit"].count == 2,
        )
        with handle.client() as client:
            report = client.stats()
    assert report["requests"]["deadline_exceeded"] == 1
    assert report["scheduler"]["deadline_shed"] == 1

    # The judge reads this very report, as the daemon hands it over:
    # one deadline event, once.
    (result,) = [
        verdict for verdict in doctor.judge_report(report)
        if verdict.probe == "service_health[deadline_exceeded]"
    ]
    pct = 100.0 / report["requests"]["total"]
    assert result.summary.startswith(f"deadline-shed rate {pct:.1f}% ")


def test_stats_does_not_queue_behind_a_writer(
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
            _await_delayed_execute()  # it holds the writer lock, asleep
            started = time.perf_counter()
            stats = watcher.stats()
            elapsed = time.perf_counter() - started
            thread.join(timeout=30)
    assert elapsed < 0.1, f"stats waited {elapsed * 1000:.0f} ms"
    assert stats["server"]["name"] == "orpheusd"


def test_stats_and_http_stats_return_one_requests_block(
    workspace, daemon_factory, tmp_path
):
    """One BUSY shed, one deadline shed, one degraded refusal and one
    internal worker error, each counted once, and the same block on
    surface (totals differ only by the reads themselves)."""
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    with daemon_factory(workers=2, write_queue_depth=4, metrics_port=0) as handle:
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

    requests = stats["requests"]
    assert requests["busy"] == 1
    assert requests["deadline_exceeded"] == 1
    assert requests["degraded"] == 1
    assert requests["worker_errors"] == 1
    assert requests["errors"] == 1
    assert http["requests"] == dict(requests, total=requests["total"] + 1)
    assert set(stats) == set(http)


# ----------------------------------------------------------------------
# Each event is counted once: in the report, not again in telemetry
# ----------------------------------------------------------------------
def _at(report: dict, path: str):
    value = report
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _settled(client, expected: dict, timeout: float = 5.0) -> dict:
    """The report once every ``expected`` path holds its value. Each
    connection finalizes its request just after the reply, so another
    connection's last request may trail by a moment; on timeout the last
    report is returned for the caller's assert to show."""
    deadline = time.monotonic() + timeout
    while True:
        report = client.stats()
        if all(_at(report, path) == value for path, value in expected.items()):
            return report
        if time.monotonic() > deadline:
            return report
        time.sleep(0.01)


def _deadline_shed(handle, client, work) -> None:
    _shed_one_in_the_queue(handle, work)


def _degraded_refusal(handle, client, work) -> None:
    degrade = handle.daemon.degrade
    for _ in range(degrade.threshold):
        degrade.record_save_failure(RuntimeError("disk"))
    with pytest.raises(ServiceDegradedError):
        _commit(client, work, "while degraded")
    degrade.record_save_success()


def _worker_error(handle, client, work) -> None:
    failpoints.activate("worker.mid_execute", "error", count=1)
    with pytest.raises(ServiceInternalError):
        client.checkout("inter", [1], inline=True)


def _quarantine_refusal(handle, client, work) -> None:
    strikes = handle.daemon.quarantine.strikes
    failpoints.activate("worker.mid_execute", "error", count=strikes)
    for _ in range(strikes):
        with pytest.raises(ServiceInternalError):
            client.checkout("inter", [1], inline=True)
    with pytest.raises(ServiceError) as refused:
        client.checkout("inter", [1], inline=True)
    assert refused.value.error_type == "QuarantinedRequestError"


def _slow_requests(handle, client, work) -> None:
    for _ in range(2):
        client.checkout("inter", [1], inline=True)


def _cache_eviction(handle, client, work) -> None:
    cache = handle.daemon.cache
    cache.budget_bytes = cache.stats().bytes * 3 // 2  # room for one entry
    client.checkout("other", [1], file=str(work))


def _drop_invalidation(handle, client, work) -> None:
    client.drop("inter")


#: event -> (daemon config, what the clients do after one file checkout
#: of ``inter`` v1, report paths and their values, folded counters that
#: stay because the report has no field for them).
EVENTS = {
    "deadline_shed": (
        {"workers": 2, "write_queue_depth": 4},
        _deadline_shed,
        {"requests.deadline_exceeded": 1, "scheduler.deadline_shed": 1},
        {},
    ),
    "degraded_refusal": (
        {},
        _degraded_refusal,
        {
            "requests.degraded": 1,
            "degrade.entries_total": 1,
            "degrade.exits_total": 1,
        },
        {},
    ),
    "worker_error": (
        {},
        _worker_error,
        {
            "requests.errors": 1,
            "requests.worker_errors": 1,
            "faults.fired_total": 1,
        },
        {},
    ),
    "quarantine_refusal": (
        {},
        _quarantine_refusal,
        {
            "requests.errors": 3,
            "requests.worker_errors": 2,
            "quarantine.quarantined": 1,
            "quarantine.refused_total": 1,
        },
        {"service.quarantine.added": 1},
    ),
    "slow_request": (
        {"slow_ms": 0},
        _slow_requests,
        {"requests.total": 3, "requests.slow": 3, "server.slow_ms": 0},
        {},
    ),
    "cache_eviction": (
        {},
        _cache_eviction,
        {"cache.misses": 2, "cache.evictions": 1, "cache.entries": 1},
        {},
    ),
    "drop_invalidation": (
        {},
        _drop_invalidation,
        {"cache.invalidations": 1, "cache.entries": 0},
        {},
    ),
}


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_an_event_is_counted_in_the_report_and_nowhere_else(
    event, workspace, daemon_factory, tmp_path
):
    """The report carries the event exactly once; its ``telemetry``
    counters hold no second count of anything the ledger carries, and
    do hold the counters the ledger has no field for."""
    config, act, expected, kept = EVENTS[event]
    seed_dataset(workspace)
    seed_dataset(workspace, "other")
    work = tmp_path / "w.csv"
    with daemon_factory(**config) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], file=str(work))
            act(handle, client, work)
            report = _settled(client, expected)
    assert {path: _at(report, path) for path in expected} == expected
    if event == "slow_request":
        # Each slow request's spans ride on its one flight record (the
        # stats polls that read the report are slow requests too).
        spans = [
            record["op"]
            for record in read_flight(flight_dir_path(str(workspace)))[
                "records"
            ]
            if "spans" in record and record["op"] != "stats"
        ]
        assert spans == ["checkout"] * 3

    counters = report["telemetry"]["counters"]
    kept = {"service.daemon.starts": 1, **kept}
    assert {name: counters.get(name) for name in kept} == kept
    names = set(counters)
    assert sorted(n for n in names if n.startswith(LEDGER_ONLY)) == []


def test_concurrent_readers_are_each_counted_once(workspace, daemon_factory):
    """Four clients check out at once, ten times each: the report holds
    forty checkouts, each one cache hit or miss, on the op, the dataset
    and each client's own session."""
    seed_dataset(workspace)
    failures: list = []

    def read(handle) -> None:
        try:
            with handle.client() as client:
                for _ in range(10):
                    client.checkout("inter", [1], inline=True)
        except Exception as error:
            failures.append(error)

    with daemon_factory(workers=2) as handle:
        readers = [
            threading.Thread(target=read, args=(handle,)) for _ in range(4)
        ]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
        with handle.client() as client:
            report = _settled(client, {"by_op.checkout.count": 40})
    assert failures == []
    checkout = report["by_op"]["checkout"]
    assert (checkout["count"], checkout["errors"], checkout["busy"]) == (
        40, 0, 0,
    )
    cache = report["cache"]
    assert cache["hits"] + cache["misses"] == 40
    assert cache["misses"] >= 1
    assert report["by_dataset"]["inter"]["count"] == 40
    assert report["sessions"]["total_opened"] == 5
    readers_seen = [
        entry["count"]
        for entry in report["by_session"].values()
        if entry["last_op"] == "checkout"
    ]
    assert readers_seen == [10] * 4


def test_busy_sheds_among_writers_are_counted_not_lost(
    workspace, daemon_factory, tmp_path
):
    """While one commit holds the dataset's only write slot, three other
    clients' commits are refused BUSY; a reader follows. Every request a
    client issued is in the report once, and each BUSY is on the op, the
    dataset, the scheduler and the session that saw it."""
    seed_dataset(workspace)
    work = tmp_path / "w.csv"
    outcomes: dict = {}

    def slow_commit(handle) -> None:
        with handle.client() as client:
            outcomes["slow"] = _commit(client, work, "slow")

    with daemon_factory(workers=2, write_queue_depth=2) as handle:
        with handle.client() as client:
            client.checkout("inter", [1], file=str(work))
        with work.open("a") as out:
            out.write("k4,4\r\n")
        failpoints.activate("worker.before_execute", "delay", arg=1.0, count=1)
        slow = threading.Thread(target=slow_commit, args=(handle,))
        slow.start()
        _await_delayed_execute()  # it holds the dataset's one slot
        for turn in range(3):
            with handle.client() as client, pytest.raises(ServiceBusyError):
                _commit(client, work, f"refused {turn}")
        slow.join(timeout=30)
        assert not slow.is_alive()
        with handle.client() as client:
            for _ in range(5):
                assert client.checkout("inter", [2], inline=True)["rows"] == 4
        with handle.client() as client:
            # The last checkout is counted just after its reply.
            report = _settled(
                client, {"by_op.commit.count": 4, "by_op.checkout.count": 6}
            )
    assert outcomes["slow"]["version"] == 2

    by_op = report["by_op"]
    issued = {"checkout": 6, "commit": 4}
    assert {op: by_op[op]["count"] for op in by_op if op != "stats"} == issued
    assert report["requests"]["total"] == sum(
        stats["count"] for stats in by_op.values()
    )
    assert (report["requests"]["busy"], report["requests"]["errors"]) == (3, 0)
    assert by_op["commit"]["busy"] == 3
    assert report["by_dataset"]["inter"]["busy"] == 3
    assert report["scheduler"]["shed_writes"] == 3
    busy_sessions = [
        entry["busy"] for entry in report["by_session"].values()
    ]
    assert sorted(busy_sessions, reverse=True)[:4] == [1, 1, 1, 0]


def test_a_request_outliving_the_request_timeout_is_answered(
    workspace, daemon_factory, monkeypatch
):
    """A connection waits ``REQUEST_TIMEOUT`` seconds for its job; past
    that its client gets an internal error, counted once, and the daemon
    keeps serving."""
    seed_dataset(workspace)
    monkeypatch.setattr(daemon_module, "REQUEST_TIMEOUT", 0.2)
    with daemon_factory(workers=2) as handle:
        with handle.client() as client:
            failpoints.activate(
                "worker.before_execute", "delay", arg=1.0, count=1
            )
            started = time.perf_counter()
            with pytest.raises(ServiceInternalError) as timed_out:
                client.checkout("inter", [1], inline=True)
            waited = time.perf_counter() - started
            assert client.checkout("inter", [1], inline=True)["rows"] == 3
            report = client.stats()
    assert timed_out.value.error_type == "TimeoutError"
    assert waited < 0.9, f"waited {waited:.2f} s for a 0.2 s timeout"
    assert report["requests"]["worker_errors"] == 1
    assert report["by_op"]["checkout"]["count"] == 2
