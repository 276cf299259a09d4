"""The chaos matrix: a real subprocess daemon is driven into every
service-layer fault site (ORPHEUS_FAILPOINTS) while clients run
a mixed op workload. The containment contract, asserted per cell:

* the daemon process survives (except the explicit ``crash`` cells);
* every client receives a *typed* outcome — ok, or a ServiceError /
  ServiceUnavailableError subclass — never a hang, never garbage;
* after the (count-limited) faults burn off, the daemon answers
  cleanly and drains gracefully with exit code 0;
* no acknowledged commit is ever lost, and torn operations never
  outlive recovery.

Cells are (failpoint-spec x op): one daemon per spec, every op in the
mix run against it. A final accounting test asserts the matrix covered
at least 30 cells and every registered fault site.
"""

import signal
import threading

import pytest

from repro.observe.journal import Journal
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)
from repro.resilience.failpoints import SERVICE_SITES

from tests.service.conftest import (
    SUBPROCESS_TIMEOUT,
    seed_dataset,
    spawn_daemon_subprocess,
)

#: One daemon per spec; every op below runs against it as one cell.
#: Counts are finite so every daemon heals before the final checks.
CHAOS_SPECS = [
    "conn.after_recv=error@1",
    "conn.after_recv=reset@1",
    "conn.before_send=reset@1",
    "conn.before_send=torn@1",
    "worker.before_execute=error@1",
    "worker.before_execute=delay:0.1@2",
    "worker.mid_execute=error@1",
    "state.before_save=error@2",
    "cache.corrupt_entry=corrupt@1",
]

OPS = ("checkout", "ls", "log", "commit")

#: Version 1 of the seeded dataset, as an inline checkout returns it.
ORACLE_ROWS = [["k1", 1], ["k2", 2], ["k3", 3]]

#: (spec, op, outcome) tuples, appended as cells execute; the final
#: accounting test audits coverage. Typed exceptions and ok both count
#: as contained; anything else fails the cell's test on the spot.
CELLS: list[tuple] = []


def _run_cell(workspace, tmp_path, spec, op, acked):
    """One cell: a fresh client runs one op. Returns the outcome tag;
    raises (failing the test) on any non-typed exception."""
    try:
        with ServiceClient(root=str(workspace), timeout=20) as client:
            if op == "checkout":
                # Twice: the second read is an inline hit, served from
                # the entry's encoded bytes — where cache.corrupt_entry
                # fires, and what its seal must catch.
                for _ in range(2):
                    data = client.checkout("inter", [1], inline=True)
                    assert data["rows"] == 3, f"torn read: {data}"
                    assert sorted(data["data"]) == ORACLE_ROWS, data
            elif op == "ls":
                client.ls()
            elif op == "log":
                client.log(dataset="inter")
            elif op == "commit":
                work = tmp_path / f"cell-{op}.csv"
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "chaos,99\n")
                result = client.commit(
                    "inter", file=str(work),
                    message=f"chaos {spec} {op}", parents=[1],
                )
                acked.append(result["version"])
        outcome = "ok"
    except (ServiceError, ServiceUnavailableError) as error:
        outcome = f"typed:{type(error).__name__}"
    CELLS.append((spec, op, outcome))
    return outcome


@pytest.mark.parametrize("spec", CHAOS_SPECS)
def test_chaos_cell_containment(workspace, tmp_path, spec):
    seed_dataset(workspace)
    proc = spawn_daemon_subprocess(
        workspace, "--workers", "2", failpoints_spec=spec
    )
    acked: list[int] = []
    try:
        for op in OPS:
            _run_cell(workspace, tmp_path, spec, op, acked)
            assert proc.poll() is None, (
                f"daemon died under {spec} during {op}"
            )

        # faults burned off (finite counts): the daemon must now be
        # fully healthy — reads, pings, and a clean status
        with ServiceClient(root=str(workspace), timeout=20) as client:
            assert client.ping()
            data = client.checkout("inter", [1], inline=True)
            assert data["rows"] == 3
            log = client.log(dataset="inter")
            graph_vids = {v["vid"] for v in log["versions"]}
            # zero lost updates: every acknowledged commit survived
            for vid in acked:
                assert vid in graph_vids, (
                    f"acked commit v{vid} lost under {spec}"
                )
            counters = client.stats()["telemetry"]["counters"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0, (
            f"unclean drain under {spec}"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=SUBPROCESS_TIMEOUT)
    # the crash never tore the repository
    assert Journal(str(workspace)).pending() == []
    if spec.startswith("cache.corrupt_entry"):
        # the fault hit the served bytes exactly once and was caught
        # (the report carries the daemon-lifetime counters)
        assert counters.get("service.cache.corruption_detected") == 1


def test_chaos_crash_cell_recovers_on_restart(workspace, tmp_path):
    """The crash action at a worker site kills the daemon mid-request
    (service-layer SIGKILL semantics); restart recovery must leave the
    repository clean and the doomed commit un-acked."""
    seed_dataset(workspace)
    proc = spawn_daemon_subprocess(
        workspace,
        failpoints_spec="worker.mid_execute=crash",
    )
    try:
        work = tmp_path / "doomed.csv"
        with pytest.raises((ServiceError, ServiceUnavailableError)):
            with ServiceClient(root=str(workspace), timeout=30) as client:
                client.checkout("inter", [1], file=str(work))
                work.write_text(work.read_text() + "k4,4\n")
                client.commit("inter", file=str(work), message="doomed")
        assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 86
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=SUBPROCESS_TIMEOUT)
    CELLS.append(("worker.mid_execute=crash", "commit", "crash"))

    proc = spawn_daemon_subprocess(workspace)
    try:
        with ServiceClient(root=str(workspace), timeout=30) as client:
            log = client.log(dataset="inter")
            assert [v["vid"] for v in log["versions"]] == [1]
        assert Journal(str(workspace)).pending() == []
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=SUBPROCESS_TIMEOUT)


def test_chaos_degraded_mode_subprocess(workspace, tmp_path):
    """A real daemon under a persistent save fault flips to degraded
    read-only mode: writes answer the typed degraded status, reads keep
    flowing, and the drain is still graceful."""
    from repro.service.client import ServiceDegradedError

    seed_dataset(workspace)
    proc = spawn_daemon_subprocess(
        workspace,
        failpoints_spec="state.before_save=error@3",
    )
    try:
        with ServiceClient(root=str(workspace), timeout=30) as client:
            work = tmp_path / "w.csv"
            client.checkout("inter", [1], file=str(work))
            for turn in range(3):
                with pytest.raises(ServiceError):
                    client.commit(
                        "inter", file=str(work),
                        message=f"doomed {turn}", parents=[1],
                    )
                CELLS.append(
                    ("state.before_save=error@3", "commit", "typed")
                )
            status = client.stats()
            assert status["degrade"]["degraded"], status["degrade"]
            with pytest.raises(ServiceDegradedError):
                client.commit(
                    "inter", file=str(work),
                    message="refused", parents=[1],
                )
            CELLS.append(
                ("state.before_save=error@3", "commit", "typed:degraded")
            )
            # reads flow while degraded
            data = client.checkout("inter", [1], inline=True)
            assert data["rows"] == 3
            assert [v["vid"] for v in client.log("inter")["versions"]] == [1]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=SUBPROCESS_TIMEOUT)
    assert Journal(str(workspace)).pending() == []


def test_chaos_concurrent_commit_storm_no_lost_updates(
    workspace, tmp_path
):
    """Six writers race commits through a daemon with faults armed on
    the save path AND the response path. Response-path resets mean a
    commit can land without its ack arriving — that is allowed; what
    must never happen is the reverse: an acknowledged commit missing
    from the version graph."""
    seed_dataset(workspace)
    proc = spawn_daemon_subprocess(
        workspace,
        "--workers", "2",
        failpoints_spec=(
            "state.before_save=error@2,"
            "conn.before_send=reset@2,"
            "worker.before_execute=delay:0.02@10"
        ),
    )
    acked = []
    failures = []
    lock = threading.Lock()

    def writer(index):
        for turn in range(3):
            work = tmp_path / f"storm-{index}-{turn}.csv"
            for attempt in range(6):
                try:
                    with ServiceClient(
                        root=str(workspace), timeout=30
                    ) as client:
                        client.request_with_retry(
                            "checkout",
                            dataset="inter", versions=[1],
                            file=str(work), retries=8,
                        )
                        work.write_text(
                            work.read_text()
                            + f"s{index}t{turn},{index * 10 + turn}\n"
                        )
                        result = client.request_with_retry(
                            "commit",
                            dataset="inter", file=str(work),
                            message=f"storm {index} {turn}",
                            parents=[1], retries=8,
                        )
                        with lock:
                            acked.append(result["version"])
                    break
                except (ServiceError, ServiceUnavailableError):
                    continue  # typed: retry the whole cell
                except Exception as error:
                    with lock:
                        failures.append(f"writer {index}: {error!r}")
                    return

    try:
        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "storm writer hung"
        assert not failures, failures
        assert proc.poll() is None, "daemon died under the storm"

        with ServiceClient(root=str(workspace), timeout=30) as client:
            log = client.log(dataset="inter")
            status = client.stats()
        graph_vids = {v["vid"] for v in log["versions"]}
        # every ack is durable and unique — zero lost updates
        assert len(acked) == len(set(acked)), "duplicate acked vid"
        for vid in acked:
            assert vid in graph_vids, f"acked commit v{vid} lost"
        assert acked, "the storm must land some commits"
        # the armed faults actually fired
        assert status["faults"]["fired_total"] >= 3, status["faults"]

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=SUBPROCESS_TIMEOUT) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=SUBPROCESS_TIMEOUT)
    assert Journal(str(workspace)).pending() == []
    CELLS.append(("storm", "commit", "ok"))


def test_chaos_matrix_coverage():
    """The accounting cell: the matrix above must have executed at
    least 30 cells and visited every registered fault site."""
    assert len(CELLS) >= 30, (
        f"chaos matrix ran only {len(CELLS)} cells: {CELLS}"
    )
    visited = {spec.split("=", 1)[0] for spec, _, _ in CELLS if "=" in spec}
    assert SERVICE_SITES <= visited, (
        f"fault sites never exercised: {sorted(SERVICE_SITES - visited)}"
    )
