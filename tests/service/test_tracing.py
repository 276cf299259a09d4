"""End-to-end trace propagation: client trace ids flow through the
protocol envelope into server-side span trees, journal records, and the
``stats`` recent-trace ring — including under retry and load shedding."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.observe.journal import Journal
from repro.resilience import failpoints
from repro.service.client import ServiceBusyError
from repro.service.protocol import Request
from repro.service.tracing import (
    PHASES,
    RequestTrace,
    new_trace_context,
)

from .conftest import seed_dataset


def create_user(root, name: str) -> None:
    from repro.cli import main

    assert main(["--root", str(root), "create_user", name]) == 0


def _poll_recent(client, trace_id: str, timeout: float = 5.0) -> list[dict]:
    """All recent span trees for ``trace_id``, polling briefly: the
    daemon folds a request into metrics *after* sending its response
    (to time serialization), so another connection can momentarily miss
    the freshest trace."""
    deadline = time.monotonic() + timeout
    stats: dict = {}
    while time.monotonic() < deadline:
        stats = client.stats(recent=64)
        matches = [
            tree
            for tree in stats.get("recent", [])
            if tree.get("trace_id") == trace_id
        ]
        if matches:
            return matches
        time.sleep(0.02)
    raise AssertionError(
        f"trace {trace_id} not in recent ring: "
        f"{[t.get('trace_id') for t in stats.get('recent', [])]}"
    )


def _child_names(tree: dict) -> list[str]:
    return [child["name"] for child in tree.get("children", [])]


class TestTraceContext:
    def test_fresh_context_shape(self):
        context = new_trace_context()
        assert len(context["trace_id"]) == 16
        assert len(context["parent_span_id"]) == 16
        assert context["attempt"] == 0

    def test_request_trace_adopts_client_trace(self):
        request = Request(
            op="checkout",
            params={
                "trace": {
                    "trace_id": "a" * 16,
                    "parent_span_id": "b" * 16,
                    "attempt": 2,
                }
            },
        )
        rtrace = RequestTrace.from_request(request, session=None)
        assert rtrace.trace_id == "a" * 16
        assert rtrace.parent_span_id == "b" * 16
        assert rtrace.attempt == 2
        assert rtrace.remote_trace

    def test_request_trace_mints_when_client_sends_none(self):
        rtrace = RequestTrace.from_request(Request(op="ping"), session=None)
        assert len(rtrace.trace_id) == 16
        assert not rtrace.remote_trace

    def test_phase_clamping_and_span_tree(self):
        rtrace = RequestTrace.from_request(
            Request(op="checkout"), session=None
        )
        rtrace.mark_admitted()
        rtrace.mark_started()
        rtrace.mark_executed()
        rtrace.mark_sent()
        rtrace.finish("ok")
        for phase in PHASES:
            assert rtrace.phase_seconds()[phase] >= 0.0
        tree = rtrace.to_span_tree()
        assert tree["name"] == "service.request"
        assert tree["op"] == "checkout"
        assert _child_names(tree) == [f"service.{p}" for p in PHASES]

    def test_phase_spans_are_the_span_trees_children(self):
        """What a slow flight record keeps: the phase children, the
        handler subtree under ``service.execute``, no request fields."""
        rtrace = RequestTrace("checkout", dataset="inter")
        rtrace.mark_admitted()
        rtrace.mark_started()
        rtrace.exec_node = SimpleNamespace(
            to_dict=lambda: {"name": "service.checkout", "duration_s": 0.0}
        )
        rtrace.mark_executed()
        rtrace.mark_sent()
        rtrace.finish("ok")
        spans = rtrace.phase_spans()
        assert spans == rtrace.to_span_tree()["children"]
        assert [span["name"] for span in spans] == [
            f"service.{p}" for p in PHASES
        ]
        assert spans[2]["children"] == [
            {"name": "service.checkout", "duration_s": 0.0}
        ]
        for span in spans:
            assert set(span) <= {"name", "duration_s", "children"}

    def test_phase_spans_omit_phases_that_never_ran(self):
        """A request shed at admission never queued or executed."""
        rtrace = RequestTrace("commit", dataset="inter")
        rtrace.mark_admitted()
        rtrace.mark_sent()
        rtrace.finish("busy", "QueueFullError")
        assert [span["name"] for span in rtrace.phase_spans()] == [
            "service.admission", "service.serialize",
        ]
        assert all("children" not in span for span in rtrace.phase_spans())

    def test_wire_trace_omits_serialize(self):
        rtrace = RequestTrace.from_request(Request(op="ping"), session=None)
        rtrace.mark_admitted()
        rtrace.mark_started()
        rtrace.mark_executed()
        rtrace.finish("ok")
        wire = rtrace.wire_trace()
        assert wire["trace_id"] == rtrace.trace_id
        assert "execute_s" in wire and "queue_wait_s" in wire
        # The daemon cannot time its own response serialization before
        # sending the response; that phase lands only in stats and the
        # flight record.
        assert "serialize_s" not in wire


class TestRemoteSpanTrees:
    def test_checkout_span_tree_shares_client_trace_id(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        create_user(workspace, "ada")
        with daemon_factory() as handle:
            with handle.client(user="ada") as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
                wire = client.last_trace
                assert wire is not None and wire["status"] == "ok"
                tree = _poll_recent(client, wire["trace_id"])[-1]
            assert tree["op"] == "checkout"
            names = _child_names(tree)
            for phase in PHASES:
                assert f"service.{phase}" in names
            execute = next(
                child
                for child in tree["children"]
                if child["name"] == "service.execute"
            )
            # The worker's real telemetry span subtree is grafted under
            # the execute child: service.checkout → cache_lookup → ...
            grafted = execute.get("children", [])
            assert grafted and grafted[0]["name"] == "service.checkout"
            sub = [g["name"] for g in grafted[0].get("children", [])]
            assert "service.checkout.cache_lookup" in sub

    def test_journal_records_carry_client_trace_and_session(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        create_user(workspace, "ada")
        with daemon_factory() as handle:
            with handle.client(user="ada") as client:
                client.checkout(
                    "inter", [1], file=str(tmp_path / "out.csv")
                )
                checkout_trace = client.last_trace["trace_id"]
                client.commit(
                    "inter", file=str(tmp_path / "out.csv")
                )
                commit_trace = client.last_trace["trace_id"]
        by_trace = {
            record["trace_id"]: record
            for record in Journal(str(workspace)).read()
        }
        for trace_id, command in (
            (checkout_trace, "checkout"),
            (commit_trace, "commit"),
        ):
            record = by_trace.get(trace_id)
            assert record is not None, f"no journal record for {command}"
            assert record["command"] == command
            assert record["session_id"] is not None
            assert record["user"] == "ada"

    def test_multi_client_trees_match_originating_clients(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        for index in range(4):
            create_user(workspace, f"user{index}")
        with daemon_factory() as handle:
            claimed: dict[str, int] = {}
            lock = threading.Lock()

            def worker(index: int) -> None:
                with handle.client(user=f"user{index}") as client:
                    for turn in range(3):
                        client.checkout(
                            "inter", [1],
                            file=str(
                                tmp_path / f"out-{index}-{turn}.csv"
                            ),
                        )
                        with lock:
                            claimed[client.last_trace["trace_id"]] = index

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(claimed) == 12  # 4 clients x 3 checkouts, distinct
            with handle.client() as client:
                deadline = time.monotonic() + 5.0
                while True:
                    stats = client.stats(recent=64)
                    trees = {
                        tree["trace_id"]: tree
                        for tree in stats.get("recent", [])
                        if tree["op"] == "checkout"
                    }
                    if set(claimed) <= set(trees):
                        break
                    assert time.monotonic() < deadline, (
                        f"missing span trees: {set(claimed) - set(trees)}"
                    )
                    time.sleep(0.02)
        for trace_id, index in claimed.items():
            tree = trees[trace_id]
            assert tree["user"] == f"user{index}"
            assert tree["status"] == "ok"


class TestRetryAndShedTraces:
    def test_retry_keeps_one_trace_id(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        handle = daemon_factory(
            workers=1, read_queue_depth=1, write_queue_depth=1,
        )
        with handle:
            failpoints.activate("csv.mid_write", "delay", 0.25)
            clients = [handle.client().connect() for _ in range(4)]
            try:
                shed: list[int] = []
                threads = []

                def fire(index: int) -> None:
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
                    thread.join(timeout=30)
                if not shed:
                    pytest.skip("scheduler never shed under this timing")
                failpoints.clear()

                # The polite retry path reuses one trace context across
                # BUSY attempts, bumping only the attempt counter.
                retrier = clients[shed[0]]
                retrier.request_with_retry(
                    "checkout",
                    retries=8,
                    backoff=0.05,
                    dataset="inter",
                    versions=[1],
                    file=str(tmp_path / "retried.csv"),
                )
                final = retrier.last_trace
                assert final["status"] == "ok"

                attempts = _poll_recent(clients[0], final["trace_id"])
                trace_ids = {tree["trace_id"] for tree in attempts}
                assert len(trace_ids) == 1
                assert attempts[-1]["status"] == "ok"
                # Earlier shed attempts (if captured) are terminal busy
                # spans under the SAME trace id.
                for tree in attempts[:-1]:
                    assert tree["status"] == "busy"
            finally:
                for client in clients:
                    client.close()

    def test_shed_request_emits_terminal_span(
        self, workspace, daemon_factory, tmp_path
    ):
        seed_dataset(workspace)
        handle = daemon_factory(
            workers=1, read_queue_depth=1, write_queue_depth=1,
        )
        with handle:
            failpoints.activate("csv.mid_write", "delay", 0.25)
            clients = [handle.client().connect() for _ in range(4)]
            try:
                shed_traces: list[dict] = []
                threads = []
                lock = threading.Lock()

                def fire(index: int) -> None:
                    try:
                        clients[index].checkout(
                            "inter", [1],
                            file=str(tmp_path / f"out{index}.csv"),
                        )
                    except ServiceBusyError:
                        with lock:
                            shed_traces.append(
                                clients[index].last_trace
                            )

                for index in range(4):
                    thread = threading.Thread(target=fire, args=(index,))
                    thread.start()
                    threads.append(thread)
                for thread in threads:
                    thread.join(timeout=30)
                if not shed_traces:
                    pytest.skip("scheduler never shed under this timing")

                # Even a shed request answers with its trace envelope...
                wire = shed_traces[0]
                assert wire is not None
                assert wire["status"] == "busy"
                # ...and leaves a terminal span tree server-side.
                tree = _poll_recent(clients[0], wire["trace_id"])[-1]
                assert tree["status"] == "busy"
                assert tree["error_type"] == "QueueFullError"
                assert "service.admission" in _child_names(tree)
                assert clients[0].stats()["requests"]["busy"] >= 1
            finally:
                for client in clients:
                    client.close()
