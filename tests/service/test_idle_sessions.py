"""An idle connection holds no receive buffer: a connection thread
waits for its next request in ``LineChannel.recv_line``, which reads
into a small per-connection buffer (``recv(65536)`` allocated its 64 KB
before it blocked, so every idle session pinned it).

* counted memory — 20 idle connected sessions, each with one request
  answered and counted, hold at most 5 KB of traced memory apiece: no
  more is freed when they close (the peers are bare sockets);
* a frame larger than the first buffer still arrives whole, and only
  the connection that carried it keeps a larger buffer;
* counted — a waiting connection holds no finished request's trace.
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
import tracemalloc

from repro.service import metrics, protocol
from repro.service.protocol import LineChannel
from repro.service.tracing import RequestTrace

from tests.service.conftest import await_ledger

SESSIONS = 20


def waiting_in_recv(count: int) -> None:
    """Wait until ``count`` connection threads wait in ``recv_line``:
    every connection settled, its request finalized."""
    deadline = time.monotonic() + 10
    code = LineChannel.recv_line.__code__
    while True:
        frames = sys._current_frames().values()
        idle = sum(frame.f_code is code for frame in frames)
        del frames
        if idle >= count:
            return
        assert time.monotonic() < deadline, f"{idle} of {count} idle"
        time.sleep(0.005)


def connection_threads() -> int:
    return sum(thread.name == "orpheusd-conn" for thread in threading.enumerate())


def until(predicate) -> None:
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.005)


def answered(sock: socket.socket, request: dict) -> dict:
    """Send one request frame on a bare socket and read its response."""
    sock.sendall(protocol.encode(request))
    frame = b""
    while not frame.endswith(b"\n"):
        frame += sock.recv(4096)
    return protocol.decode_response(frame).data or {}


def test_idle_sessions_hold_no_receive_buffer(workspace, daemon_factory):
    """What closing 20 settled idle sessions frees is what they held:
    each one's thread, channel, receive buffer and session."""
    hello = {"op": "hello", "protocol": protocol.PROTOCOL_VERSION, "id": 1}
    with daemon_factory() as handle:
        with handle.client() as warm:  # imports and first-use caches
            assert warm.ping()
        until(lambda: connection_threads() == 0)
        tracemalloc.start()
        try:
            peers = [handle.client()._connect_socket() for _ in range(SESSIONS)]
            for peer in peers:
                assert answered(peer, hello)["session_id"]
                answered(peer, {"op": "ping", "id": 2})
            await_ledger(handle, lambda m: m.by_op["ping"].count == SESSIONS + 1)
            waiting_in_recv(SESSIONS)
            gc.collect()
            idle = tracemalloc.take_snapshot()
            for peer in peers:
                peer.close()
            until(lambda: connection_threads() == 0)
            gc.collect()
            freed = -sum(
                stat.size_diff
                for stat in tracemalloc.take_snapshot().compare_to(idle, "traceback")
                if stat.size_diff < 0
            )
        finally:
            tracemalloc.stop()
    assert freed <= SESSIONS * 5 * 1024, freed / SESSIONS


def test_a_large_frame_arrives_whole_and_grows_only_its_buffer():
    left, right = socket.socketpair()
    try:
        reader, quiet = LineChannel(left), LineChannel(socket.socket())
        first = len(reader._chunk)
        frame = b"x" * (10 * protocol.RECV_BYTES[1]) + b"\n"
        sender = threading.Thread(target=right.sendall, args=(frame + b"ok\n",))
        sender.start()
        assert reader.recv_line() == frame[:-1]
        assert reader.recv_line() == b"ok"
        sender.join(timeout=10)
        assert first == protocol.RECV_BYTES[0]
        assert first < len(reader._chunk) <= protocol.RECV_BYTES[1]
        assert len(quiet._chunk) == first
        quiet.close()
    finally:
        left.close()
        right.close()


def test_an_idle_connection_keeps_no_request(workspace, daemon_factory, monkeypatch):
    """Past the ledger's ring of recent requests, no trace of a finished
    request is left: the connection threads waiting for their next
    request hold neither it nor its trace."""
    monkeypatch.setattr(metrics, "RECENT_CAP", 2)
    hello = {"op": "hello", "protocol": protocol.PROTOCOL_VERSION, "id": 1}
    with daemon_factory() as handle:
        peers = [handle.client()._connect_socket() for _ in range(SESSIONS)]
        for peer in peers:
            assert answered(peer, hello)["session_id"]
            answered(peer, {"op": "ping", "id": 2})
        await_ledger(handle, lambda m: m.by_op["ping"].count == SESSIONS)
        waiting_in_recv(SESSIONS)
        gc.collect()
        traces = [o for o in gc.get_objects() if type(o) is RequestTrace]
        assert len(traces) == 2, len(traces)  # the ring's
        for peer in peers:
            peer.close()
