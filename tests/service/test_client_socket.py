"""Client transport hygiene: a refused handshake or a garbage-speaking
server must not leak the socket fd (regression for the pre-existing
connect() leak), and a transport failure leaves no state behind: the
next request connects afresh."""

import json
import os
import socket
import threading

import pytest

from repro.service.client import (
    ServiceClient,
    ServiceDeniedError,
    ServiceUnavailableError,
)


def _open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


class FakeServer:
    """A one-connection-at-a-time Unix-socket server speaking whatever
    bytes its handler scripts — denial, garbage, or silence."""

    def __init__(self, tmp_path, handler) -> None:
        self.path = str(tmp_path / "fake.sock")
        self.handler = handler
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(8)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self.handler(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def __enter__(self) -> "FakeServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._sock.close()
        self._thread.join(timeout=5)


def deny_hello(conn: socket.socket) -> None:
    conn.recv(65536)  # the hello frame
    conn.sendall(
        (json.dumps({"id": 1, "status": "denied", "error": "draining"})
         + "\n").encode()
    )


def speak_garbage(conn: socket.socket) -> None:
    conn.recv(65536)
    conn.sendall(b"this is not a protocol frame\n")


def slam_shut(conn: socket.socket) -> None:
    conn.recv(65536)  # then close without answering (EOF to the client)


def greet(conn: socket.socket) -> None:
    """Accept the hello, then answer one ``ping``."""
    for line in conn.makefile("rb"):
        request = json.loads(line)
        data = {"session_id": 1} if request["op"] == "hello" else {"pong": True}
        conn.sendall(
            (json.dumps({"id": request["id"], "status": "ok", "data": data})
             + "\n").encode()
        )
        if request["op"] != "hello":
            return


def greet_then_hang_up_once():
    """The first connection shakes hands and then closes on the next
    request; every later connection is :func:`greet`."""
    calls = []

    def handler(conn: socket.socket) -> None:
        calls.append(conn)
        if len(calls) > 1:
            return greet(conn)
        reader = conn.makefile("rb")
        hello = json.loads(reader.readline())
        conn.sendall(
            (json.dumps({"id": hello["id"], "status": "ok",
                         "data": {"session_id": 1}}) + "\n").encode()
        )
        reader.readline()  # the request, never answered

    return handler, calls


class TestHandshakeFdHygiene:
    def test_denied_hello_closes_the_socket(self, tmp_path):
        with FakeServer(tmp_path, deny_hello) as server:
            client = ServiceClient(socket_path=server.path)
            with pytest.raises(ServiceDeniedError):
                client.connect()
            assert client._channel is None, "denied hello leaked the fd"

    def test_garbage_server_closes_the_socket(self, tmp_path):
        with FakeServer(tmp_path, speak_garbage) as server:
            client = ServiceClient(socket_path=server.path)
            with pytest.raises(ServiceUnavailableError):
                client.connect()
            assert client._channel is None

    def test_eof_during_hello_closes_the_socket(self, tmp_path):
        with FakeServer(tmp_path, slam_shut) as server:
            client = ServiceClient(socket_path=server.path)
            with pytest.raises(ServiceUnavailableError):
                client.connect()
            assert client._channel is None

    def test_repeated_failed_handshakes_do_not_accumulate_fds(
        self, tmp_path
    ):
        """The regression proper: 20 refused handshakes must not grow
        this process's fd table."""
        with FakeServer(tmp_path, deny_hello) as server:
            # warm-up: import/socket machinery may lazily open a few
            for _ in range(3):
                with pytest.raises(ServiceDeniedError):
                    ServiceClient(socket_path=server.path).connect()
            before = _open_fd_count()
            for _ in range(20):
                with pytest.raises(ServiceDeniedError):
                    ServiceClient(socket_path=server.path).connect()
            after = _open_fd_count()
            assert after - before < 5, (
                f"fd table grew from {before} to {after}: leak"
            )


class TestTransportFailure:
    def test_every_connect_to_a_dead_socket_is_tried(self, tmp_path):
        """No failure count is kept: the fifth connect to a dead socket
        tries the socket like the first and raises the same error."""
        client = ServiceClient(socket_path=str(tmp_path / "nobody-home.sock"))
        for _ in range(5):
            with pytest.raises(ServiceUnavailableError, match="no orpheusd"):
                client.connect()
            assert client._channel is None

    def test_a_client_connects_once_a_daemon_answers(self, tmp_path):
        path = tmp_path / "fake.sock"
        client = ServiceClient(socket_path=str(path))
        for _ in range(3):
            with pytest.raises(ServiceUnavailableError):
                client.connect()
        with FakeServer(tmp_path, greet) as server:
            assert server.path == str(path)
            assert client.ping()
            assert client.session_id == 1
            client.close()

    def test_a_lost_connection_is_closed_and_the_next_request_reconnects(
        self, tmp_path
    ):
        handler, calls = greet_then_hang_up_once()
        with FakeServer(tmp_path, handler) as server:
            client = ServiceClient(socket_path=server.path)
            client.connect()
            with pytest.raises(ServiceUnavailableError, match="closed"):
                client.ping()
            assert client._channel is None and client.session_id is None
            assert client.ping()
            assert len(calls) == 2
            client.close()
