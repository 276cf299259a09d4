"""Client transport hygiene: a refused handshake or a garbage-speaking
server must not leak the socket fd (regression for the pre-existing
connect() leak), and repeated transport failures trip the client's
circuit breaker instead of hammering a dead daemon."""

import json
import os
import socket
import threading

import pytest

from repro.service.client import (
    CircuitBreaker,
    CircuitOpenError,
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


class TestCircuitBreakerIntegration:
    def test_dead_socket_trips_the_breaker(self, tmp_path):
        breaker = CircuitBreaker(
            failure_threshold=3, recovery_s=30, max_recovery_s=30
        )
        client = ServiceClient(
            socket_path=str(tmp_path / "nobody-home.sock"),
            breaker=breaker,
        )
        for _ in range(3):
            with pytest.raises(ServiceUnavailableError):
                client.connect()
        assert breaker.state == "open"
        # fails fast now: no connection even attempted
        with pytest.raises(CircuitOpenError):
            client.connect()

    def test_decoded_error_response_does_not_feed_the_breaker(
        self, tmp_path
    ):
        """A denial is a *working* transport: the breaker must only
        count connect/timeout/transport failures."""
        breaker = CircuitBreaker(failure_threshold=2)
        with FakeServer(tmp_path, deny_hello) as server:
            for _ in range(5):
                client = ServiceClient(
                    socket_path=server.path, breaker=breaker
                )
                with pytest.raises(ServiceDeniedError):
                    client.connect()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_breaker_shared_across_clients(self, tmp_path):
        """A fleet can share one breaker: failures accumulate across
        client instances (the retry-storm use case)."""
        breaker = CircuitBreaker(
            failure_threshold=4, recovery_s=30, max_recovery_s=30
        )
        path = str(tmp_path / "nobody-home.sock")
        for _ in range(4):
            with pytest.raises(ServiceUnavailableError):
                ServiceClient(socket_path=path, breaker=breaker).connect()
        with pytest.raises(CircuitOpenError):
            ServiceClient(socket_path=path, breaker=breaker).connect()
