"""The thin client library behind ``orpheus remote``.

Connects to a running orpheusd over its Unix socket (or TCP), performs
the ``hello`` handshake, and exposes one method per operation. Errors
map onto exceptions:

* :class:`ServiceBusyError` — the daemon shed the request (bounded
  queue full); the request did **not** run, retry with backoff (or use
  :meth:`ServiceClient.request_with_retry`).
* :class:`ServiceDeniedError` — handshake/access rejection.
* :class:`ServiceShutdownError` — the daemon is draining.
* :class:`ServiceDeadlineError` — the propagated ``deadline_ms``
  expired (server-side shed, or the client's retry budget ran out).
* :class:`ServiceDegradedError` — the daemon is in degraded read-only
  mode; the mutation was refused, reads still work.
* :class:`ServiceInternalError` — the daemon failed internally
  (``error_kind: internal``); the request itself may be fine.
* :class:`ServiceError` — the command raised server-side; carries the
  remote exception type name.
* :class:`ServiceUnavailableError` — no daemon answered: the connect
  was refused, timed out, or the connection was lost.

A total latency budget (``deadline_ms`` or
``ORPHEUS_CLIENT_DEADLINE_MS``) is stamped into every request's trace
context for server-side shedding and bounds the *total* elapsed time
of :meth:`ServiceClient.request_with_retry`, not just each backoff.

Usage::

    with ServiceClient(root=".", user="alice") as client:
        client.checkout("inter", [1], file="work.csv")
        client.commit("inter", file="work.csv", message="cleaned")
"""

from __future__ import annotations

import os
import random
import socket
import time
from typing import Sequence

from repro.service import protocol
from repro.service.protocol import LineChannel, Response
from repro.service.status import read_status_file
from repro.service.tracing import new_trace_context

#: Env var: default total latency budget (ms) per logical operation,
#: propagated in the trace context and enforced across retries.
CLIENT_DEADLINE_ENV = "ORPHEUS_CLIENT_DEADLINE_MS"

#: Backoff sleeps of the retry loop never exceed this.
BACKOFF_CAP_S = 2.0


class ServiceError(RuntimeError):
    """The daemon reported an error executing a request."""

    def __init__(
        self,
        message: str,
        error_type: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        super().__init__(message)
        self.error_type = error_type
        self.error_kind = error_kind


class ServiceBusyError(ServiceError):
    """Load-shed: the request was rejected before execution."""


class ServiceDeniedError(ServiceError):
    """Handshake or access-control rejection."""


class ServiceShutdownError(ServiceError):
    """The daemon is draining and no longer accepts commands."""


class ServiceUnavailableError(ServiceError):
    """No daemon is reachable at the expected socket."""


class ServiceDeadlineError(ServiceError):
    """The operation's latency budget expired (shed server-side, or
    the client's retry budget ran out before an answer)."""


class ServiceDegradedError(ServiceError):
    """The daemon is degraded read-only: writes refused, reads flow."""


class ServiceInternalError(ServiceError):
    """The daemon failed internally executing the request
    (``error_kind: internal``) — the request itself may be valid."""


def jittered_backoff(
    base: float,
    attempt: int,
    cap: float = BACKOFF_CAP_S,
    rng: random.Random | None = None,
) -> float:
    """Exponential backoff with full jitter for the retry loop (uniform
    over (0, delay] — a fleet of clients desynchronizes instead of
    thundering back)."""
    delay = min(cap, base * (2 ** attempt))
    roll = (rng or random).random()
    return delay * max(0.05, roll)


def client_deadline_ms() -> float | None:
    """The env-configured default total latency budget, if any."""
    raw = os.environ.get(CLIENT_DEADLINE_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class ServiceClient:
    """One session against a running orpheusd."""

    def __init__(
        self,
        socket_path: str | None = None,
        root: str | None = None,
        tcp: tuple[str, int] | None = None,
        user: str = "",
        timeout: float = 30.0,
        deadline_ms: float | None = None,
    ) -> None:
        self.root = root
        self.socket_path = socket_path
        self.tcp = tcp
        self.user = user
        self.timeout = timeout
        #: Total latency budget per logical operation, stamped into the
        #: trace context for server-side shedding and bounding the
        #: retry loop. None (and no env override) = no budget.
        self.deadline_ms = (
            deadline_ms if deadline_ms is not None else client_deadline_ms()
        )
        self._channel: LineChannel | None = None
        self._next_id = 0
        self.session_id: int | None = None
        #: The server's trace summary for the most recent response
        #: (including BUSY sheds) — trace/span ids + phase timings.
        self.last_trace: dict | None = None

    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._channel is not None:
            return self
        self._channel = LineChannel(self._connect_socket())
        try:
            response = self._roundtrip(
                {
                    "op": "hello",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "user": self.user,
                }
            )
        except BaseException:
            # A refused handshake (denied, protocol garbage, a lost
            # connection) must not leak the socket fd: the session never
            # opened, so the connection has no further use.
            self.close()
            raise
        self.session_id = (response.data or {}).get("session_id")
        return self

    def _connect_socket(self) -> socket.socket:
        if self.tcp is not None:
            try:
                return socket.create_connection(self.tcp, timeout=self.timeout)
            except OSError as error:
                raise ServiceUnavailableError(
                    f"no orpheusd reachable at {self.tcp}: {error}"
                ) from None
        path = self.socket_path
        if path is None:
            status = read_status_file(self.root)
            if status is None:
                from repro.service.daemon import default_socket_path

                path = default_socket_path(self.root)
            else:
                path = status.get("socket")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(path)
        except OSError as error:
            sock.close()
            raise ServiceUnavailableError(
                f"no orpheusd reachable at {path}: {error}; "
                f"start one with `orpheus serve`"
            ) from None
        return sock

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None
            self.session_id = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, op: str, **params) -> dict:
        """One request/response cycle; returns the response data dict.

        Every command request carries a trace context; pass ``trace=``
        explicitly to reuse one (retries do) or let this mint a fresh
        context per call.
        """
        if self._channel is None:
            self.connect()
        payload = {"op": op}
        payload.update(
            {k: v for k, v in params.items() if v is not None}
        )
        if "trace" not in payload:
            payload["trace"] = new_trace_context(
                deadline_ms=self.deadline_ms
            )
        return self._roundtrip(payload).data or {}

    def request_with_retry(
        self,
        op: str,
        retries: int = 5,
        backoff: float = 0.02,
        **params,
    ) -> dict:
        """Like :meth:`request`, but retries ``busy`` shed responses
        with jittered exponential backoff — the polite client under
        load.

        All attempts share ONE trace id (with a bumped ``attempt``
        counter), so a retried operation stays a single trace on the
        server side instead of fragmenting into lookalikes. The
        client's ``deadline_ms`` bounds the **total elapsed time**
        across all attempts — each retry re-stamps the *remaining*
        budget into the trace context, and when backing off again
        would blow the budget the loop raises
        :class:`ServiceDeadlineError` instead of sleeping past it.
        """
        t0 = time.monotonic()
        budget_s = (
            self.deadline_ms / 1000.0 if self.deadline_ms else None
        )
        context = params.pop("trace", None) or new_trace_context(
            deadline_ms=self.deadline_ms
        )
        attempt = 0
        while True:
            context["attempt"] = attempt
            if budget_s is not None:
                remaining = budget_s - (time.monotonic() - t0)
                if remaining <= 0:
                    raise ServiceDeadlineError(
                        f"{op}: total retry budget of "
                        f"{self.deadline_ms:.0f}ms exhausted after "
                        f"{attempt} attempt(s)"
                    )
                context["deadline_ms"] = remaining * 1000.0
            try:
                return self.request(op, trace=context, **params)
            except ServiceBusyError:
                if attempt >= retries:
                    raise
                sleep_s = jittered_backoff(backoff, attempt)
                if budget_s is not None:
                    remaining = budget_s - (time.monotonic() - t0)
                    if sleep_s >= remaining:
                        raise ServiceDeadlineError(
                            f"{op}: backing off again would exceed the "
                            f"{self.deadline_ms:.0f}ms total budget "
                            f"(attempt {attempt + 1})"
                        ) from None
                time.sleep(sleep_s)
                attempt += 1

    def _roundtrip(self, payload: dict) -> Response:
        self._next_id += 1
        payload = dict(payload)
        payload["id"] = self._next_id
        channel = self._channel
        if channel is None:
            raise ServiceUnavailableError("client is not connected")
        try:
            channel.send(payload)
            line = channel.recv_line()
        except socket.timeout:
            self.close()
            raise ServiceUnavailableError(
                f"orpheusd did not answer within {self.timeout}s"
            ) from None
        except OSError as error:
            self.close()
            raise ServiceUnavailableError(
                f"connection to orpheusd lost: {error}"
            ) from None
        if line is None:
            self.close()
            raise ServiceUnavailableError("orpheusd closed the connection")
        try:
            response = protocol.decode_response(line)
        except protocol.ProtocolError as error:
            # A garbage-speaking peer: the connection is unusable and
            # must not leak — close before surfacing.
            self.close()
            raise ServiceUnavailableError(
                f"orpheusd sent an undecodable frame: {error}"
            ) from None
        # BUSY and error responses carry a terminal trace summary too;
        # record it before raising so callers can correlate sheds.
        if response.trace is not None:
            self.last_trace = dict(response.trace)
        if response.status == protocol.OK:
            return response
        message = response.error or response.status
        kind = response.error_kind
        if response.status == protocol.BUSY:
            raise ServiceBusyError(message, response.error_type, kind)
        if response.status == protocol.DENIED:
            raise ServiceDeniedError(message, response.error_type, kind)
        if response.status == protocol.SHUTDOWN:
            raise ServiceShutdownError(message, response.error_type, kind)
        if response.status == protocol.DEADLINE_EXCEEDED:
            raise ServiceDeadlineError(message, response.error_type, kind)
        if response.status == protocol.DEGRADED:
            raise ServiceDegradedError(message, response.error_type, kind)
        if kind == "internal":
            raise ServiceInternalError(message, response.error_type, kind)
        raise ServiceError(message, response.error_type, kind)

    # ------------------------------------------------------------------
    # Convenience wrappers, one per operation
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def stats(self, recent: int = 0) -> dict:
        """Live daemon observability: counters, latency percentiles,
        queue depths, cache efficiency; ``recent`` > 0 adds that many
        of the newest server-side span trees."""
        return self.request("stats", recent=recent or None)

    def ls(self) -> list[dict]:
        return self.request("ls")["datasets"]

    def log(self, dataset: str | None = None, ops: bool = False) -> dict:
        return self.request("log", dataset=dataset, ops=ops or None)

    def checkout(
        self,
        dataset: str,
        versions: Sequence[int] | int,
        file: str | None = None,
        schema: str | None = None,
        inline: bool = False,
    ) -> dict:
        if isinstance(versions, int):
            versions = [versions]
        return self.request(
            "checkout",
            dataset=dataset,
            versions=list(versions),
            file=file,
            schema=schema,
            inline=inline or None,
        )

    def commit(
        self,
        dataset: str,
        file: str,
        message: str = "",
        schema: str | None = None,
        parents: Sequence[int] | None = None,
    ) -> dict:
        return self.request(
            "commit",
            dataset=dataset,
            file=file,
            message=message,
            schema=schema,
            parents=list(parents) if parents is not None else None,
        )

    def init(
        self,
        dataset: str,
        file: str,
        schema: str,
        model: str = "split_by_rlist",
    ) -> dict:
        return self.request(
            "init", dataset=dataset, file=file, schema=schema, model=model
        )

    def diff(self, dataset: str, a: int, b: int, limit: int = 20) -> dict:
        return self.request("diff", dataset=dataset, a=a, b=b, limit=limit)

    def run(self, sql: str) -> dict:
        return self.request("run", sql=sql)

    def drop(self, dataset: str) -> dict:
        return self.request("drop", dataset=dataset)

    def optimize(self, dataset: str, gamma: float = 2.0) -> dict:
        return self.request("optimize", dataset=dataset, gamma=gamma)

    def create_user(self, name: str, email: str = "") -> dict:
        return self.request("create_user", name=name, email=email)

    def whoami(self) -> dict:
        return self.request("whoami")

    def doctor(self) -> dict:
        return self.request("doctor")

    def flush_cache(self) -> int:
        return int(self.request("flush_cache").get("dropped", 0))

    def flush_quarantine(self) -> int:
        """Clear the daemon's crash quarantine; returns how many
        request digests were un-quarantined."""
        return int(self.request("flush_quarantine").get("dropped", 0))

    def shutdown(self) -> None:
        try:
            self.request("shutdown")
        except (ServiceShutdownError, ServiceUnavailableError):
            pass
