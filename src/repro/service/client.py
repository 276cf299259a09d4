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
* :class:`CircuitOpenError` — this *client's* circuit breaker is open
  after repeated connect/timeout failures; no connection was attempted.

Fault tolerance built in: every client owns a :class:`CircuitBreaker`
that opens after ``failure_threshold`` consecutive transport failures
(connect refused, timeouts, lost connections), fails fast while open,
and probes half-open on a jittered exponential recovery schedule — so
a thousand clients hammering a dead daemon back off instead of
retrying in lockstep. A total latency budget (``deadline_ms`` or
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

#: Backoff sleeps (retry loop and breaker recovery) never exceed this.
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


class CircuitOpenError(ServiceUnavailableError):
    """Failing fast: this client's breaker is open after repeated
    transport failures; no connection was attempted."""


def jittered_backoff(
    base: float,
    attempt: int,
    cap: float = BACKOFF_CAP_S,
    rng: random.Random | None = None,
) -> float:
    """Exponential backoff with full jitter, shared by the retry loop
    and the breaker's recovery schedule (uniform over (0, delay] — a
    fleet of clients desynchronizes instead of thundering back)."""
    delay = min(cap, base * (2 ** attempt))
    roll = (rng or random).random()
    return delay * max(0.05, roll)


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one client's transport.

    States: ``closed`` (normal), ``open`` (failing fast until a
    jittered recovery delay passes), ``half_open`` (one probe request
    allowed through; its outcome closes or re-opens the circuit).
    ``clock``/``rng`` are injectable so the state machine is unit
    testable without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: float = 0.1,
        max_recovery_s: float = BACKOFF_CAP_S,
        clock=time.monotonic,
        rng: random.Random | None = None,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.recovery_s = recovery_s
        self.max_recovery_s = max_recovery_s
        self._clock = clock
        self._rng = rng or random.Random()
        self.state = "closed"
        self.consecutive_failures = 0
        #: How many times the circuit opened without an intervening
        #: success — drives the exponential recovery delay.
        self.open_streak = 0
        self.opened_total = 0
        self._open_until = 0.0

    def allow(self) -> bool:
        """May a request proceed now? Transitions open→half_open when
        the recovery delay has passed (the caller becomes the probe)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() >= self._open_until:
                self.state = "half_open"
                return True
            return False
        # half_open: exactly one probe at a time; a second caller
        # arriving before the probe resolves fails fast.
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.open_streak = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == "half_open"
            or self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.open_streak += 1
        self.opened_total += 1
        delay = jittered_backoff(
            self.recovery_s,
            self.open_streak - 1,
            cap=self.max_recovery_s,
            rng=self._rng,
        )
        self._open_until = self._clock() + delay

    def remaining_s(self) -> float:
        """Seconds until an open circuit half-opens (0 when not open)."""
        if self.state != "open":
            return 0.0
        return max(0.0, self._open_until - self._clock())

    def status(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "opened_total": self.opened_total,
            "recovery_in_s": round(self.remaining_s(), 4),
        }


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
        breaker: CircuitBreaker | None = None,
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
        self.breaker = breaker or CircuitBreaker()
        self._channel: LineChannel | None = None
        self._next_id = 0
        self.session_id: int | None = None
        #: The server's trace summary for the most recent response
        #: (including BUSY sheds) — trace/span ids + phase timings,
        #: plus this client's breaker state under ``"breaker"``.
        self.last_trace: dict | None = None

    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._channel is not None:
            return self
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit breaker open after "
                f"{self.breaker.consecutive_failures} consecutive "
                f"transport failure(s); retrying in "
                f"{self.breaker.remaining_s():.2f}s"
            )
        try:
            sock = self._connect_socket()
        except ServiceUnavailableError:
            self.breaker.record_failure()
            raise
        self._channel = LineChannel(sock)
        try:
            response = self._roundtrip(
                {
                    "op": "hello",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "user": self.user,
                }
            )
        except ServiceUnavailableError:
            # _roundtrip already closed the channel and fed the breaker.
            raise
        except BaseException:
            # A refused handshake (denied, protocol garbage) must not
            # leak the socket fd: the session never opened, so the
            # connection has no further use.
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
            self.breaker.record_failure()
            raise ServiceUnavailableError(
                f"orpheusd did not answer within {self.timeout}s"
            ) from None
        except OSError as error:
            self.close()
            self.breaker.record_failure()
            raise ServiceUnavailableError(
                f"connection to orpheusd lost: {error}"
            ) from None
        if line is None:
            self.close()
            self.breaker.record_failure()
            raise ServiceUnavailableError("orpheusd closed the connection")
        try:
            response = protocol.decode_response(line)
        except protocol.ProtocolError as error:
            # A garbage-speaking peer: the connection is unusable and
            # must not leak — close before surfacing.
            self.close()
            self.breaker.record_failure()
            raise ServiceUnavailableError(
                f"orpheusd sent an undecodable frame: {error}"
            ) from None
        # Any decoded response — including BUSY and errors — proves the
        # transport works; only connect/timeout/transport failures feed
        # the breaker.
        self.breaker.record_success()
        # BUSY and error responses carry a terminal trace summary too;
        # record it before raising so callers can correlate sheds.
        if response.trace is not None:
            self.last_trace = dict(response.trace)
            self.last_trace["breaker"] = self.breaker.status()
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

    def status(self) -> dict:
        return self.request("status")

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
