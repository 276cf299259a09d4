"""The orpheusd wire protocol: newline-delimited JSON over a stream.

One request or response per line, UTF-8, ``\\n``-terminated, no framing
beyond the newline — greppable on the wire, trivially implementable
from any language, and torn-tail tolerant the same way the journals
are. A connection carries exactly one session: the first request must
be a ``hello`` handshake carrying the protocol version and (optionally)
a registered user identity; every later request is a command.

Requests::

    {"id": 3, "op": "checkout", "dataset": "inter", "versions": [1, 2],
     "trace": {"trace_id": "9f2c64b01a77d3e8",
               "parent_span_id": "41ab09c2f1d6b573", "attempt": 0}}

The optional ``trace`` object is a W3C-style trace context: the daemon
adopts its ``trace_id`` for the server-side span tree and every journal
record the request produces, so one id follows the operation end to
end. Retries of a shed request re-send the same context with a bumped
``attempt``.

Responses echo the id, carry a status, and (for scheduled operations)
a ``trace`` summary with the request's span ids and phase timings::

    {"id": 3, "status": "ok", "data": {...},
     "trace": {"trace_id": "9f2c64b01a77d3e8", "span_id": "c01d...",
               "queue_wait_s": 0.0002, "execute_s": 0.0131}}
    {"id": 7, "status": "busy", "error": "writer queue full ..."}

Statuses:

* ``ok`` — the command ran; ``data`` holds its result.
* ``error`` — the command raised; ``error`` has the message,
  ``error_type`` the exception class name.
* ``busy`` — load-shedding: the scheduler's queue was full. The
  request was **not** executed; clients retry with backoff.
* ``denied`` — handshake or access-control rejection.
* ``shutdown`` — the daemon is draining; reconnect later.
* ``deadline_exceeded`` — the request's propagated ``deadline_ms``
  expired before execution; the daemon shed it without running it
  (answering late would be work the client already gave up on).
* ``degraded`` — the daemon is in degraded read-only mode (state
  saves are failing); the mutation was refused up front, reads still
  flow.

Error responses additionally carry ``error_kind``: ``"user"`` for
errors the request caused (bad version id, unknown dataset — fix the
request), ``"internal"`` for errors in the daemon (a worker crashed
mid-execute — the request may be fine, the server is not).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Sequence

#: Bumped on incompatible wire changes; the handshake rejects mismatches.
PROTOCOL_VERSION = 1

#: A line longer than this is a protocol violation (guards the daemon
#: against unbounded memory from a garbage or hostile peer).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: What one receive reads into at first, and at most: a receive that
#: fills it doubles it, so only a connection that carried a large frame
#: holds a large one while it waits.
RECV_BYTES = (256, 64 * 1024)

OK = "ok"
ERROR = "error"
BUSY = "busy"
DENIED = "denied"
SHUTDOWN = "shutdown"
DEADLINE_EXCEEDED = "deadline_exceeded"
DEGRADED = "degraded"

#: Read-only operations: run concurrently on the scheduler's worker
#: pool under the shared lock. ``checkout`` is read-only in the service
#: model — materialization never changes version history.
READ_OPS = frozenset(
    {"checkout", "diff", "log", "ls", "run", "whoami", "doctor"}
)

#: Mutations: serialized through the writer queue, journaled, and
#: followed by a durable state save.
WRITE_OPS = frozenset(
    {"init", "commit", "drop", "optimize", "create_user"}
)

#: Session/admin operations handled outside the scheduler. ``stats``
#: is the daemon's one report, built from in-memory state only — no
#: repository access — so it stays live even when the queues are full
#: or a writer holds the lock.
CONTROL_OPS = frozenset(
    {"hello", "ping", "stats", "flush_cache", "flush_quarantine", "shutdown"}
)

ALL_OPS = READ_OPS | WRITE_OPS | CONTROL_OPS


class ProtocolError(ValueError):
    """Malformed frame: not JSON, not an object, or oversized."""


@dataclass
class Request:
    """One decoded client request."""

    op: str
    id: int = 0
    params: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.params.get(key, default)

    def to_dict(self) -> dict:
        payload = {"id": self.id, "op": self.op}
        payload.update(self.params)
        return payload


@dataclass
class Response:
    """One server response, correlated to a request by id."""

    id: int
    status: str
    data: dict | None = None
    error: str | None = None
    error_type: str | None = None
    #: "user" (fix the request) vs "internal" (the server failed).
    error_kind: str | None = None
    #: Server-side trace summary (trace/span ids + phase timings).
    trace: dict | None = None

    def to_dict(self) -> dict:
        payload: dict = {"id": self.id, "status": self.status}
        if self.data is not None:
            payload["data"] = self.data
        if self.error is not None:
            payload["error"] = self.error
        if self.error_type is not None:
            payload["error_type"] = self.error_type
        if self.error_kind is not None:
            payload["error_kind"] = self.error_kind
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @property
    def ok(self) -> bool:
        return self.status == OK


#: The wire's JSON dialect: compact, ASCII, ``str()`` for the rest.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=str)
_dumps = _ENCODER.encode


def encode(payload: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (_dumps(payload) + "\n").encode("utf-8")


def encode_rows(rids: Sequence[int], memo, payloads_of) -> bytes:
    """A checkout's rows as the JSON array a frame carries at
    ``data.data``, byte for byte one dump of the rows. The daemon
    encodes a version once, keeps these bytes on its cache entry, and
    :func:`encode_response` splices them.

    A record is encoded once for every version that holds it. ``memo``
    is a CVD's rid -> fragment memo (``CVD.json_fragments``, slots by
    rid: each record's JSON array less its brackets) and ``rids`` are
    the rows' rids, in row order. Only the records the memo lacks are
    encoded, into the memo, from their payloads, ``payloads_of(lacking
    rids)`` (``CVD.payloads_of``); the array joins the fragments.
    Readers fill one memo without a lock: a fragment depends on its
    record alone, so a race encodes it twice alike, and no fragment
    ever leaves a memo (a schema change replaces the CVD's)."""
    try:  # a version's records are most often all known
        joined = b"],[".join(map(memo.__getitem__, rids))
    except (LookupError, TypeError):  # past the slots, or an empty one
        lacking = [rid for rid in rids if memo.get(rid) is None]
        memo.update(zip(lacking, _fragments(payloads_of(lacking))))
        joined = b"],[".join(map(memo.__getitem__, rids))
    return b"[[" + joined + b"]]" if rids else b"[]"


def _fragments(rows: list) -> list[bytes]:
    """Each row's JSON array less its brackets: one bulk dump split at
    its row boundaries, ``],[``. The pattern cannot overlap itself, so
    when it occurs once per boundary every occurrence is one; a string
    or nested array holding it adds more, and then each row is encoded
    alone."""
    body = _dumps(rows).encode("utf-8")
    if body.count(b"],[") == len(rows) - 1:
        return body[2:-2].split(b"],[")
    return [_dumps(row)[1:-1].encode("utf-8") for row in rows]


def encode_response(response: Response) -> bytes:
    """The wire frame of one response — every response leaves through
    here. A ``bytes`` value at ``data["data"]`` is already-encoded JSON
    (:func:`encode_rows`) and is spliced in verbatim as the frame's
    last member, so answering from the cache encodes only the envelope
    around it. Decodes equal to ``encode(response.to_dict())`` with the
    rows in place of their bytes; only the key order differs."""
    payload = response.to_dict()
    data = payload.get("data")
    body = data.get("data") if isinstance(data, dict) else None
    if not isinstance(body, bytes):
        return encode(payload)
    del payload["data"]
    rest = {key: value for key, value in data.items() if key != "data"}
    # Both objects are left open ([:-1] drops the closing brace) and
    # closed again after the body.
    envelope = (
        f'{_dumps(payload)[:-1]},"data":{_dumps(rest)[:-1]}'
        f'{"," if rest else ""}"data":'
    )
    return b"".join((envelope.encode("utf-8"), body, b"}}\n"))


def decode_request(line: bytes | str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    payload = _decode_object(line)
    op = payload.pop("op", None)
    if not isinstance(op, str) or not op:
        raise ProtocolError("request lacks an 'op' field")
    request_id = payload.pop("id", 0)
    if not isinstance(request_id, int):
        raise ProtocolError("request 'id' must be an integer")
    return Request(op=op, id=request_id, params=payload)


def decode_response(line: bytes | str) -> Response:
    payload = _decode_object(line)
    status = payload.get("status")
    if not isinstance(status, str):
        raise ProtocolError("response lacks a 'status' field")
    trace = payload.get("trace")
    return Response(
        id=int(payload.get("id", 0)),
        status=status,
        data=payload.get("data"),
        error=payload.get("error"),
        error_type=payload.get("error_type"),
        error_kind=payload.get("error_kind"),
        trace=trace if isinstance(trace, dict) else None,
    )


def _decode_object(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


class LineChannel:
    """Blocking line-oriented reader/writer over a connected socket.

    Owns a receive buffer so partial TCP segments reassemble into
    complete frames; oversized frames abort the connection rather than
    buffering without bound.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buffer = bytearray()
        #: What a receive reads into (``recv`` would allocate its whole
        #: size before it blocks, and an idle connection blocks there).
        self._chunk = bytearray(RECV_BYTES[0])
        #: Prefix of the buffer already searched for a newline, so a
        #: frame arriving in many chunks is scanned once, not per chunk.
        self._scanned = 0

    def send(self, payload: dict | bytes) -> None:
        """Write one frame: a payload to encode, or a ready frame."""
        self.sock.sendall(
            payload if isinstance(payload, bytes) else encode(payload)
        )

    def send_torn(self, frame: bytes) -> None:
        """Chaos-testing only: send roughly half the frame, then close.

        Simulates a server dying mid-write; the peer must treat the
        unterminated partial line as EOF (the torn-tail drop in
        :meth:`recv_line`), never parse it as a response.
        """
        try:
            self.sock.sendall(frame[: max(1, len(frame) // 2)])
        except OSError:
            pass
        self.close()

    def abort(self) -> None:
        """Hard-close with RST (SO_LINGER 0) — the peer sees a
        connection reset instead of a clean EOF. Chaos-testing only."""
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def recv_line(self) -> bytes | None:
        """The next complete line (without the newline), or None on EOF.

        Raises ``socket.timeout`` if the socket has a timeout and the
        peer goes quiet (the daemon's idle-session reaper relies on it).
        """
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                self._scanned = 0
                return line
            self._scanned = len(self._buffer)
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ProtocolError(
                    f"peer sent more than {MAX_LINE_BYTES} bytes without "
                    f"a newline"
                )
            received = self.sock.recv_into(self._chunk)
            if not received:
                if self._buffer:
                    # torn tail: drop it, same policy as the journals
                    self._buffer.clear()
                    self._scanned = 0
                return None
            self._buffer += memoryview(self._chunk)[:received]
            if received == len(self._chunk) < RECV_BYTES[1]:
                self._chunk = bytearray(2 * received)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
