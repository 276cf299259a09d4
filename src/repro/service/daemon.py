"""``orpheusd``: the daemon behind ``orpheus serve``.

One daemon process owns one repository **exclusively**: it takes the
exclusive :class:`~repro.resilience.lock.RepositoryLock` for its whole
lifetime (concurrent CLI invocations time out with a message naming the
``serve`` holder — use ``orpheus remote`` instead), runs torn-operation
recovery at startup, loads the state once, and then serves every client
from memory. Per request the per-invocation lock/load/save tax becomes:

* **reads** (checkout/diff/log/ls/SQL) — scheduled on the worker pool
  under the in-process shared lock; checkouts are served from the
  materialized-version cache when hot.
* **writes** (init/commit/optimize/drop/create_user) — serialized
  through the writer queue; each one appends a ``begin`` line to the
  operation journal, durably saves state and appends its op record
  (which closes the ``begin``) before the client sees ``ok`` — the
  same crash-consistency contract as the CLI, so ``orpheus recover``
  and the doctor probes keep working unchanged.

Either way the command itself is the CLI's: :meth:`Orpheus.execute`
(checkout through the cache as its ``materialize`` hook), journaled by
the same :func:`~repro.observe.journal.fill_record`.

Durability note for checkouts: a file checkout's staging pin (the
provenance parents a later commit needs) lives in daemon memory and is
persisted by the next mutation or the graceful drain; a daemon crash
between the two loses only the pin, never version history — the same
artifact recovery the CLI already has cleans up the file.

Shutdown (SIGTERM/SIGINT or a ``shutdown`` request): stop accepting,
drain the scheduler, save state, remove the socket and status file,
release the lock, exit 0. ``orpheus stats`` reads the daemon's requests
from its flight record.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from repro import telemetry
from repro.core.errors import CVDError
from repro.observe.journal import (
    Journal,
    OpRecord,
    close_line,
    fill_record,
    journals,
    make_record,
    new_trace_id,
    op_fields,
    requested_versions,
)
from repro.relational.arrays import rid_array
from repro.resilience import failpoints, fsio
from repro.resilience.lock import RepositoryLock
from repro.resilience.recovery import needs_recovery, run_recovery
from repro.resilience.statestore import StateStore
from repro.service import protocol
from repro.service.cache import DEFAULT_BUDGET_BYTES, CacheEntry, VersionCache
from repro.service.cache import size_sample
from repro.service.degrade import (
    DegradeController,
    DegradedError,
    Quarantine,
    QuarantinedRequestError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import LineChannel, Request, Response
from repro.service.recorder import FlightRecorder, args_digest, new_boot_id
from repro.service.tracing import DEFAULT_SLOW_MS, RequestTrace
from repro.service.scheduler import (
    DEFAULT_READ_QUEUE_DEPTH,
    DEFAULT_WORKERS,
    DEFAULT_WRITE_QUEUE_DEPTH,
    DeadlineExceededError,
    QueueFullError,
    RequestScheduler,
    SchedulerStoppedError,
)
from repro.service.sessions import (
    DEFAULT_IDLE_TIMEOUT,
    HandshakeError,
    SessionManager,
)
from repro.service.status import status_file_path

SOCKET_FILE = "service.sock"

#: Unix-domain socket paths are limited to ~108 bytes; repositories in
#: deeply nested directories fall back to an /tmp path keyed by the
#: repository root (recorded in service.json, so clients still find it).
_MAX_SOCKET_PATH = 100

#: Seconds between the housekeeping thread's degraded-save probes.
PROBE_INTERVAL = 30.0

#: Seconds the drain waits for queued work before closing connections.
DRAIN_TIMEOUT = 30.0

#: Seconds a connection waits for its scheduled job's answer.
REQUEST_TIMEOUT = 120.0

#: Exceptions the *request* caused (bad version id, missing file, a
#: malformed argument): answered with ``error_kind: user`` and never
#: counted as worker crashes. Everything else is an internal failure —
#: contained, counted, and quarantine-tracked.
_USER_ERRORS = (
    CVDError,
    ValueError,
    KeyError,
    TypeError,
    FileNotFoundError,
    PermissionError,
)


def default_socket_path(root: str | None = None) -> str:
    path = str(Path(root or ".").resolve() / ".orpheus" / SOCKET_FILE)
    if len(path.encode()) <= _MAX_SOCKET_PATH:
        return path
    digest = hashlib.sha256(path.encode()).hexdigest()[:16]
    return f"/tmp/orpheusd-{digest}.sock"


@dataclass
class ServiceConfig:
    """Everything tunable about one daemon."""

    root: str | None = None
    socket_path: str | None = None
    tcp: tuple[str, int] | None = None
    workers: int = DEFAULT_WORKERS
    cache_bytes: int = DEFAULT_BUDGET_BYTES
    read_queue_depth: int = DEFAULT_READ_QUEUE_DEPTH
    write_queue_depth: int = DEFAULT_WRITE_QUEUE_DEPTH
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT
    #: None disables the HTTP monitoring sidecar; 0 binds an ephemeral
    #: port (recorded in service.json for scrapers to discover).
    metrics_port: int | None = None
    metrics_host: str = "127.0.0.1"
    #: Requests at least this slow (ms) keep their spans in the flight
    #: record.
    slow_ms: float = DEFAULT_SLOW_MS

    def resolved_socket(self) -> str:
        return self.socket_path or default_socket_path(self.root)


class ServiceDaemon:
    """One running orpheusd instance."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.root = self.config.root
        self.orpheus = None
        self.cache = VersionCache(self.config.cache_bytes)
        self.scheduler = RequestScheduler(
            workers=self.config.workers,
            read_queue_depth=self.config.read_queue_depth,
            write_queue_depth=self.config.write_queue_depth,
        )
        self.sessions = SessionManager(self.config.idle_timeout)
        self.journal = Journal(self.root)
        #: The line closing the last write's ``begin``, while its append
        #: has not landed (see :meth:`_close`).
        self._owed: OpRecord | dict | None = None
        self._lock: RepositoryLock | None = None
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._channels: set[LineChannel] = set()
        self._channels_lock = threading.Lock()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_mutex = threading.Lock()
        self.started_ts: float | None = None
        #: Fault-tolerance surfaces: degraded read-only mode and the
        #: poison-request quarantine.
        self.degrade = DegradeController()
        self.quarantine = Quarantine()
        self._was_telemetry_enabled = False
        #: The one request ledger: every outcome is counted there, at
        #: finalize.
        self.metrics = ServiceMetrics()
        #: One serving epoch: fresh per start, stamped on every flight
        #: segment and status payload so readers (and `orpheus top`)
        #: can tell a restart from a counter glitch.
        self.boot_id = new_boot_id()
        self.recorder = FlightRecorder(
            self.root, slow_ms=self.config.slow_ms, boot_id=self.boot_id
        )
        self._metrics_server = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceDaemon":
        """Acquire ownership, recover, load state, bind, go."""
        from repro.cli import load_state

        self._was_telemetry_enabled = telemetry.is_enabled()
        telemetry.reset()
        telemetry.enable()
        self._lock = RepositoryLock(
            self.root, shared=False, command="serve"
        ).acquire()
        try:
            if needs_recovery(self.root):
                report = run_recovery(self.root, dry_run=False)
                if report.actions:
                    sys.stderr.write(
                        f"orpheusd: recovered {len(report.actions)} torn "
                        f"operation(s) from a previous crash at startup\n"
                    )
            self.orpheus = load_state(self.root)
            self._bind()
            if self.config.metrics_port is not None:
                from repro.service.httpmon import MetricsServer

                self._metrics_server = MetricsServer(
                    self,
                    host=self.config.metrics_host,
                    port=self.config.metrics_port,
                )
                self._metrics_server.start()
            self.started_ts = telemetry.now()
            self._write_status_file()
            self.scheduler.start()
            for listener in self._listeners:
                thread = threading.Thread(
                    target=self._accept_loop,
                    args=(listener,),
                    name="orpheusd-accept",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
            housekeeper = threading.Thread(
                target=self._housekeeping_loop,
                name="orpheusd-housekeeping",
                daemon=True,
            )
            housekeeper.start()
            self._threads.append(housekeeper)
            telemetry.count("service.daemon.starts")
        except BaseException:
            self._release_lock()
            raise
        return self

    def serve_forever(self) -> None:
        """Block until a shutdown is requested, then drain."""
        self._stop.wait()
        self.shutdown()

    def request_shutdown(self) -> None:
        """Signal-handler-safe: ask the daemon to drain and exit."""
        self._stop.set()

    def shutdown(self) -> None:
        """Graceful drain; idempotent and safe to race from two threads."""
        with self._shutdown_mutex:
            if self._stopped.is_set():
                return
            self._do_shutdown()

    def _do_shutdown(self) -> None:
        self._stop.set()
        self.sessions.begin_drain()
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        if self._metrics_server is not None:
            try:
                self._metrics_server.stop()
            except Exception:
                pass
            self._metrics_server = None
        self.scheduler.stop(timeout=DRAIN_TIMEOUT)
        with self._channels_lock:
            channels = list(self._channels)
        for channel in channels:
            channel.close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()
        if self.orpheus is not None:
            try:
                self._save_state_guarded(bracket=True)
            except Exception:
                # Best-effort on the way out: a still-failing save must
                # not block socket/lock cleanup (the state on disk is
                # the last durable one; nothing acked depends on this).
                pass
        self.recorder.close()
        socket_path = self.config.resolved_socket()
        try:
            os.unlink(socket_path)
        except OSError:
            pass
        try:
            status_file_path(self.root).unlink()
        except OSError:
            pass
        self._release_lock()
        if not self._was_telemetry_enabled:
            telemetry.disable()
        self._stopped.set()

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        socket_path = self.config.resolved_socket()
        Path(socket_path).parent.mkdir(parents=True, exist_ok=True)
        try:
            os.unlink(socket_path)
        except OSError:
            pass
        unix = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        unix.bind(socket_path)
        unix.listen(64)
        unix.settimeout(0.25)
        self._listeners.append(unix)
        if self.config.tcp is not None:
            host, port = self.config.tcp
            tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind((host, port))
            tcp.listen(64)
            tcp.settimeout(0.25)
            self._listeners.append(tcp)
            # Rebind may have picked an ephemeral port; record reality.
            self.config.tcp = tcp.getsockname()[:2]

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                sock, addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            peer = f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple) else "unix"
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock, peer),
                name="orpheusd-conn",
                daemon=True,
            )
            thread.start()

    def _housekeeping_loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL):
            self._probe_degraded()

    def _probe_degraded(self) -> None:
        """While degraded, periodically probe the save path; the first
        success auto-exits read-only mode. Writes are refused while
        degraded, so without this probe nothing would ever retry the
        save and the daemon could never heal."""
        if not self.degrade.degraded:
            return
        with self.scheduler.lock.write_locked():
            if not self.degrade.degraded:
                return
            try:
                self._save_state_guarded(bracket=True)
            except Exception:
                return  # still degraded; the next interval retries

    # ------------------------------------------------------------------
    # Connections and dispatch
    # ------------------------------------------------------------------
    def _serve_connection(self, sock: socket.socket, peer: str) -> None:
        sock.settimeout(self.config.idle_timeout)
        channel = LineChannel(sock)
        with self._channels_lock:
            self._channels.add(channel)
        session = None
        try:
            session = self._handshake(channel, peer)
            if session is None:
                return
            while not self._stop.is_set():
                try:
                    line = channel.recv_line()
                except socket.timeout:
                    if self.sessions.idle_expired(session):
                        self.sessions.note_idle_close()
                        return
                    continue
                except (protocol.ProtocolError, OSError):
                    return
                if line is None:
                    return
                request = rtrace = kind = None
                try:
                    request = protocol.decode_request(line)
                    kind = failpoints.fire("conn.after_recv")
                except (
                    protocol.ProtocolError, failpoints.FailpointError
                ) as error:
                    # Refused before dispatch (garbage frame, or the
                    # 'error' action at the receive site): answered,
                    # but not traced or counted against the session.
                    response = Response(
                        id=request.id if request else 0,
                        status=protocol.ERROR,
                        error=str(error),
                        error_type=type(error).__name__,
                        error_kind="internal" if request else None,
                    )
                else:
                    if kind in ("reset", "torn"):
                        # Connection-level fault after the request
                        # arrived: the client sees a reset, never a
                        # torn response.
                        channel.abort()
                        return
                    session.touch()
                    rtrace = RequestTrace.from_request(request, session)
                    response = self._handle_request(session, request, rtrace)
                    try:
                        kind = failpoints.fire("conn.before_send")
                    except failpoints.FailpointError:
                        # The 'error' action at the send site behaves
                        # like a failed write: drop the connection,
                        # keep the daemon.
                        kind = "reset"
                frame = protocol.encode_response(response)
                send_failed = kind in ("reset", "torn")
                if kind == "reset":
                    channel.abort()
                elif kind == "torn":
                    channel.send_torn(frame)
                else:
                    try:
                        channel.send(frame)
                    except OSError:
                        send_failed = True
                # An idle connection must not keep its last request or
                # response alive while it waits for the next request.
                del frame, response
                if rtrace is not None:
                    # The serialize phase closes only once the bytes are
                    # on the wire (or the send failed); finalize
                    # regardless so even a request whose client vanished
                    # leaves a span.
                    rtrace.mark_sent()
                    self._finalize_request(rtrace, request)
                del line, request, rtrace
                if send_failed:
                    return
                if session.wants_shutdown:
                    self.request_shutdown()
                    return
        finally:
            if session is not None:
                self.sessions.close(session)
            with self._channels_lock:
                self._channels.discard(channel)
            channel.close()

    def _handshake(self, channel: LineChannel, peer: str):
        try:
            line = channel.recv_line()
        except (socket.timeout, protocol.ProtocolError, OSError):
            return None
        if line is None:
            return None
        request = None
        try:
            request = protocol.decode_request(line)
            if request.op != "hello":
                raise HandshakeError(
                    f"first request must be 'hello', got {request.op!r}"
                )
            session = self.sessions.open(
                request.params, self.orpheus.access._users, peer=peer
            )
        except (HandshakeError, protocol.ProtocolError) as error:
            try:
                channel.send(
                    protocol.encode_response(
                        Response(
                            id=request.id if request is not None else 0,
                            status=protocol.DENIED,
                            error=str(error),
                            error_type=type(error).__name__,
                        )
                    )
                )
            except OSError:
                pass
            return None
        channel.send(
            protocol.encode_response(
                Response(
                    id=request.id,
                    status=protocol.OK,
                    data={
                        "session_id": session.session_id,
                        "protocol": protocol.PROTOCOL_VERSION,
                        "server": "orpheusd",
                        "pid": os.getpid(),
                        "boot_id": self.boot_id,
                        "user": session.user,
                    },
                )
            )
        )
        return session

    def _handle_request(
        self, session, request: Request, rtrace: RequestTrace
    ) -> Response:
        response = self._dispatch_request(session, request, rtrace)
        rtrace.finish(
            "ok" if response.ok else response.status,
            response.error_type,
            error_kind=response.error_kind,
        )
        response.trace = rtrace.wire_trace()
        return response

    def _dispatch_request(
        self, session, request: Request, rtrace: RequestTrace
    ) -> Response:
        if self.sessions.draining and request.op != "shutdown":
            return Response(
                id=request.id,
                status=protocol.SHUTDOWN,
                error="daemon is draining",
            )
        try:
            if request.op in protocol.CONTROL_OPS:
                # Control ops run inline: admission and queue wait are
                # zero by construction, execution is the handler.
                rtrace.mark_admitted()
                rtrace.mark_started()
                try:
                    return self._handle_control(session, request)
                finally:
                    rtrace.mark_executed()
            # One digest per scheduled request: the quarantine keys on
            # it, the flight recorder reuses it.
            rtrace.digest = args_digest(request.op, request.params)
            if rtrace.expired():
                # Dead on arrival: the client's budget expired before
                # admission (e.g. burned by earlier busy retries).
                rtrace.mark_admitted()
                return self._deadline_response(request, "at admission")
            self.quarantine.check(rtrace.digest, request.op)
            if request.op in protocol.READ_OPS:
                job = self.scheduler.submit_read(
                    lambda: self._execute(session, request, rtrace, False),
                    deadline=rtrace.deadline_at,
                )
            elif request.op in protocol.WRITE_OPS:
                # Degraded read-only mode refuses mutations up front —
                # before they occupy writer-queue capacity.
                self.degrade.check_writable()
                job = self.scheduler.submit_write(
                    lambda: self._execute(session, request, rtrace, True),
                    dataset=request.get("dataset"),
                    deadline=rtrace.deadline_at,
                )
            else:
                rtrace.mark_admitted()
                return Response(
                    id=request.id,
                    status=protocol.ERROR,
                    error=f"unknown op {request.op!r}",
                    error_type="ProtocolError",
                    error_kind="user",
                )
            # The job's own submission stamp avoids a race with a worker
            # that started before this thread resumed.
            rtrace.t_admitted = job.submitted_at
            data = job.wait(REQUEST_TIMEOUT)
            return Response(id=request.id, status=protocol.OK, data=data)
        except QueueFullError as error:
            # Shed before it ever queued: admission is the terminal
            # phase of this trace, and the client still gets the ids.
            rtrace.mark_admitted()
            return Response(
                id=request.id,
                status=protocol.BUSY,
                error=str(error),
                error_type="QueueFullError",
            )
        except SchedulerStoppedError as error:
            return Response(
                id=request.id, status=protocol.SHUTDOWN, error=str(error)
            )
        except DeadlineExceededError as error:
            return self._deadline_response(request, str(error))
        except DegradedError as error:
            rtrace.mark_admitted()
            return Response(
                id=request.id,
                status=protocol.DEGRADED,
                error=str(error),
                error_type="DegradedError",
            )
        except QuarantinedRequestError as error:
            rtrace.mark_admitted()
            return Response(
                id=request.id,
                status=protocol.ERROR,
                error=str(error),
                error_type="QuarantinedRequestError",
                error_kind="user",
            )
        except Exception as error:
            return self._error_response(request, rtrace, error)

    def _deadline_response(self, request: Request, where: str) -> Response:
        return Response(
            id=request.id,
            status=protocol.DEADLINE_EXCEEDED,
            error=f"deadline exceeded: {where}",
            error_type="DeadlineExceededError",
        )

    def _error_response(
        self, request: Request, rtrace: RequestTrace, error: BaseException
    ) -> Response:
        """Classify a worker exception: user errors answer the client
        and stop there; internal errors additionally feed the
        quarantine and are flagged on the wire (the metrics ledger
        counts them as worker errors) so clients know the server — not
        the request — failed. Either way the daemon survives."""
        kind = "user" if isinstance(error, _USER_ERRORS) else "internal"
        if kind == "internal" and rtrace.digest:
            self.quarantine.note_crash(rtrace.digest, request.op, error)
        return Response(
            id=request.id,
            status=protocol.ERROR,
            error=str(error),
            error_type=type(error).__name__,
            error_kind=kind,
        )

    def _handle_control(self, session, request: Request) -> Response:
        if request.op == "ping":
            return Response(
                id=request.id, status=protocol.OK, data={"pong": True}
            )
        if request.op == "hello":
            return Response(
                id=request.id,
                status=protocol.ERROR,
                error="already shook hands",
                error_type="ProtocolError",
            )
        if request.op == "stats":
            recent = request.get("recent") or 0
            try:
                recent = max(0, int(recent))
            except (TypeError, ValueError):
                recent = 0
            return Response(
                id=request.id,
                status=protocol.OK,
                data=self.stats_payload(recent=recent),
            )
        if request.op == "flush_cache":
            dropped = self.cache.clear()
            return Response(
                id=request.id, status=protocol.OK, data={"dropped": dropped}
            )
        if request.op == "flush_quarantine":
            dropped = self.quarantine.flush()
            return Response(
                id=request.id, status=protocol.OK, data={"dropped": dropped}
            )
        if request.op == "shutdown":
            # Deferred: the connection loop triggers the drain only after
            # this acknowledgement has been flushed to the client.
            session.wants_shutdown = True
            return Response(
                id=request.id, status=protocol.OK, data={"stopping": True}
            )
        raise AssertionError(request.op)

    # ------------------------------------------------------------------
    # Execution (worker pool for reads, writer thread for writes)
    # ------------------------------------------------------------------
    def _execute(
        self, session, request: Request, rtrace: RequestTrace, write: bool
    ) -> dict:
        """Run one scheduled request. A write gets the CLI's durability
        bracket: ``begin`` -> execute -> state save -> op record. A drop
        evicts its dataset's cache entries once saved; a commit admits
        its version last. ``begin`` lines and op records carry the
        *client's* trace id (and session id), so remote work correlates
        end to end."""
        rtrace.mark_started()
        failpoints.fire("worker.before_execute")
        op, params = request.op, request.params
        trace_id = rtrace.trace_id
        dataset = params.get("dataset")
        record = None
        if journals(op, params):
            record = make_record(trace_id, op, user=session.user)
            record.session_id = rtrace.session_id
        bracketed = write and record is not None
        close = self._close if bracketed else self.journal.append
        if bracketed:
            self._begin(trace_id, op, dataset=dataset, file=params.get("file"))
        span_ctx = telemetry.span(
            f"service.{op}",
            dataset=dataset or "",
            user=session.user,
            trace_id=trace_id,
        )
        before = self._cost_snapshot()
        try:
            try:
                with span_ctx:
                    data = self._run_op(session, request)
                    failpoints.fire("worker.mid_execute")
                if write:
                    self._save_state_guarded()
            except Exception as error:
                if record is not None:
                    close(fill_record(record, params, error=error))
                if write and not isinstance(error, _USER_ERRORS):
                    # Internal failure (worker crash mid-mutation, or a
                    # save that left memory ahead of disk): re-anchor
                    # the in-memory state to the last durable save so a
                    # NACKed mutation can never be observed by later
                    # reads or built on by later commits. User errors
                    # skip this — their commands failed before mutating,
                    # and a reload would drop live staging pins.
                    self._reload_state(dataset)
                raise
            if op == "drop":
                # Durable, and a re-init may reuse the vids: evict now.
                self.cache.invalidate(lambda name, _vids: name == dataset)
            if record is not None:
                close(fill_record(record, params, data))
            if op == "commit":
                self._admit(dataset, data["version"])
            fields = op_fields(op, params, data)
            rtrace.version_ids = tuple(requested_versions(fields))
            if fields["rows"] is not None:
                rtrace.rows_returned = fields["rows"]
            if op == "checkout":
                rtrace.cached = bool(data.get("cached"))
            return data
        finally:
            # Graft the worker's live span subtree (cache lookup,
            # materialization, ...) under the request's execute phase.
            rtrace.exec_node = getattr(span_ctx, "node", None)
            rtrace.mark_executed()
            self._stamp_io(rtrace, before)

    def _run_op(self, session, request: Request) -> dict:
        """The command itself: the shared :meth:`Orpheus.execute`, except
        checkout (through the version cache) and the daemon's own
        ``doctor``."""
        if request.op == "checkout":
            return self._op_checkout(session, request)
        if request.op == "doctor":
            from repro.observe.doctor import run_doctor

            return run_doctor(
                self.orpheus, self.root, self.stats_payload()
            ).to_dict()
        return self.orpheus.execute(
            request.op, request.params, session.user, root=self.root
        )

    def _cost_snapshot(self):
        """The shared accountant's counters before a handler runs (None
        when no state is loaded yet)."""
        if self.orpheus is None:
            return None
        return self.orpheus.database.accountant.snapshot()

    def _stamp_io(self, rtrace: RequestTrace, before) -> None:
        """Stamp the handler's storage-access delta onto the trace.

        Concurrent readers share one accountant, so under a busy worker
        pool a delta can include a neighbor's rows — the stamps are a
        workload-accounting signal, not an exactness proof; totals
        across the workload are exact.
        """
        if before is None or self.orpheus is None:
            return
        delta = self.orpheus.database.accountant.snapshot() - before
        rtrace.rows_scanned = delta.seq_rows + delta.random_rows
        rtrace.bytes_scanned = delta.bytes_read
        rtrace.rows_written = delta.rows_written

    def _op_checkout(self, session, request: Request) -> dict:
        """The shared checkout command, materializing through the
        version cache; an inline checkout (no file) also gets the rows,
        as the entry's already-encoded body."""
        dataset = request.get("dataset")
        inline = bool(request.get("inline"))
        cached, entry = False, None

        def through_cache(cvd, vids):
            nonlocal cached, entry
            with telemetry.span(
                "service.checkout.cache_lookup", dataset=dataset
            ) as lookup:
                entry = self.cache.get(dataset, vids, cvd.schema)
                if entry is not None:
                    if failpoints.fire("cache.corrupt_entry") == "corrupt":
                        entry.corrupt()
                    if not entry.verify():
                        # Integrity seal mismatch: contain the rot —
                        # drop the entry and rematerialize from version
                        # storage rather than serving corrupted history.
                        self.cache.drop(dataset, vids, cvd.schema)
                        telemetry.count("service.cache.corruption_detected")
                        entry = None
                cached = entry is not None
                if lookup is not None:
                    lookup.set_attr("hit", cached)
            if entry is None:
                with telemetry.span(
                    "service.checkout.materialize", dataset=dataset
                ):
                    result = cvd.checkout(vids)
                rids, rows = result.rids, result.rows
                body = None
                if inline:  # a record never encoded: its row is in hand
                    with telemetry.span(
                        "service.checkout.encode", dataset=dataset
                    ):
                        body = protocol.encode_rows(
                            rids,
                            cvd.json_fragments,
                            lambda lack: [*map(dict(zip(rids, rows)).get, lack)],
                        )
                entry = CacheEntry(
                    list(result.columns),
                    rows,
                    tuple(result.parents),
                    body=body,
                    rids=rid_array(rids) if len(vids) > 1 else None,
                )
            elif inline and entry.body is None:
                # An entry a commit or a file checkout admitted: its
                # first inline hit encodes the rows, a record once per
                # CVD (the body joins the records' memoized fragments).
                # Admitting again keeps the byte budget exact.
                vid = vids[0] if len(vids) == 1 else None
                with telemetry.span(
                    "service.checkout.encode", dataset=dataset
                ):
                    body = protocol.encode_rows(
                        entry.rids if vid is None else cvd.membership(vid),
                        cvd.json_fragments,
                        lambda lack: cvd.payloads_of(lack, vid),
                    )
                entry = replace(
                    entry, body=body, size_bytes=entry.size_bytes + len(body)
                )
            else:
                return entry  # a file checkout never builds a body
            self.cache.put(dataset, vids, entry, cvd.schema)
            return entry if cached else result

        data = self.orpheus.cmd_checkout(
            request.params, session.user, through_cache
        )
        data["cached"] = cached
        if inline:
            # Already-encoded bytes: the frame builder splices them.
            data["data"] = entry.body
        return data

    def _admit(self, dataset: str, vid: int) -> None:
        """Write-through: admit the version a commit just made durable,
        as its checkout would: its count, sized by a sample of its
        payloads (memo hits after the commit)."""
        cvd = self.orpheus.cvd(dataset)
        rids = cvd.membership(vid)
        sample = cvd.payloads_of(size_sample(rids), vid)
        entry = CacheEntry(
            cvd.schema.column_names, sample, (vid,), count=len(rids)
        )
        self.cache.put(dataset, [vid], entry, cvd.schema)

    # ------------------------------------------------------------------
    # State persistence (guarded by the degrade controller)
    # ------------------------------------------------------------------
    def _save_state_guarded(self, bracket: bool = False) -> None:
        """One durable state save, feeding the degrade controller: a
        failure (including the ``state.before_save`` chaos site) counts
        toward the degraded-mode threshold, a success resets it — and,
        when degraded, flips the daemon back to read-write. The daemon
        writes the paged layout, so a commit encodes the rows it
        appended as new chunks (and a table's open run again when they
        seal it) instead of re-pickling the whole history.

        A save no write asked for (the degraded-mode probe, the drain)
        passes ``bracket`` and runs under a ``serve`` bracket of its
        own, closed by a ``done`` line, as a write's save runs under the
        write's: a crash inside it leaves page debris that the next
        start's recovery then cleans."""
        trace_id = new_trace_id() if bracket else None
        if trace_id:
            self._begin(trace_id, "serve")
        try:
            failpoints.fire("state.before_save")
            StateStore(self.root).save(self.orpheus, prefer="paged")
        except Exception as error:
            if trace_id:
                self._close(close_line(trace_id, "error"))
            self.degrade.record_save_failure(error)
            raise
        if trace_id:
            self._close(close_line(trace_id, "ok"))
        self.degrade.record_save_success()

    def _begin(self, trace_id: str, command: str, **details) -> None:
        """Open a bracket (the writer lock is held). An owed close whose
        ``begin`` is still open is appended first: the journal's pending
        check reads only its tail, which holds only while no ``begin``
        follows an open one."""
        if self._owed is not None and self.journal.pending():
            self._close(self._owed)
        self._owed = None
        self.journal.begin(trace_id, command, **details)

    def _close(self, line: OpRecord | dict) -> None:
        """Append the line that closes a bracket: the write's op record,
        or a ``done`` line. Until an append of it lands it is owed."""
        self._owed = line
        self.journal.append(line)
        self._owed = None

    def _reload_state(self, dataset: str | None = None) -> None:
        """Re-anchor in-memory state to the last durable save (called
        with the exclusive writer lock already held). The failed write
        admitted nothing, so the cache keeps every entry whose versions
        the reloaded state holds; the rest (versions a failed reload
        left readable from memory) go."""
        from repro.cli import load_state

        try:
            self.orpheus = load_state(self.root)
        except Exception:
            # Disk worse than memory (e.g. the volume is gone): keep
            # serving reads from memory rather than dying here. The
            # failed write may have torn the dataset in memory; its
            # entries go, so hits and misses read one state.
            telemetry.count("service.state.reload_failures")
            self.cache.invalidate(lambda name, _vids: name == dataset)
            return
        telemetry.count("service.state.reloads")
        cvds = self.orpheus._cvds
        self.cache.invalidate(
            lambda name, vids: name not in cvds
            or not all(vid in cvds[name].versions for vid in vids)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _finalize_request(
        self, rtrace: RequestTrace, request: Request
    ) -> None:
        """Fold one finished request into every observability surface:
        its flight record (with spans when slow) and the metrics
        ledger."""
        slow = rtrace.total_s * 1000.0 >= self.config.slow_ms
        try:
            self.recorder.record(rtrace, request, slow)
        except Exception:
            pass  # recording never kills the connection
        self.metrics.record(rtrace, slow=slow)

    def _identity(self) -> dict:
        """Who this daemon is and where to reach it: the whole of
        ``.orpheus/service.json`` and the identity half of the report's
        ``server`` block."""
        return {
            "pid": os.getpid(),
            "boot_id": self.boot_id,
            "protocol": protocol.PROTOCOL_VERSION,
            "root": str(Path(self.root or ".").resolve()),
            "socket": self.config.resolved_socket(),
            "tcp": list(self.config.tcp) if self.config.tcp else None,
            "metrics": (
                self._metrics_server.address
                if self._metrics_server is not None
                else None
            ),
            "started_ts": self.started_ts,
        }

    def stats_payload(self, recent: int = 0) -> dict:
        """The daemon's one report, behind the ``stats`` op (``orpheus
        remote --json stats``), ``/stats``, ``/metrics``
        (:func:`~repro.service.metrics.exposition`), ``orpheus top`` and
        the doctor's ``service_health`` probe. Built outside the
        scheduler, so it never waits for a writer; nothing here iterates
        what a writer mutates."""
        payload = self.metrics.to_dict(recent=recent)
        started = self.started_ts
        payload["uptime_s"] = round(
            max(0.0, telemetry.now() - started) if started else 0.0, 3
        )
        orpheus = self.orpheus
        payload["server"] = {
            "name": "orpheusd",
            **self._identity(),
            "draining": self.sessions.draining,
            "datasets": len(orpheus._cvds) if orpheus is not None else 0,
            "slow_ms": self.config.slow_ms,
        }
        payload["scheduler"] = self.scheduler.status()
        payload["cache"] = self.cache.stats().to_dict()
        payload["sessions"] = self.sessions.status()
        payload["flight"] = self.recorder.status()
        payload["degrade"] = self.degrade.status()
        payload["quarantine"] = self.quarantine.status()
        payload["faults"] = failpoints.stats()
        # Pages read from their files; the block keeps its old name,
        # which ``benchmarks/e2e`` reads.
        from repro.pagestore.store import page_reads

        payload["buffer_pool"] = page_reads().stats()
        # What the ledger has no field for, counted since this start.
        payload["telemetry"] = {
            "counters": telemetry.get_registry().counters("service.")
        }
        return payload

    @property
    def draining(self) -> bool:
        return self.sessions.draining

    def _write_status_file(self) -> None:
        fsio.atomic_write(
            status_file_path(self.root),
            json.dumps(self._identity(), indent=2, sort_keys=True).encode(
                "utf-8"
            ),
            fsync=False,
        )
