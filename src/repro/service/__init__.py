"""repro.service — the ``orpheusd`` concurrent version-service daemon.

Everything below the CLI assumed one process per invocation: load
``state.pkl``, mutate, save, exit, with an advisory file lock keeping
concurrent invocations from clobbering each other. That model pays the
full lock/load/save tax on every command and serializes *all* work —
readers included — behind ``flock``. This package adds the serving
layer the DataHub vision calls for: one daemon owns the repository and
multiplexes many clients over a newline-delimited JSON protocol, so
concurrency, caching, and backpressure become first-class subsystems:

* :mod:`repro.service.protocol` — the wire format: one JSON object per
  line, request/response envelopes, status codes (``ok`` / ``error`` /
  ``busy`` / ``denied`` / ``shutdown``).
* :mod:`repro.service.sessions` — handshake, authenticated user
  identity, idle timeouts, graceful drain.
* :mod:`repro.service.scheduler` — read-only operations fan out across
  a worker pool under a shared lock; mutations serialize through a
  single writer queue with per-CVD depth accounting and ``busy``
  load-shedding under backpressure.
* :mod:`repro.service.cache` — a byte-budgeted LRU of materialized,
  immutable versions: a commit admits its own version and evicts
  nothing, so repeated checkouts of hot versions, the new head
  included, are near-free.
* :mod:`repro.service.daemon` — the server: owns the repository lock
  for its lifetime, runs crash recovery at startup, journals mutations
  through the same operation journal as the CLI, and drains
  gracefully on SIGTERM.
* :mod:`repro.service.client` — the thin client library behind
  ``orpheus remote <cmd>``.
* :mod:`repro.service.recorder` — the always-on, bounded workload
  flight recorder behind ``.orpheus/journal/flight/``: one record per
  request, with the span breakdown of slow ones.
* chaos fault injection for the serving layer (connection resets,
  torn frames, worker exceptions, failing saves, cache corruption)
  uses the one registry in :mod:`repro.resilience.failpoints`; the
  site × action table is in ``docs/resilience.md``.
* :mod:`repro.service.degrade` — graceful degradation: degraded
  read-only mode on repeated save failures, and the poison-request
  quarantine for requests that crash workers.

Start it with ``orpheus serve``; inspect it with ``orpheus serve
--status`` or the ``service_health``/``service_faults`` doctor probes.
"""

from repro.service.cache import CacheStats, VersionCache
from repro.service.client import (
    CircuitBreaker,
    CircuitOpenError,
    ServiceBusyError,
    ServiceClient,
    ServiceDeadlineError,
    ServiceDegradedError,
    ServiceDeniedError,
    ServiceError,
    ServiceInternalError,
    ServiceUnavailableError,
    daemon_running,
    read_status_file,
)
from repro.service.daemon import ServiceConfig, ServiceDaemon, default_socket_path
from repro.service.degrade import (
    DegradeController,
    DegradedError,
    Quarantine,
    QuarantinedRequestError,
)
from repro.service.protocol import PROTOCOL_VERSION, Request, Response
from repro.service.recorder import FlightRecorder, read_flight
from repro.service.scheduler import QueueFullError, RequestScheduler
from repro.service.sessions import Session, SessionManager

__all__ = [
    "CacheStats",
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradeController",
    "DegradedError",
    "FlightRecorder",
    "PROTOCOL_VERSION",
    "Quarantine",
    "QuarantinedRequestError",
    "QueueFullError",
    "Request",
    "Response",
    "RequestScheduler",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceDeadlineError",
    "ServiceDegradedError",
    "ServiceDeniedError",
    "ServiceError",
    "ServiceInternalError",
    "ServiceUnavailableError",
    "Session",
    "SessionManager",
    "VersionCache",
    "daemon_running",
    "default_socket_path",
    "read_flight",
    "read_status_file",
]
