"""Graceful degradation: keep serving reads when writes cannot land.

Two containment mechanisms for orpheusd, both designed around the same
principle — a partial failure should shrink the service surface, not
take the daemon down:

**Degraded read-only mode** (:class:`DegradeController`). A mutation
is only acknowledged after a durable state save; when saves start
failing (full disk, yanked volume, permission flip), retrying writes
forever would burn the writer thread and lie to clients. After
``threshold`` *consecutive* save failures the daemon flips to degraded
mode: every write is refused up front with the ``degraded`` wire
status carrying the underlying cause, while reads and cache hits keep
flowing — the repository is still consistent in memory and on disk
(the failed save rolled back to the last durable state). The
housekeeping loop probes the save path while degraded; the first
success flips the daemon back automatically. Mode + cause are
surfaced in ``stats``, ``orpheus top``, and ``/healthz``.

**Worker-crash quarantine** (:class:`Quarantine`). A request that
raises an *internal* error (not a user error like a bad version id)
answers that one client with a typed error and never kills the daemon
— but a poisonous request that keeps crashing its worker should not
get unlimited swings. Crashes are counted per normalized-params
digest (the flight recorder's ``args_digest``); after ``strikes``
crashes the digest is quarantined and further identical requests are
refused immediately with a hint naming the digest, until an operator
clears it with ``orpheus remote -- flush-quarantine``.
"""

from __future__ import annotations

import threading

from repro import telemetry

#: Consecutive failed state saves before the daemon turns read-only.
DEFAULT_SAVE_FAILURE_THRESHOLD = 3

#: Internal-error strikes per params digest before refusal.
DEFAULT_QUARANTINE_STRIKES = 2

#: At most this many digests tracked; oldest evicted past the bound so
#: a high-cardinality error storm cannot grow memory without limit.
MAX_TRACKED_DIGESTS = 1024


class DegradedError(RuntimeError):
    """A write refused because the daemon is in degraded read-only mode."""

    def __init__(self, cause: str) -> None:
        super().__init__(
            f"daemon is in degraded read-only mode (state saves are "
            f"failing: {cause}); reads still work, retry writes after "
            f"the storage fault clears"
        )
        self.cause = cause


class QuarantinedRequestError(RuntimeError):
    """A request refused because identical requests crashed workers."""

    def __init__(self, digest: str, op: str, crashes: int) -> None:
        super().__init__(
            f"request quarantined: {op} with params digest {digest} "
            f"crashed its worker {crashes} time(s); fix the request or "
            f"clear the quarantine with `orpheus remote -- "
            f"flush-quarantine`"
        )
        self.digest = digest


class DegradeController:
    """Tracks state-save health and owns the degraded-mode flip.

    Thread-safe: the writer thread records failures/successes, the
    housekeeping thread probes, connection threads check. The flip is
    deliberately based on *consecutive* failures — one transient EIO
    among successes never degrades the daemon.
    """

    def __init__(
        self, threshold: int = DEFAULT_SAVE_FAILURE_THRESHOLD
    ) -> None:
        self.threshold = max(1, threshold)
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._degraded = False
        self._cause: str | None = None
        self._entered_ts: float | None = None
        self.save_failures_total = 0
        self.entries_total = 0
        self.exits_total = 0

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def cause(self) -> str | None:
        return self._cause

    def record_save_failure(self, error: BaseException) -> bool:
        """One failed state save; returns True when this failure
        flipped the daemon into degraded mode."""
        with self._lock:
            self.save_failures_total += 1
            self._consecutive_failures += 1
            if self._degraded or self._consecutive_failures < self.threshold:
                return False
            self._degraded = True
            self._cause = f"{type(error).__name__}: {error}"
            self._entered_ts = telemetry.now()
            self.entries_total += 1
            return True

    def record_save_success(self) -> bool:
        """One durable save; returns True when it exited degraded mode."""
        with self._lock:
            self._consecutive_failures = 0
            if not self._degraded:
                return False
            self._degraded = False
            self._cause = None
            self._entered_ts = None
            self.exits_total += 1
            return True

    def check_writable(self) -> None:
        """Raise :class:`DegradedError` when writes must be refused."""
        with self._lock:
            if self._degraded:
                raise DegradedError(self._cause or "unknown")

    def status(self) -> dict:
        with self._lock:
            return {
                "degraded": self._degraded,
                "cause": self._cause,
                "entered_ts": self._entered_ts,
                "threshold": self.threshold,
                "consecutive_save_failures": self._consecutive_failures,
                "save_failures_total": self.save_failures_total,
                "entries_total": self.entries_total,
                "exits_total": self.exits_total,
            }


class Quarantine:
    """Per-params-digest crash accounting with bounded memory."""

    def __init__(self, strikes: int = DEFAULT_QUARANTINE_STRIKES) -> None:
        self.strikes = max(1, strikes)
        self._lock = threading.Lock()
        #: digest -> {"op", "crashes", "last_error"}; insertion order
        #: doubles as the eviction order.
        self._crashes: dict[str, dict] = {}
        self.refused_total = 0

    def note_crash(self, digest: str, op: str, error: BaseException) -> int:
        """One internal error for this digest; returns the new count."""
        with self._lock:
            entry = self._crashes.get(digest)
            if entry is None:
                while len(self._crashes) >= MAX_TRACKED_DIGESTS:
                    self._crashes.pop(next(iter(self._crashes)))
                entry = self._crashes[digest] = {"op": op, "crashes": 0}
            entry["crashes"] += 1
            entry["last_error"] = f"{type(error).__name__}: {error}"
            if entry["crashes"] == self.strikes:
                telemetry.count("service.quarantine.added")
            return entry["crashes"]

    def check(self, digest: str, op: str) -> None:
        """Raise :class:`QuarantinedRequestError` for a poisoned digest."""
        with self._lock:
            entry = self._crashes.get(digest)
            if entry is None or entry["crashes"] < self.strikes:
                return
            self.refused_total += 1
            raise QuarantinedRequestError(digest, op, entry["crashes"])

    def flush(self) -> int:
        """Clear all tracked digests; returns how many were quarantined."""
        with self._lock:
            quarantined = sum(
                1
                for entry in self._crashes.values()
                if entry["crashes"] >= self.strikes
            )
            self._crashes.clear()
            return quarantined

    def status(self) -> dict:
        with self._lock:
            quarantined = {
                digest: dict(entry)
                for digest, entry in self._crashes.items()
                if entry["crashes"] >= self.strikes
            }
            return {
                "strikes": self.strikes,
                "tracked": len(self._crashes),
                "quarantined": len(quarantined),
                "refused_total": self.refused_total,
                "entries": quarantined,
            }
