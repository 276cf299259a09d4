"""repro.resilience — crash safety and concurrency safety for the CLI.

OrpheusDB proper delegates durability and isolation to the host RDBMS;
this bolt-on reproduction persists everything in flat files under
``.orpheus/`` and therefore has to supply both itself. The pieces:

* :mod:`repro.resilience.statestore` — checksummed, atomically-replaced
  ``state.pkl`` with rotating backup generations and a corruption-
  tolerant load path.
* :mod:`repro.resilience.lock` — advisory repository lock (exclusive
  for writers, shared for readers) with backoff, stale detection, and
  telemetry.
* :mod:`repro.resilience.recovery` — classifies torn operations (a
  ``begin`` line in the operation journal that no later line closes)
  after a crash and rolls back or reconciles them (``orpheus recover``).
* :mod:`repro.resilience.fsio` — the one durable-file module: atomic
  replace and JSON-lines append/read for every file under
  ``.orpheus/``.
* :mod:`repro.resilience.failpoints` — the one fault-injection
  registry (``ORPHEUS_FAILPOINTS``), storage and daemon sites alike,
  proving all of the above.

See ``docs/resilience.md`` for the on-disk layout, which files fsync
and why, the site × action table, and the recovery walkthrough.
"""

from __future__ import annotations

from repro.resilience.failpoints import (
    CRASH_EXIT_CODE,
    FailpointError,
    REGISTERED,
)
from repro.resilience.lock import (
    LockTimeoutError,
    RepositoryLock,
    holder_info,
)
from repro.resilience.statestore import (
    LoadInfo,
    StateCorruptionError,
    StateStore,
)

# recovery imports repro.observe.journal, which itself fires failpoints
# from this package — resolve those names lazily to keep the import
# graph acyclic (observe.journal → failpoints must not re-enter here).
_LAZY = {"RecoveryAction", "RecoveryReport", "run_recovery"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.resilience import recovery

        return getattr(recovery, name)
    raise AttributeError(name)


__all__ = [
    "CRASH_EXIT_CODE",
    "FailpointError",
    "LoadInfo",
    "LockTimeoutError",
    "RecoveryAction",
    "RecoveryReport",
    "REGISTERED",
    "RepositoryLock",
    "StateCorruptionError",
    "StateStore",
    "holder_info",
    "run_recovery",
]
