"""Deterministic fault injection: the one failpoint registry.

A *failpoint* is a named site in a code path worth breaking on purpose:
the durability-critical storage steps (state store, journal, CSV
writer, page write-back) and the daemon's
request path (connection, worker, state save, cache). Sites call
:func:`fire`, which is one dict lookup when nothing is armed, so the
hooks stay in production code permanently.

Spec grammar, ``site=action[:arg][@count]`` separated by ``,`` or
``;``::

    ORPHEUS_FAILPOINTS="journal.before_append=delay:0.2,state.before_save=error@3"

Actions :func:`fire` performs itself, valid at every site:

* ``crash[:code]`` — ``os._exit`` (default :data:`CRASH_EXIT_CODE`):
  SIGKILL/power loss, no ``finally`` blocks, no ``atexit``, buffers
  dropped. The next invocation must auto-recover.
* ``error`` — raise :class:`FailpointError` (the exception paths).
* ``delay[:seconds]`` — sleep, then continue (widens race windows).

Actions :func:`fire` returns for the call site to perform, valid only
where :data:`SITE_ACTIONS` lists them:

* ``reset`` — connection sites: hard-close the socket (RST).
* ``torn`` — connection sites: send half the response frame, close.
* ``corrupt`` — cache site: mutate the cached entry in place so the
  integrity check must catch it.

``@count`` fires at most ``count`` times, then disarms — what makes
healing testable: ``state.before_save=error@3`` fails three saves and
then recovers, so degraded mode must both enter *and* exit.

Activation: ``ORPHEUS_FAILPOINTS`` in the environment, parsed at import
(a real subprocess dies at the injection point), or :func:`activate` /
:func:`clear` in-process. Every fireable site is listed in
:data:`REGISTERED`; firing or arming an unknown name raises, so the
crash and chaos matrices can enumerate the sets and know they cover
every injection point that exists.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass

ENV_VAR = "ORPHEUS_FAILPOINTS"

#: Exit code used by the ``crash`` action, distinctive so tests can tell
#: "died at the failpoint" from ordinary failure (1) or success (0).
CRASH_EXIT_CODE = 86

#: Storage-path sites; the crash matrices cover these.
STORAGE_SITES = frozenset(
    {
        # transactional state store (repro.resilience.statestore)
        "statestore.after_temp_write",
        "statestore.before_replace",
        "statestore.after_replace",
        # operation journal (repro.observe.journal)
        "journal.after_begin",
        "journal.before_append",
        "journal.after_append",
        # CSV writer (repro.core.csvio) — torn checkout files
        "csv.mid_write",
        # paged state layout (repro.pagestore.store) — dirty-page
        # write-back
        "pagestore.before_page_write",
        "pagestore.after_page_write",
    }
)

#: Request-path sites in repro.service.daemon; the chaos matrix covers
#: these.
SERVICE_SITES = frozenset(
    {
        "conn.after_recv",    # request decoded, before dispatch
        "conn.before_send",   # response built, before the bytes go out
        "worker.before_execute",   # picked up by a worker, handler not yet run
        "worker.mid_execute",      # handler ran, result not yet durable/returned
        "state.before_save",
        "cache.corrupt_entry",
    }
)

#: Every injection point threaded through the codebase.
REGISTERED = STORAGE_SITES | SERVICE_SITES

#: Actions only the call site can perform, by the sites that can.
SITE_ACTIONS = {
    "conn.after_recv": ("reset", "torn"),
    "conn.before_send": ("reset", "torn"),
    "cache.corrupt_entry": ("corrupt",),
}


class FailpointError(RuntimeError):
    """Raised by the ``error`` action at an armed failpoint."""


@dataclass
class _Armed:
    """One armed site: what to do and how many firings remain."""

    kind: str
    arg: float | int | None = None
    remaining: int | None = None  # None = unlimited

    def __str__(self) -> str:
        return (
            self.kind
            + (f":{self.arg}" if self.arg is not None else "")
            + (f"@{self.remaining}" if self.remaining is not None else "")
        )


_lock = threading.Lock()
_active: dict[str, _Armed] = {}
#: Lifetime fired-count per site (survives disarm; reset via clear()).
_fired: dict[str, int] = {}


def _arm(name: str, kind: str, arg, count: int | None) -> _Armed:
    """Validate one ``site=action[:arg][@count]`` triple."""
    if name not in REGISTERED:
        raise ValueError(
            f"unknown failpoint {name!r}; registered: "
            f"{', '.join(sorted(REGISTERED))}"
        )
    if count is not None and count <= 0:
        raise ValueError(f"failpoint count for {name!r} must be positive")
    site_actions = SITE_ACTIONS.get(name, ())
    given = arg not in (None, "")
    if kind == "crash":
        return _Armed(kind, int(arg) if given else CRASH_EXIT_CODE, count)
    if kind == "delay":
        return _Armed(kind, float(arg) if given else 0.05, count)
    if kind == "error" or kind in site_actions:
        return _Armed(kind, None, count)
    valid = ("crash[:code]", "error", "delay[:seconds]") + site_actions
    raise ValueError(
        f"unknown failpoint action {kind!r} for {name!r}; have "
        f"{', '.join(valid)} (suffix @N to limit firings)"
    )


def parse_spec(spec: str) -> dict[str, _Armed]:
    """Parse an ``ORPHEUS_FAILPOINTS`` value into an activation map."""
    parsed: dict[str, _Armed] = {}
    for item in spec.replace(";", ",").split(","):
        item = item.strip()
        if not item:
            continue
        name, eq, action = item.partition("=")
        if not eq:
            raise ValueError(
                f"malformed failpoint spec {item!r}: expected "
                f"site=action[:arg][@count]"
            )
        action, at, count = action.strip().partition("@")
        kind, _, arg = action.partition(":")
        name = name.strip()
        parsed[name] = _arm(name, kind, arg, int(count) if at else None)
    return parsed


def configure(spec: str) -> None:
    """Replace the active set from an env-style spec string."""
    parsed = parse_spec(spec)
    with _lock:
        _active.clear()
        _active.update(parsed)


def activate(
    name: str,
    action: str = "error",
    arg: float | int | None = None,
    count: int | None = None,
) -> None:
    """Arm one failpoint programmatically (in-process tests)."""
    armed = _arm(name, action, arg, count)
    with _lock:
        _active[name] = armed


def deactivate(name: str) -> None:
    with _lock:
        _active.pop(name, None)


def clear() -> None:
    """Disarm everything and reset the fired counters."""
    with _lock:
        _active.clear()
        _fired.clear()


def active() -> dict[str, _Armed]:
    with _lock:
        return dict(_active)


def stats() -> dict:
    """Armed sites + lifetime fired counts, for ``stats`` payloads."""
    with _lock:
        return {
            "armed": {
                name: str(armed) for name, armed in sorted(_active.items())
            },
            "fired": dict(sorted(_fired.items())),
            "fired_total": sum(_fired.values()),
        }


def fire(name: str) -> str | None:
    """Trigger the failpoint ``name`` if armed.

    ``delay`` sleeps, ``error`` raises :class:`FailpointError`,
    ``crash`` exits the process the way SIGKILL would. A site-specific
    action (``reset``/``torn``/``corrupt``) is returned for the call
    site to act on. Returns None when the site is not armed — one dict
    lookup, no lock.
    """
    if name not in _active:
        if name not in REGISTERED:
            raise ValueError(f"fired unregistered failpoint {name!r}")
        return None
    with _lock:
        armed = _active.get(name)
        if armed is None:
            return None
        if armed.remaining is not None:
            armed.remaining -= 1
            if armed.remaining <= 0:
                _active.pop(name, None)
        _fired[name] = _fired.get(name, 0) + 1
    if armed.kind == "delay":
        time.sleep(float(armed.arg))
        return None
    if armed.kind == "error":
        raise FailpointError(f"failpoint {name} triggered")
    if armed.kind == "crash":
        # Die the way SIGKILL would — no unwinding, no cleanup.
        sys.stderr.write(f"failpoint {name}: crashing (exit {armed.arg})\n")
        sys.stderr.flush()
        os._exit(int(armed.arg))
    return armed.kind


# Arm from the environment at import so a subprocess under test needs no
# cooperation beyond inheriting ORPHEUS_FAILPOINTS.
_env_spec = os.environ.get(ENV_VAR, "")
if _env_spec:
    configure(_env_spec)
