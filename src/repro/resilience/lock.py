"""Advisory repository locking with retry, backoff, and stale detection.

Two concurrent ``orpheus`` processes used to read the same ``state.pkl``,
mutate independently, and clobber each other on save — the classic lost
update. Every CLI invocation now brackets its work in a
:class:`RepositoryLock` on ``.orpheus/repo.lock``:

* **exclusive** for mutating commands (init/checkout/commit/drop/
  optimize/user management/recover/stats --reset),
* **shared** for readers (ls/log/diff/doctor/stats), so reads never
  queue behind each other.

The primary implementation is ``fcntl.flock`` — the kernel releases it
when the holder dies, so a crashed process can never wedge the
repository. On platforms without ``fcntl`` an ``O_EXCL`` lock-file
fallback takes over; there stale locks *are* possible, so the fallback
breaks locks whose recorded pid is dead or whose file has not been
touched within ``stale_after`` seconds.

Contention is surfaced in telemetry: ``resilience.lock.acquired`` /
``.contention`` / ``.stale_broken`` counters and the
``resilience.lock.wait_seconds`` histogram, all visible in
``orpheus stats``. Waiters retry with jittered exponential backoff and
give up after ``timeout`` seconds (``ORPHEUS_LOCK_TIMEOUT`` overrides)
with an error naming the holder.

:func:`fold_lock` is the second, much shorter lock: readers share the
repository lock, so the one read-modify-write they all do — folding
their telemetry into the accumulator — queues on a file of its own
instead.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro import telemetry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

LOCK_FILE = "repo.lock"
FOLD_LOCK_FILE = "fold.lock"
ENV_TIMEOUT = "ORPHEUS_LOCK_TIMEOUT"
DEFAULT_TIMEOUT = 10.0
#: Fallback mode only: a lock file older than this with a dead holder is
#: broken automatically.
DEFAULT_STALE_AFTER = 15 * 60.0
_BACKOFF_BASE = 0.005
_BACKOFF_CAP = 0.25


class LockTimeoutError(RuntimeError):
    """Could not acquire the repository lock within the timeout."""


def pid_alive(pid: int) -> bool:
    """Does process ``pid`` exist? A permission error means it does (it
    belongs to someone else); any other error means it does not."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def holder_info(root: str | None = None) -> dict | None:
    """The metadata last written by an exclusive holder, or None."""
    path = Path(root or ".") / ".orpheus" / LOCK_FILE
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class RepositoryLock:
    """Advisory lock over one repository's ``.orpheus`` directory.

    Use as a context manager::

        with RepositoryLock(root, shared=False):
            ...mutate state...
    """

    def __init__(
        self,
        root: str | None = None,
        shared: bool = False,
        timeout: float | None = None,
        stale_after: float = DEFAULT_STALE_AFTER,
        use_fcntl: bool | None = None,
        command: str = "",
    ) -> None:
        self.dir = Path(root or ".") / ".orpheus"
        self.path = self.dir / LOCK_FILE
        self.shared = shared
        if timeout is None:
            env = os.environ.get(ENV_TIMEOUT)
            timeout = float(env) if env else DEFAULT_TIMEOUT
        self.timeout = timeout
        self.stale_after = stale_after
        self.use_fcntl = (fcntl is not None) if use_fcntl is None else use_fcntl
        self.command = command
        self._fd: int | None = None
        self._fallback_path = self.dir / (LOCK_FILE + ".excl")
        self._held_fallback = False

    # ------------------------------------------------------------------
    def acquire(self) -> "RepositoryLock":
        self.dir.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        started = time.monotonic()
        attempt = 0
        contended = False
        while True:
            if self._try_acquire():
                break
            if not contended:
                contended = True
                telemetry.count("resilience.lock.contention")
            if time.monotonic() >= deadline:
                raise LockTimeoutError(self._timeout_message())
            delay = min(_BACKOFF_CAP, _BACKOFF_BASE * (2**attempt))
            time.sleep(delay * random.uniform(0.5, 1.0))
            attempt += 1
        waited = time.monotonic() - started
        telemetry.count("resilience.lock.acquired")
        telemetry.observe("resilience.lock.wait_seconds", waited)
        if not self.shared:
            self._write_holder_metadata()
        return self

    def release(self) -> None:
        if self._fd is not None:
            if self.use_fcntl and fcntl is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(self._fd)
            self._fd = None
        if self._held_fallback:
            try:
                self._fallback_path.unlink()
            except OSError:
                pass
            self._held_fallback = False

    def __enter__(self) -> "RepositoryLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _try_acquire(self) -> bool:
        if self.use_fcntl and fcntl is not None:
            return self._try_flock()
        return self._try_fallback()

    def _try_flock(self) -> bool:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        mode = fcntl.LOCK_SH if self.shared else fcntl.LOCK_EX
        try:
            fcntl.flock(fd, mode | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def _try_fallback(self) -> bool:
        """``O_EXCL`` lock file (no shared mode: readers serialize too).

        Unlike ``flock``, a killed process leaves the file behind, so
        stale detection by pid liveness + mtime is load-bearing here.
        """
        try:
            fd = os.open(
                self._fallback_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            self._maybe_break_stale()
            return False
        with os.fdopen(fd, "w") as handle:
            json.dump({"pid": os.getpid(), "ts": telemetry.now()}, handle)
        self._held_fallback = True
        return True

    def _maybe_break_stale(self) -> None:
        try:
            stat = self._fallback_path.stat()
            data = json.loads(self._fallback_path.read_text())
        except (OSError, ValueError):
            return
        pid = int(data.get("pid", 0)) if isinstance(data, dict) else 0
        dead = not pid_alive(pid)
        expired = (time.time() - stat.st_mtime) > self.stale_after
        if dead or expired:
            try:
                self._fallback_path.unlink()
            except OSError:
                return
            telemetry.count("resilience.lock.stale_broken")
            sys.stderr.write(
                f"warning: broke stale repository lock (holder pid {pid} "
                f"{'dead' if dead else 'expired'})\n"
            )

    def _write_holder_metadata(self) -> None:
        """Record who holds the exclusive lock (doctor probe + timeout
        diagnostics). Best-effort: the flock itself is the truth."""
        if self._fd is None:
            return
        try:
            payload = json.dumps(
                {
                    "pid": os.getpid(),
                    "ts": telemetry.now(),
                    "command": self.command,
                }
            ).encode()
            os.ftruncate(self._fd, 0)
            os.pwrite(self._fd, payload, 0)
        except OSError:
            pass

    def _timeout_message(self) -> str:
        holder = holder_info(self.dir.parent) or {}
        pid = holder.get("pid")
        detail = ""
        if pid:
            state = "alive" if pid_alive(int(pid)) else "dead"
            detail = (
                f" (last exclusive holder: pid {pid}, {state}, "
                f"command {holder.get('command') or '?'!r})"
            )
        return (
            f"timed out after {self.timeout:.1f}s waiting for the "
            f"repository lock on {self.path}{detail}; retry, raise "
            f"{ENV_TIMEOUT}, or remove the lock file if the holder is gone"
        )


@contextmanager
def fold_lock(root: str | None = None):
    """Hold an exclusive ``flock`` on ``.orpheus/fold.lock`` around one
    fold into ``telemetry.json``, so readers
    that share the repository lock do not lose each other's updates.
    Blocking and short: a fold is a few file reads and writes. Without
    ``fcntl`` it is a no-op, because the fallback repository lock is
    exclusive for readers too."""
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path = Path(root or ".") / ".orpheus" / FOLD_LOCK_FILE
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the flock
