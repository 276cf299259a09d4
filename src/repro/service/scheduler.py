"""The request scheduler: concurrent readers, one serialized writer.

The daemon's concurrency contract, enforced here rather than scattered
through handlers:

* **Read-only operations** (checkout, diff, log, ls, SQL/VQuel) run on
  a pool of worker threads, each holding the repository's **shared**
  lock, so a slow checkout never blocks an ``ls``.
* **Mutations** (commit, optimize, drop, ...) flow through a single
  writer thread holding the **exclusive** lock — commits are totally
  ordered, readers can never observe a half-applied commit, and the
  per-invocation load/save race the CLI solves with ``flock`` simply
  cannot arise.
* **Bounded queues + load shedding** — both queues have fixed depth;
  submissions past the bound fail fast with :class:`QueueFullError`
  (wire status ``busy``) instead of building an unbounded backlog.
  The writer queue additionally accounts depth **per CVD**, so one
  dataset's commit storm sheds its own traffic before it can occupy
  the whole queue and starve every other dataset.

The shared/exclusive lock is writer-preferring: a waiting writer blocks
*new* readers, so a steady read load cannot starve commits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry

#: Defaults; ``orpheus serve`` flags override.
DEFAULT_WORKERS = 4
DEFAULT_READ_QUEUE_DEPTH = 64
DEFAULT_WRITE_QUEUE_DEPTH = 8


class QueueFullError(RuntimeError):
    """The scheduler shed this request (bounded queue at capacity)."""


class SchedulerStoppedError(RuntimeError):
    """Submission after the scheduler began draining."""


class DeadlineExceededError(RuntimeError):
    """The request's propagated deadline expired before execution.

    Raised to the waiting connection thread when a worker pulls a job
    off the queue and finds its deadline already past — the client gave
    up on the answer, so running the handler would be pure waste (and
    under a backlog, waste that delays every request behind it).
    """


class ReadWriteLock:
    """Shared/exclusive lock, writer-preferring.

    Readers proceed concurrently; a writer waits for active readers to
    finish and blocks new readers from entering while it waits (so
    writers cannot starve under a steady read load).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc):
            self._release()
            return False

    def read_locked(self) -> "_Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Guard":
        return self._Guard(self.acquire_write, self.release_write)


@dataclass
class Job:
    """One scheduled unit of work; the connection thread waits on it."""

    fn: Callable[[], object]
    kind: str  # "read" | "write"
    dataset: str | None = None
    #: Absolute monotonic instant after which the job must be shed
    #: instead of run (None = no deadline).
    deadline: float | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: BaseException | None = None
    #: Queue-wait accounting: stamped at submission and again when a
    #: worker picks the job up (monotonic clock; None until each event).
    submitted_at: float | None = None
    started_at: float | None = None

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (telemetry.monotonic() if now is None else now) > self.deadline

    def run(self) -> None:
        self.started_at = telemetry.monotonic()
        try:
            self.result = self.fn()
        except BaseException as error:  # delivered to the waiter
            self.error = error
        finally:
            self._done.set()

    @property
    def queue_wait_s(self) -> float | None:
        if self.submitted_at is None or self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    def cancel(self, error: BaseException) -> None:
        self.error = error
        self._done.set()

    def wait(self, timeout: float | None = None) -> object:
        """Block until the job ran; re-raises its exception."""
        if not self._done.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self.error is not None:
            raise self.error
        return self.result


class _BoundedDeque:
    """A condition-guarded FIFO that rejects instead of blocking when
    full — the load-shedding primitive."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._items: list[Job] = []
        self._cond = threading.Condition()
        self._closed = False

    def put(self, job: Job) -> None:
        with self._cond:
            if self._closed:
                raise SchedulerStoppedError("scheduler is draining")
            if len(self._items) >= self.depth:
                raise QueueFullError("queue full")
            self._items.append(job)
            self._cond.notify()

    def get(self) -> Job | None:
        """Next job, or None once closed and drained."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if self._items:
                return self._items.pop(0)
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


class RequestScheduler:
    """Reader pool + serialized writer with bounded, shed-on-full queues."""

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        read_queue_depth: int = DEFAULT_READ_QUEUE_DEPTH,
        write_queue_depth: int = DEFAULT_WRITE_QUEUE_DEPTH,
        per_cvd_depth: int | None = None,
    ) -> None:
        self.workers = max(1, workers)
        self.lock = ReadWriteLock()
        self._reads = _BoundedDeque(read_queue_depth)
        self._writes = _BoundedDeque(write_queue_depth)
        #: Per-CVD writer-queue share: one hot dataset may hold at most
        #: this many queued mutations before its submissions shed.
        self.per_cvd_depth = (
            per_cvd_depth
            if per_cvd_depth is not None
            else max(1, write_queue_depth // 2)
        )
        self._pending_per_cvd: dict[str, int] = {}
        self._pending_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._started = False
        self.shed_reads = 0
        self.shed_writes = 0
        self.executed_reads = 0
        self.executed_writes = 0
        #: Jobs whose deadline expired while queued (shed pre-execute).
        self.deadline_shed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._read_loop,
                name=f"orpheusd-reader-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        writer = threading.Thread(
            target=self._write_loop, name="orpheusd-writer", daemon=True
        )
        writer.start()
        self._threads.append(writer)

    def submit_read(
        self, fn: Callable[[], object], deadline: float | None = None
    ) -> Job:
        job = Job(
            fn=fn, kind="read", deadline=deadline,
            submitted_at=telemetry.monotonic(),
        )
        try:
            self._reads.put(job)
        except QueueFullError:
            self.shed_reads += 1
            raise QueueFullError(
                f"read queue full ({self._reads.depth} pending); retry"
            ) from None
        return job

    def submit_write(
        self,
        fn: Callable[[], object],
        dataset: str | None = None,
        deadline: float | None = None,
    ) -> Job:
        key = dataset or ""
        with self._pending_lock:
            if (
                dataset is not None
                and self._pending_per_cvd.get(key, 0) >= self.per_cvd_depth
            ):
                self.shed_writes += 1
                raise QueueFullError(
                    f"writer queue full for dataset {dataset!r} "
                    f"({self.per_cvd_depth} pending); retry"
                )
            job = Job(
                fn=fn, kind="write", dataset=dataset, deadline=deadline,
                submitted_at=telemetry.monotonic(),
            )
            try:
                self._writes.put(job)
            except QueueFullError:
                self.shed_writes += 1
                raise QueueFullError(
                    f"writer queue full ({self._writes.depth} pending); retry"
                ) from None
            self._pending_per_cvd[key] = self._pending_per_cvd.get(key, 0) + 1
        return job

    # ------------------------------------------------------------------
    def _shed_expired(self, job: Job) -> bool:
        """Cancel a job whose deadline passed while it queued. The
        execute-phase boundary check: a worker never starts work the
        client has already abandoned."""
        if not job.expired():
            return False
        self.deadline_shed += 1
        job.cancel(
            DeadlineExceededError(
                f"deadline expired after "
                f"{0.0 if job.queue_wait_s is None else job.queue_wait_s:.3f}s"
                f" in the {job.kind} queue"
            )
        )
        return True

    def _read_loop(self) -> None:
        while True:
            job = self._reads.get()
            if job is None:
                return
            if self._shed_expired(job):
                continue
            with self.lock.read_locked():
                job.run()
            self.executed_reads += 1

    def _write_loop(self) -> None:
        while True:
            job = self._writes.get()
            if job is None:
                return
            if not self._shed_expired(job):
                with self.lock.write_locked():
                    job.run()
                self.executed_writes += 1
            # Per-CVD depth is released whether the job ran or was
            # deadline-shed — a leak here would BUSY the dataset forever.
            with self._pending_lock:
                key = job.dataset or ""
                remaining = self._pending_per_cvd.get(key, 1) - 1
                if remaining > 0:
                    self._pending_per_cvd[key] = remaining
                else:
                    self._pending_per_cvd.pop(key, None)

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> bool:
        """Graceful drain: close intake, let the workers finish what is
        queued, join them. Returns True if everything drained in time."""
        self._reads.close()
        self._writes.close()
        clean = True
        for thread in self._threads:
            thread.join(timeout)
            clean = clean and not thread.is_alive()
        self._threads.clear()
        self._started = False
        return clean

    def status(self) -> dict:
        return {
            "workers": self.workers,
            "read_queue_depth": len(self._reads),
            "read_queue_capacity": self._reads.depth,
            "write_queue_depth": len(self._writes),
            "write_queue_capacity": self._writes.depth,
            "per_cvd_depth": self.per_cvd_depth,
            "executed_reads": self.executed_reads,
            "executed_writes": self.executed_writes,
            "shed_reads": self.shed_reads,
            "shed_writes": self.shed_writes,
            "deadline_shed": self.deadline_shed,
        }
