"""The byte-budgeted buffer pool: a plain LRU page cache.

One pool per process (shared by every daemon worker and every lazily
loaded repository), budgeted in bytes via ``ORPHEUS_BUFFER_BYTES``.
Page faults read and verify the on-disk page file; hits are a dict
probe. Two residency classes:

1. **clean** — evicted strictly LRU once the pool is over budget;
2. **dirty** — pages written by an in-flight save but not yet durable;
   never evicted, accounted separately, marked clean (one *writeback*)
   once fsync'd and referenced by the swapped state.

A read names its segment's ``heat_key`` (``dataset:pN``) only to count
faults per partition (``faults_by_key``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro import telemetry
from repro.pagestore import pages as pagefiles

#: Default pool budget; override with ``ORPHEUS_BUFFER_BYTES``.
DEFAULT_BUFFER_BYTES = 64 * 1024 * 1024
BUFFER_BYTES_ENV = "ORPHEUS_BUFFER_BYTES"


def configured_budget() -> int:
    raw = os.environ.get(BUFFER_BYTES_ENV, "")
    try:
        value = int(raw) if raw else DEFAULT_BUFFER_BYTES
    except ValueError:
        value = DEFAULT_BUFFER_BYTES
    return max(value, 0)


class _Frame:
    __slots__ = ("data", "dirty")

    def __init__(self, data: bytes, dirty: bool):
        self.data = data
        self.dirty = dirty


class BufferPool:
    """LRU over page payloads, keyed by ``(pages_dir, page_id)``."""

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget_bytes = (
            configured_budget() if budget_bytes is None else budget_bytes
        )
        self._lock = threading.RLock()
        self._frames: "OrderedDict[tuple[str, str], _Frame]" = OrderedDict()
        self.resident_bytes = 0
        self.dirty_bytes = 0
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.writebacks = 0
        #: heat_key → faults, for "did checkout touch only its
        #: partition?" assertions and the doctor's pressure probe.
        self.faults_by_key: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self,
        directory: Path,
        page_id: str,
        heat_key: str | None = None,
    ) -> bytes:
        """Return one page's payload, faulting it in on miss."""
        key = (str(directory), page_id)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                self.hits += 1
                telemetry.count("pagestore.pool.hits")
                return frame.data
        # Fault outside the lock: page files are immutable, so a racing
        # double-read is wasted work, never an inconsistency.
        data = pagefiles.read_page(directory, page_id)
        with self._lock:
            self.faults += 1
            telemetry.count("pagestore.pool.faults")
            if heat_key:
                self.faults_by_key[heat_key] = (
                    self.faults_by_key.get(heat_key, 0) + 1
                )
            self._admit(key, data, dirty=False)
        return data

    # ------------------------------------------------------------------
    # Dirty pages (save write-back)
    # ------------------------------------------------------------------
    def put_dirty(self, directory: Path, page_id: str, data: bytes) -> None:
        key = (str(directory), page_id)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                if not frame.dirty:
                    frame.dirty = True
                    self.dirty_bytes += len(frame.data)
                self._frames.move_to_end(key)
                return
            self._admit(key, data, dirty=True)
            self.dirty_bytes += len(data)

    def mark_clean(self, directory: Path, page_id: str) -> None:
        """The page is durable and referenced: one completed writeback."""
        key = (str(directory), page_id)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None and frame.dirty:
                frame.dirty = False
                self.dirty_bytes -= len(frame.data)
            self.writebacks += 1
            telemetry.count("pagestore.pool.writebacks")
            self._evict_to_budget()

    def discard_dirty(self, directory: Path, page_id: str) -> None:
        """Drop a dirty page whose save failed (no writeback counted)."""
        key = (str(directory), page_id)
        with self._lock:
            frame = self._frames.pop(key, None)
            if frame is None:
                return
            self.resident_bytes -= len(frame.data)
            if frame.dirty:
                self.dirty_bytes -= len(frame.data)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, key: tuple[str, str], data: bytes, dirty: bool) -> None:
        # A page larger than the whole budget is served but not cached
        # (unless dirty — dirty pages must stay tracked until durable).
        if not dirty and len(data) > self.budget_bytes:
            return
        self._frames[key] = _Frame(data, dirty)
        self._frames.move_to_end(key)
        self.resident_bytes += len(data)
        self._evict_to_budget()

    def _evict_to_budget(self) -> None:
        if self.resident_bytes <= self.budget_bytes:
            return
        # Clean pages leave in LRU order; dirty ones never do.
        for key in list(self._frames):
            if self.resident_bytes <= self.budget_bytes:
                return
            frame = self._frames[key]
            if frame.dirty:
                continue
            del self._frames[key]
            self.resident_bytes -= len(frame.data)
            self.evictions += 1
            telemetry.count("pagestore.pool.evictions")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    def stats(self) -> dict:
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self.resident_bytes,
                "resident_pages": len(self._frames),
                "dirty_bytes": self.dirty_bytes,
                "faults": self.faults,
                "hits": self.hits,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "hit_rate": (
                    self.hits / (self.hits + self.faults)
                    if (self.hits + self.faults)
                    else 0.0
                ),
            }

    def clear(self) -> None:
        with self._lock:
            self._frames.clear()
            self.resident_bytes = 0
            self.dirty_bytes = 0
            self.faults_by_key.clear()


# ----------------------------------------------------------------------
# Process-wide pool
# ----------------------------------------------------------------------
_pool_lock = threading.Lock()
_pool: BufferPool | None = None


def get_pool() -> BufferPool:
    """The shared per-process pool (daemon workers all hit this one)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = BufferPool()
        return _pool


def reset_pool(budget_bytes: int | None = None) -> BufferPool:
    """Replace the process pool (tests; budget re-read from env)."""
    global _pool
    with _pool_lock:
        _pool = BufferPool(budget_bytes)
        return _pool

