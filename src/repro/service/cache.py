"""The materialized-version LRU cache.

A checkout of a hot version does the same membership walk and row
materialization every time; under a multi-client daemon the same few
versions are requested over and over (the paper's workloads are
exactly that shape: many analysts pulling the latest curated version).
This cache keeps fully materialized checkouts — ``(columns, rows,
parents)``, plus the rows' wire encoding once an inline checkout has
asked for it — keyed by ``(dataset, vids-tuple, schema token)`` under a
byte budget:

* **Immutable entries** — a committed version never changes, so a
  commit or ``optimize`` evicts nothing (the daemon admits the version
  a commit wrote). A schema-evolving commit changes the token, the
  columns' names and types, so entries made before it stop matching.
* **LRU** by access order; inserting past the budget evicts from the
  cold end. An entry larger than the whole budget is never admitted.
* **Counters** — hits/misses/evictions/invalidations (a ``drop`` or a
  reload that evicted), kept here and reported in the ``cache`` block
  of the daemon's one report (``stats``), which works with telemetry
  disabled. Only an oversize rejection is a telemetry counter.

Thread-safe: the daemon's reader pool probes it concurrently while the
writer thread admits and evicts.
"""

from __future__ import annotations

import sys
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import telemetry

#: One version id, or several in precedence order.
Vids = int | Sequence[int]

#: Default byte budget (64 MiB) — roughly a few hundred mid-sized
#: materialized versions; ``orpheus serve --cache-mb`` overrides.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass
class CacheEntry:
    """One materialized checkout."""

    columns: list[str]
    rows: list[tuple]
    parents: tuple[int, ...]
    size_bytes: int = 0
    #: Row count sealed at admission; :meth:`verify` compares against
    #: it so an entry mutated after admission (a bug, or the
    #: ``cache.corrupt_entry`` chaos fault) is caught at read time
    #: instead of being served as version history.
    sealed_rows: int = -1
    #: The rows as the JSON array an inline checkout's frame carries
    #: (``protocol.encode_rows``): a hit sends these bytes instead of
    #: encoding the rows again. None until an inline checkout needs it;
    #: a file checkout never builds one.
    body: bytes | None = None
    #: ``(length, crc32)`` of ``body`` at admission, checked like
    #: ``sealed_rows`` — the seal covers the representation served.
    sealed_body: tuple[int, int] | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.size_bytes:
            self.size_bytes = estimate_entry_bytes(
                self.columns, self.rows
            ) + len(self.body or b"")
        if self.sealed_rows < 0:
            self.sealed_rows = len(self.rows)
        self.sealed_body = self._body_seal()

    def _body_seal(self) -> tuple[int, int] | None:
        if self.body is None:
            return None
        return len(self.body), zlib.crc32(self.body)

    def verify(self) -> bool:
        """True when the entry still matches its admission-time seal."""
        return (
            len(self.rows) == self.sealed_rows
            and self._body_seal() == self.sealed_body
        )

    def corrupt(self) -> None:
        """Chaos-testing only (``cache.corrupt_entry``): damage the
        representation a hit would serve — the body when there is one,
        else the rows."""
        if self.body is not None:
            self.body = self.body[:-1] + b"?"
        else:
            self.rows.append(("__corrupt__",))


@dataclass
class CacheStats:
    """Counters the daemon reports under ``status.cache``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes: int = 0
    budget_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "bytes": self.bytes,
            "budget_bytes": self.budget_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


def estimate_entry_bytes(columns: Sequence[str], rows: Sequence[tuple]) -> int:
    """Cheap size estimate: sampled row payload size x row count.

    Sampling keeps admission O(1)-ish for wide versions; the estimate
    only steers the budget, it is not an accounting invariant.
    """
    base = 256 + sum(sys.getsizeof(c) for c in columns)
    if not rows:
        return base
    sample = rows[:: max(1, len(rows) // 32)][:32]
    per_row = sum(
        sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row)
        for row in sample
    ) / len(sample)
    return int(base + per_row * len(rows))


class VersionCache:
    """Byte-budgeted LRU of materialized, immutable versions."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        self.budget_bytes = max(0, int(budget_bytes))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key(dataset: str, vids: Vids, schema=None) -> tuple:
        """The token is ``schema``'s columns (names and types), not a
        counter a state reload could reset."""
        if isinstance(vids, int):
            vids = (vids,)
        token = tuple(schema.columns) if schema is not None else ()
        return (dataset, tuple(int(v) for v in vids), token)

    def get(self, dataset: str, vids: Vids, schema=None) -> CacheEntry | None:
        key = self.key(dataset, vids, schema)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return entry

    def put(
        self, dataset: str, vids: Vids, entry: CacheEntry, schema=None
    ) -> bool:
        """Admit an entry, evicting LRU entries to fit. Returns False
        when the entry alone exceeds the whole budget (not admitted)."""
        if entry.size_bytes > self.budget_bytes:
            telemetry.count("service.cache.rejected_oversize")
            return False
        key = self.key(dataset, vids, schema)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.size_bytes
            while self._entries and self._bytes + entry.size_bytes > self.budget_bytes:
                _, cold = self._entries.popitem(last=False)
                self._bytes -= cold.size_bytes
                self._evictions += 1
            self._entries[key] = entry
            self._bytes += entry.size_bytes
        return True

    def invalidate(self, stale: Callable[[str, tuple[int, ...]], bool]) -> int:
        """Drop every entry whose ``(dataset, vids)`` is ``stale``."""
        with self._lock:
            doomed = [k for k in self._entries if stale(k[0], k[1])]
            for key in doomed:
                self._bytes -= self._entries.pop(key).size_bytes
            if doomed:
                self._invalidations += 1
        return len(doomed)

    def drop(self, dataset: str, vids: Vids, schema=None) -> bool:
        """Evict one specific entry (corruption containment path)."""
        key = self.key(dataset, vids, schema)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.size_bytes
        return True

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        return count

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes=self._bytes,
                budget_bytes=self.budget_bytes,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries
