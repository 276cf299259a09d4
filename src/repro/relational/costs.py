"""Device-independent cost accounting.

Wall-clock time on a laptop is noisy and incomparable with the paper's
workstation numbers, so every physical operator in the engine also reports
its work to a :class:`CostAccountant`: rows scanned sequentially, rows
fetched by random access, rows written, index probes, and bytes touched.
Benchmarks report both wall-clock and these counters; the counters are what
make the Figure 5.7 cost-model validation deterministic.

Every charge is mirrored into the process telemetry registry under the
``storage.io.*`` counter family: a command's ``--timings`` prints them,
and a journaled command stamps their sums on its op record, which
``orpheus stats`` and ``orpheus heat`` add up across invocations.
While telemetry is disabled (the default for embedding programs) the
mirror costs one branch per charge.

Operators charge once per call with summed ``(rows, bytes)``, never once
per row, which is what makes a lock per charge affordable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro import telemetry


@dataclass(frozen=True)
class CostSnapshot:
    """An immutable point-in-time copy of the accountant's counters."""

    seq_rows: int
    random_rows: int
    rows_written: int
    index_probes: int
    bytes_read: int
    bytes_written: int
    page_reads: int = 0
    page_writes: int = 0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.seq_rows - other.seq_rows,
            self.random_rows - other.random_rows,
            self.rows_written - other.rows_written,
            self.index_probes - other.index_probes,
            self.bytes_read - other.bytes_read,
            self.bytes_written - other.bytes_written,
            self.page_reads - other.page_reads,
            self.page_writes - other.page_writes,
        )

    def total_rows_read(self) -> int:
        return self.seq_rows + self.random_rows

    def weighted_io(self, random_penalty: float = 10.0) -> float:
        """A single scalar cost: random accesses cost ``random_penalty``
        times a sequential row touch, mirroring rotating-disk economics
        that drive the paper's checkout-cost analysis (Section 5.5.5)."""
        return self.seq_rows + random_penalty * self.random_rows


class CostAccountant:
    """Mutable counters that physical operators charge work against.

    Shared by every table of a repository and, in the daemon, by every
    reader-pool worker, so each charge takes a lock — a class attribute:
    the accountant rides inside ``state.pkl`` and a lock cannot.
    """

    _lock = threading.Lock()

    def __init__(self) -> None:
        self.seq_rows = 0
        self.random_rows = 0
        self.rows_written = 0
        self.index_probes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.page_reads = 0
        self.page_writes = 0

    def charge_seq_scan(self, rows: int, row_bytes: int = 0) -> None:
        with self._lock:
            self.seq_rows += rows
            self.bytes_read += row_bytes
        telemetry.count("storage.io.seq_rows", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_read", row_bytes)

    def charge_random_read(self, rows: int = 1, row_bytes: int = 0) -> None:
        with self._lock:
            self.random_rows += rows
            self.bytes_read += row_bytes
        telemetry.count("storage.io.random_rows", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_read", row_bytes)

    def charge_write(self, rows: int, row_bytes: int = 0) -> None:
        with self._lock:
            self.rows_written += rows
            self.bytes_written += row_bytes
        telemetry.count("storage.io.rows_written", rows)
        if row_bytes:
            telemetry.count("storage.io.bytes_written", row_bytes)

    def charge_index_probe(self, probes: int = 1) -> None:
        with self._lock:
            self.index_probes += probes
        telemetry.count("storage.io.index_probes", probes)

    def charge_page_read(self, pages: int, page_bytes: int = 0) -> None:
        """A buffer-pool fault: whole pages read from disk. Folds into
        ``bytes_read`` so the amplification report sees real page I/O."""
        with self._lock:
            self.page_reads += pages
            self.bytes_read += page_bytes
        telemetry.count("storage.io.page_reads", pages)
        if page_bytes:
            telemetry.count("storage.io.page_bytes_read", page_bytes)
            telemetry.count("storage.io.bytes_read", page_bytes)

    def charge_page_write(self, pages: int, page_bytes: int = 0) -> None:
        """Dirty-page write-back during a paged save."""
        with self._lock:
            self.page_writes += pages
            self.bytes_written += page_bytes
        telemetry.count("storage.io.page_writes", pages)
        if page_bytes:
            telemetry.count("storage.io.page_bytes_written", page_bytes)
            telemetry.count("storage.io.bytes_written", page_bytes)

    def snapshot(self) -> CostSnapshot:
        with self._lock:
            return CostSnapshot(
                self.seq_rows,
                self.random_rows,
                self.rows_written,
                self.index_probes,
                self.bytes_read,
                self.bytes_written,
                self.page_reads,
                self.page_writes,
            )

    def reset(self) -> None:
        with self._lock:
            for counter in fields(CostSnapshot):
                setattr(self, counter.name, 0)
