"""Tests for the cost accountant."""

import sys
import threading

from repro.relational.costs import CostAccountant, CostSnapshot
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Table
from repro.relational.types import INT, TEXT


class TestAccounting:
    def test_charges_accumulate(self):
        accountant = CostAccountant()
        accountant.charge_seq_scan(10, 100)
        accountant.charge_random_read(2, 20)
        accountant.charge_write(3, 30)
        accountant.charge_index_probe(1)
        snapshot = accountant.snapshot()
        assert snapshot.seq_rows == 10
        assert snapshot.random_rows == 2
        assert snapshot.rows_written == 3
        assert snapshot.index_probes == 1
        assert snapshot.bytes_read == 120
        assert snapshot.bytes_written == 30

    def test_reset(self):
        accountant = CostAccountant()
        accountant.charge_seq_scan(5)
        accountant.reset()
        assert accountant.snapshot().seq_rows == 0

    def test_snapshot_is_immutable_copy(self):
        accountant = CostAccountant()
        accountant.charge_seq_scan(1)
        snapshot = accountant.snapshot()
        accountant.charge_seq_scan(1)
        assert snapshot.seq_rows == 1

    def test_snapshot_difference(self):
        accountant = CostAccountant()
        accountant.charge_seq_scan(10)
        before = accountant.snapshot()
        accountant.charge_seq_scan(7)
        accountant.charge_random_read(2)
        delta = accountant.snapshot() - before
        assert delta.seq_rows == 7
        assert delta.random_rows == 2

    def test_weighted_io_penalizes_random(self):
        sequential = CostSnapshot(100, 0, 0, 0, 0, 0)
        random_heavy = CostSnapshot(0, 100, 0, 0, 0, 0)
        assert random_heavy.weighted_io() == 10 * sequential.weighted_io()

    def test_total_rows_read(self):
        snapshot = CostSnapshot(5, 3, 0, 0, 0, 0)
        assert snapshot.total_rows_read() == 8


class TestSharedAcrossThreads:
    """The daemon's reader pool charges one accountant from every worker."""

    def test_concurrent_scans_lose_no_charge(self):
        accountant = CostAccountant()
        table = Table(
            "people",
            Schema(
                [ColumnDef("id", INT), ColumnDef("name", TEXT)],
                primary_key=("id",),
            ),
            accountant=accountant,
        )
        for i in range(200):
            table.insert((i, "x" * (i % 7)))
        one_row = table.schema.row_bytes(table.lookup("id", 7)[0])
        accountant.reset()
        threads, scans_each = 8, 150
        start = threading.Barrier(threads)

        def reader():
            start.wait(timeout=30)
            for _ in range(scans_each):
                for _row in table.scan():
                    pass
                table.lookup("id", 7)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=reader) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        total = accountant.snapshot()
        scans = threads * scans_each
        assert total.seq_rows == scans * len(table)
        assert total.random_rows == total.index_probes == scans
        assert total.bytes_read == scans * (
            table.storage_bytes(include_indexes=False) + one_row
        )
