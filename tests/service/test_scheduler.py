"""Scheduler semantics: reader concurrency, writer serialization,
bounded-queue load shedding, per-CVD depth, graceful drain."""

import gc
import threading
import time
import weakref

import pytest

from repro.service.scheduler import (
    QueueFullError,
    ReadWriteLock,
    RequestScheduler,
    SchedulerStoppedError,
)


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers in simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("write-done")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write-done", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        wt = threading.Thread(target=writer)
        wt.start()
        time.sleep(0.05)
        late_read_done = threading.Event()

        def late_reader():
            lock.acquire_read()
            late_read_done.set()
            lock.release_read()

        rt = threading.Thread(target=late_reader)
        rt.start()
        time.sleep(0.05)
        # Writer-preference: the late reader must queue behind the writer.
        assert not late_read_done.is_set()
        lock.release_read()
        assert got_write.wait(5)
        assert late_read_done.wait(5)
        wt.join(timeout=5)
        rt.join(timeout=5)


@pytest.fixture
def scheduler():
    sched = RequestScheduler(workers=3, read_queue_depth=4, write_queue_depth=2)
    sched.start()
    yield sched
    sched.stop(timeout=5)


class TestScheduling:
    def test_read_result_roundtrip(self, scheduler):
        job = scheduler.submit_read(lambda: 41 + 1)
        assert job.wait(5) == 42

    def test_read_exception_propagates(self, scheduler):
        def boom():
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            scheduler.submit_read(boom).wait(5)

    def test_writes_serialize_in_submission_order(self, scheduler):
        order = []
        jobs = [
            scheduler.submit_write(lambda i=i: order.append(i))
            for i in range(2)
        ]
        for job in jobs:
            job.wait(5)
        assert order == [0, 1]

    def test_write_queue_sheds_when_full(self):
        """Two datasets, each within its per-CVD share of one, fill the
        depth-2 writer queue: a third dataset sheds on the global bound."""
        sched = RequestScheduler(workers=1, read_queue_depth=4, write_queue_depth=2)
        sched.start()
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(10)

        try:
            blocker = sched.submit_write(block, dataset="a")
            assert started.wait(5)  # blocker is out of the queue, running
            queued = [
                sched.submit_write(lambda: None, dataset=name)
                for name in ("b", "c")
            ]
            with pytest.raises(QueueFullError, match=r"queue full \(2 pending\)"):
                sched.submit_write(lambda: None, dataset="d")
            assert sched.shed_writes == 1
            release.set()
            blocker.wait(5)
            for job in queued:
                job.wait(5)
        finally:
            release.set()
            sched.stop(timeout=5)

    def test_per_cvd_depth_sheds_hot_dataset_only(self):
        sched = RequestScheduler(
            workers=1, read_queue_depth=4, write_queue_depth=2
        )
        sched.start()
        release = threading.Event()
        try:
            hot = sched.submit_write(lambda: release.wait(10), dataset="hot")
            with pytest.raises(QueueFullError, match="hot"):
                sched.submit_write(lambda: None, dataset="hot")
            # Another dataset still has room.
            cold = sched.submit_write(lambda: None, dataset="cold")
            release.set()
            hot.wait(5)
            cold.wait(5)
            # Depth accounting drains: the hot dataset admits again.
            sched.submit_write(lambda: None, dataset="hot").wait(5)
        finally:
            release.set()
            sched.stop(timeout=5)

    def test_stop_drains_queued_work(self):
        sched = RequestScheduler(workers=2, read_queue_depth=8, write_queue_depth=8)
        sched.start()
        jobs = [scheduler_job for scheduler_job in (
            sched.submit_read(lambda i=i: i) for i in range(5)
        )]
        assert sched.stop(timeout=5)
        for i, job in enumerate(jobs):
            assert job.wait(1) == i

    def test_submit_after_stop_raises(self):
        sched = RequestScheduler(workers=1)
        sched.start()
        sched.stop(timeout=5)
        with pytest.raises(SchedulerStoppedError):
            sched.submit_read(lambda: None)

    def test_status_shape(self, scheduler):
        scheduler.submit_read(lambda: None).wait(5)
        status = scheduler.status()
        assert status["workers"] == 3
        assert status["executed_reads"] >= 1
        assert status["read_queue_capacity"] == 4

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_an_idle_worker_keeps_no_response_alive(self, scheduler, kind):
        """Once its waiter has the answer, nothing of a finished job is
        left to a worker blocked on its next ``get()``: a response body
        the cache has flushed is freed, not held by the last worker that
        built it."""

        class Body:
            pass

        submit = getattr(scheduler, f"submit_{kind}")
        job = submit(Body)
        body = weakref.ref(job.wait(5))
        del job
        deadline = time.monotonic() + 5.0
        while body() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert body() is None, gc.get_referrers(body())
