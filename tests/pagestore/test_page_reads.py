"""Segment reads: every page a read asks for is read from its file and
verified there, each time, and counted process-wide and per heat key."""

from __future__ import annotations

import hashlib
import sys
import threading

import pytest

from repro.pagestore import codec
from repro.pagestore import pages as pagefiles
from repro.pagestore.store import (
    PageStore,
    SegmentRef,
    page_reads,
    reset_page_reads,
)

PAGE = 1024  # payload bytes per test page


def write_segment(root, obj, heat_key=None, page_bytes=PAGE) -> SegmentRef:
    """Encode ``obj``, write its pages under ``root`` and address it."""
    blob = codec.encode_segment(codec.PICKLE_V1, obj)
    payloads = pagefiles.split_payload(blob, page_bytes)
    directory = pagefiles.pages_dir(root)
    for payload in payloads:
        pagefiles.write_page(directory, pagefiles.page_id_for(payload), payload)
    return SegmentRef(
        "test:segment", codec.PICKLE_V1, len(blob),
        hashlib.sha256(blob).hexdigest(),
        tuple(map(pagefiles.page_id_for, payloads)), heat_key,
    )


def corrupt(root, page_id) -> None:
    path = pagefiles.page_path(pagefiles.pages_dir(root), page_id)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


@pytest.fixture
def big(tmp_path):
    """A segment of several pages and the object it encodes."""
    obj = [(f"k{i}", i, "x" * (i % 50)) for i in range(400)]
    ref = write_segment(tmp_path, obj, heat_key="ds:p0")
    assert len(ref.pages) >= 3
    return ref, obj


def test_a_read_counts_each_page_once_under_its_heat_key(tmp_path, big):
    ref, obj = big
    assert PageStore(tmp_path).read_segment(ref) == obj
    reads = page_reads()
    assert reads.faults == len(ref.pages)
    assert reads.faults_by_key == {"ds:p0": len(ref.pages)}


def test_a_segment_without_a_heat_key_counts_only_the_total(tmp_path):
    ref = write_segment(tmp_path, {"a": 1})
    PageStore(tmp_path).read_segment(ref)
    assert page_reads().faults == 1
    assert page_reads().faults_by_key == {}


def test_each_read_of_a_segment_reads_its_pages_again(tmp_path, big):
    ref, obj = big
    store = PageStore(tmp_path)
    for n in range(1, 4):
        assert store.read_segment(ref) == obj
        assert page_reads().faults == n * len(ref.pages)


def test_a_page_deleted_after_a_read_is_not_served_from_memory(tmp_path, big):
    ref, _obj = big
    store = PageStore(tmp_path)
    store.read_segment(ref)
    pagefiles.page_path(store.dir, ref.pages[-1]).unlink()
    with pytest.raises(pagefiles.PageCorruptionError, match="missing page"):
        store.read_segment(ref)


def test_a_page_damaged_after_a_read_is_caught_on_the_next(tmp_path, big):
    ref, _obj = big
    store = PageStore(tmp_path)
    store.read_segment(ref)
    corrupt(tmp_path, ref.pages[0])
    with pytest.raises(pagefiles.PageCorruptionError, match="checksum"):
        store.read_segment(ref)


def test_pages_that_verify_but_do_not_make_the_segment_are_refused(
    tmp_path, big
):
    ref, _obj = big
    store = PageStore(tmp_path)
    short = SegmentRef(
        ref.key, ref.codec, ref.length, ref.sha, ref.pages[:-1], ref.heat_key
    )
    with pytest.raises(pagefiles.PageCorruptionError, match="reassembled"):
        store.read_segment(short)
    # The first two pages are both full, so swapping them keeps the
    # length and only the segment checksum can tell.
    swapped = SegmentRef(
        ref.key, ref.codec, ref.length, ref.sha,
        (ref.pages[1], ref.pages[0], *ref.pages[2:]), ref.heat_key,
    )
    with pytest.raises(pagefiles.PageCorruptionError, match="across pages"):
        store.read_segment(swapped)


def test_a_read_charges_its_accountant_the_pages_and_bytes(tmp_path, big):
    ref, _obj = big
    charged = []

    class Accountant:
        def charge_page_read(self, n_pages, n_bytes):
            charged.append((n_pages, n_bytes))

    PageStore(tmp_path).read_segment(ref, Accountant())
    assert charged == [(len(ref.pages), ref.length)]


def test_concurrent_readers_lose_no_count(tmp_path, big):
    """More readers than cores, switching often, counting into the one
    process-wide tally: a lost update would show as a short total."""
    ref, obj = big
    store = PageStore(tmp_path)
    reads = page_reads()
    rounds, readers = 5000, 8
    decoded = []

    def read():
        decoded.append(store.read_segment(ref) == obj)
        for _ in range(rounds):
            reads.count(1, "ds:p0")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert decoded == [True] * readers
    expected = readers * (rounds + len(ref.pages))
    assert reads.faults == expected
    assert reads.faults_by_key == {"ds:p0": expected}


def test_reset_starts_the_counts_from_zero(tmp_path, big):
    ref, _obj = big
    PageStore(tmp_path).read_segment(ref)
    before = page_reads()
    fresh = reset_page_reads()
    assert page_reads() is fresh and fresh is not before
    assert (fresh.faults, fresh.faults_by_key) == (0, {})
    assert before.faults == len(ref.pages)


def test_stats_report_faults_and_no_hits(tmp_path, big):
    ref, _obj = big
    PageStore(tmp_path).read_segment(ref)
    PageStore(tmp_path).read_segment(ref)
    assert page_reads().stats() == {"faults": 2 * len(ref.pages), "hits": 0}


def test_the_old_pool_names_are_the_page_read_counts(tmp_path, big):
    """``benchmarks/e2e`` still imports the counts by the buffer pool's
    names; they must be these counts, not a second tally."""
    from repro.pagestore.bufferpool import get_pool, reset_pool

    ref, _obj = big
    fresh = reset_pool()
    assert fresh is page_reads() is get_pool()
    PageStore(tmp_path).read_segment(ref)
    assert get_pool().stats()["faults"] == len(ref.pages)
    assert get_pool().stats()["hits"] == 0
    assert get_pool().faults_by_key == {"ds:p0": len(ref.pages)}
