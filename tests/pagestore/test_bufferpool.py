"""Buffer-pool unit tests: LRU eviction order, budget enforcement, and
dirty-page accounting."""

from __future__ import annotations

import pytest

from repro.pagestore import pages as pagefiles
from repro.pagestore.bufferpool import BufferPool, get_pool, reset_pool

PAGE = 1024  # payload bytes per test page


@pytest.fixture
def pages_dir(tmp_path):
    return tmp_path / ".orpheus" / "pages"


def put_page(directory, seed: int, size: int = PAGE) -> str:
    """Write one real page file and return its id."""
    payload = bytes([seed % 256]) * size
    page_id = pagefiles.page_id_for(payload)
    pagefiles.write_page(directory, page_id, payload)
    return page_id


# ----------------------------------------------------------------------
# Faults, hits, and LRU order
# ----------------------------------------------------------------------
def test_fault_then_hit(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    page = put_page(pages_dir, 1)
    first = pool.read(pages_dir, page)
    second = pool.read(pages_dir, page)
    assert first == second == bytes([1]) * PAGE
    assert pool.faults == 1
    assert pool.hits == 1
    assert pool.resident_bytes == PAGE


def test_eviction_is_lru_and_touch_refreshes(pages_dir):
    pool = BufferPool(budget_bytes=3 * PAGE)
    p1, p2, p3, p4 = (put_page(pages_dir, seed) for seed in (1, 2, 3, 4))
    pool.read(pages_dir, p1)
    pool.read(pages_dir, p2)
    pool.read(pages_dir, p3)
    pool.read(pages_dir, p1)  # hit: p1 becomes most-recent, p2 is LRU
    pool.read(pages_dir, p4)  # over budget: evicts exactly p2
    assert pool.evictions == 1
    faults_before = pool.faults
    pool.read(pages_dir, p1)
    pool.read(pages_dir, p3)
    pool.read(pages_dir, p4)
    assert pool.faults == faults_before  # all still resident
    pool.read(pages_dir, p2)  # the evicted one faults again
    assert pool.faults == faults_before + 1


def test_budget_is_enforced(pages_dir):
    pool = BufferPool(budget_bytes=4 * PAGE)
    for seed in range(10):
        pool.read(pages_dir, put_page(pages_dir, seed))
        assert pool.resident_bytes <= pool.budget_bytes
    assert pool.resident_pages() == 4
    assert pool.evictions == 6


def test_oversize_clean_page_served_but_not_cached(pages_dir):
    pool = BufferPool(budget_bytes=PAGE)
    big = put_page(pages_dir, 9, size=4 * PAGE)
    data = pool.read(pages_dir, big)
    assert len(data) == 4 * PAGE
    assert pool.resident_pages() == 0
    assert pool.resident_bytes == 0


def test_heat_key_protects_no_page(pages_dir):
    """Plain LRU: a page's heat key only counts its faults; the
    least-recently used clean page leaves first whatever its key."""
    pool = BufferPool(budget_bytes=2 * PAGE)
    hot = put_page(pages_dir, 1)
    pool.read(pages_dir, hot, heat_key="ds:p0")
    for seed in (2, 3):
        pool.read(pages_dir, put_page(pages_dir, seed), heat_key="other")
    assert pool.evictions == 1
    faults_before = pool.faults
    pool.read(pages_dir, hot, heat_key="ds:p0")
    assert pool.faults == faults_before + 1
    assert pool.faults_by_key == {"ds:p0": 2, "other": 2}


# ----------------------------------------------------------------------
# Dirty pages
# ----------------------------------------------------------------------
def test_dirty_accounting_and_writeback(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    payload = b"d" * PAGE
    page_id = pagefiles.page_id_for(payload)
    pool.put_dirty(pages_dir, page_id, payload)
    assert pool.dirty_bytes == PAGE
    assert pool.writebacks == 0
    pool.mark_clean(pages_dir, page_id)
    assert pool.dirty_bytes == 0
    assert pool.writebacks == 1
    # Still resident as a clean page afterwards.
    assert pool.resident_pages() == 1


def test_dirty_pages_never_evicted(pages_dir):
    pool = BufferPool(budget_bytes=2 * PAGE)
    dirty_ids = []
    for seed in range(4):
        payload = bytes([seed]) * PAGE
        page_id = pagefiles.page_id_for(payload)
        pool.put_dirty(pages_dir, page_id, payload)
        dirty_ids.append(page_id)
    # Four dirty pages against a two-page budget: none may leave.
    assert pool.resident_pages() == 4
    assert pool.dirty_bytes == 4 * PAGE
    assert pool.evictions == 0
    for page_id in dirty_ids:
        pool.mark_clean(pages_dir, page_id)
    # Once clean they become evictable and the budget re-applies.
    assert pool.resident_bytes <= pool.budget_bytes


def test_eviction_skips_dirty_pages_for_older_clean_ones(pages_dir):
    """Over budget, eviction passes over a dirty LRU page and takes the
    next clean one."""
    pool = BufferPool(budget_bytes=2 * PAGE)
    payload = b"d" * PAGE
    dirty = pagefiles.page_id_for(payload)
    pool.put_dirty(pages_dir, dirty, payload)  # least recently used
    clean = put_page(pages_dir, 1)
    pool.read(pages_dir, clean)
    pool.read(pages_dir, put_page(pages_dir, 2))
    assert pool.evictions == 1
    assert pool.dirty_bytes == PAGE
    faults_before = pool.faults
    pool.read(pages_dir, clean)  # the clean one was the one evicted
    assert pool.faults == faults_before + 1


def test_discard_dirty_drops_without_writeback(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    payload = b"x" * PAGE
    page_id = pagefiles.page_id_for(payload)
    pool.put_dirty(pages_dir, page_id, payload)
    pool.discard_dirty(pages_dir, page_id)
    assert pool.dirty_bytes == 0
    assert pool.resident_bytes == 0
    assert pool.writebacks == 0


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def test_faults_by_key_tracks_heat_keys(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    pool.read(pages_dir, put_page(pages_dir, 1), heat_key="ds:p0")
    pool.read(pages_dir, put_page(pages_dir, 2), heat_key="ds:p0")
    pool.read(pages_dir, put_page(pages_dir, 3), heat_key="other")
    pool.read(pages_dir, put_page(pages_dir, 4))  # no key
    assert pool.faults_by_key == {"ds:p0": 2, "other": 1}


def test_stats_shape(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    pool.read(pages_dir, put_page(pages_dir, 1))
    pool.read(pages_dir, put_page(pages_dir, 1))
    stats = pool.stats()
    assert stats["resident_pages"] == 1
    assert stats["faults"] == 1
    assert stats["hits"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["budget_bytes"] == 10 * PAGE
    assert stats["dirty_bytes"] == 0
    assert not [key for key in stats if key.startswith("pinned")]


def test_missing_page_raises_corruption(pages_dir):
    pool = BufferPool(budget_bytes=10 * PAGE)
    with pytest.raises(pagefiles.PageCorruptionError):
        pool.read(pages_dir, "0" * pagefiles.PAGE_ID_HEX)


def test_reset_pool_replaces_global(pages_dir):
    first = reset_pool(budget_bytes=123)
    assert get_pool() is first
    assert get_pool().budget_bytes == 123
    second = reset_pool()
    assert get_pool() is second
    assert second is not first
