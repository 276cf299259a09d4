"""Materialized-version cache: LRU, byte budget, schema-token keys,
surgical eviction."""

import pytest

from repro.relational.arrays import rid_array
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import FLOAT, INT, TEXT
from repro.service.cache import (
    CacheEntry,
    VersionCache,
    estimate_entry_bytes,
    size_sample,
)


def entry(rows=3, marker="x"):
    return CacheEntry(
        columns=["key", "value"],
        rows=[(f"{marker}{i}", i) for i in range(rows)],
        parents=(1,),
    )


class TestLookup:
    def test_miss_then_hit(self):
        cache = VersionCache(1 << 20)
        assert cache.get("d", [1]) is None
        cache.put("d", [1], entry())
        assert cache.get("d", [1]) is not None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_key_normalizes_int_and_sequence(self):
        cache = VersionCache(1 << 20)
        cache.put("d", 1, entry())
        assert cache.get("d", [1]) is not None

    def test_multi_version_key_is_order_sensitive(self):
        # (1,2) and (2,1) merge with different precedence — distinct.
        cache = VersionCache(1 << 20)
        cache.put("d", [1, 2], entry(marker="a"))
        assert cache.get("d", [2, 1]) is None

    def test_key_carries_the_schema_token(self):
        # A schema-evolving commit changes how every older version
        # materializes; entries made under the old schema stop matching.
        before = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)])
        added = before.with_column(ColumnDef("note", TEXT))
        widened = before.with_widened_column("value", FLOAT)
        cache = VersionCache(1 << 20)
        cache.put("d", [1], entry(), before)
        assert cache.get("d", [1], before) is not None
        assert cache.get("d", [1], added) is None
        assert cache.get("d", [1], widened) is None
        # Equal schemas are equal tokens: a state reload keeps the key.
        reloaded = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)])
        assert cache.get("d", [1], reloaded) is not None


class TestEviction:
    def test_lru_evicts_cold_entries(self):
        one = entry(rows=50)
        budget = one.size_bytes * 2 + one.size_bytes // 2  # fits two
        cache = VersionCache(budget)
        cache.put("d", [1], entry(rows=50))
        cache.put("d", [2], entry(rows=50))
        cache.get("d", [1])  # touch 1: now 2 is coldest
        cache.put("d", [3], entry(rows=50))
        assert cache.get("d", [1]) is not None
        assert cache.get("d", [2]) is None
        assert cache.stats().evictions == 1

    def test_oversize_entry_rejected(self):
        small = VersionCache(8)
        assert small.put("d", [1], entry(rows=100)) is False
        assert len(small) == 0

    def test_reput_replaces_without_leaking_bytes(self):
        cache = VersionCache(1 << 20)
        cache.put("d", [1], entry(rows=10))
        cache.put("d", [1], entry(rows=10))
        assert cache.stats().entries == 1
        assert cache.stats().bytes == entry(rows=10).size_bytes


class TestInvalidation:
    def test_invalidate_is_surgical(self):
        cache = VersionCache(1 << 20)
        cache.put("hot", [1], entry())
        cache.put("hot", [2], entry())
        cache.put("cold", [1], entry())
        assert cache.invalidate(lambda name, _vids: name == "hot") == 2
        assert cache.get("hot", [1]) is None
        assert cache.get("cold", [1]) is not None
        # A call that evicts nothing is not an invalidation.
        assert cache.invalidate(lambda name, _vids: name == "gone") == 0
        assert cache.stats().invalidations == 1

    def test_invalidate_sees_the_vids(self):
        cache = VersionCache(1 << 20)
        for vids in ([1], [2], [1, 2]):
            cache.put("d", vids, entry())
        assert cache.invalidate(lambda _name, vids: 2 in vids) == 2
        assert cache.get("d", [1]) is not None

    def test_clear_drops_everything(self):
        cache = VersionCache(1 << 20)
        cache.put("a", [1], entry())
        cache.put("b", [1], entry())
        assert cache.clear() == 2
        assert cache.stats().bytes == 0


class TestEntry:
    def test_rows_count_and_size_the_entry_and_are_not_kept(self):
        rows = [(f"k{i}", i) for i in range(500)]
        made = CacheEntry(["key", "value"], rows, (1,))
        assert made.rows is None and made.count == 500
        assert made.size_bytes == estimate_entry_bytes(["key", "value"], rows)
        # A sample and the count size it alike (write-through admission).
        sampled = CacheEntry(["key", "value"], size_sample(rows), (1,), count=500)
        assert (sampled.count, sampled.size_bytes) == (500, made.size_bytes)

    @pytest.mark.parametrize("kind", ["body", "rids", "count"])
    def test_the_seal_covers_what_a_hit_serves(self, kind):
        """The body when there is one, a merge's rids, else the count:
        the fault damages it and the seal catches it."""
        made = CacheEntry(
            ["key", "value"],
            [("a", 1), ("b", 2)],
            (2, 1),
            body=b'[["a",1],["b",2]]' if kind == "body" else None,
            rids=rid_array([7, 3]) if kind == "rids" else None,
        )
        assert made.verify()
        made.corrupt()
        assert not made.verify()
        assert made.count == (3 if kind == "count" else 2)
