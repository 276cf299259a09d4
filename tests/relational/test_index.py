"""Tests for the index structures."""

from repro.relational.index import HashIndex, OrderedIndex


class TestHashIndex:
    def test_add_lookup(self):
        index = HashIndex()
        index.add("k", 0)
        index.add("k", 3)
        assert index.lookup("k") == [0, 3]

    def test_remove(self):
        index = HashIndex()
        index.add("k", 0)
        index.remove("k", 0)
        assert index.lookup("k") == []
        assert not index.contains("k")

    def test_remove_missing_is_noop(self):
        index = HashIndex()
        index.remove("ghost", 1)
        index.add("k", 0)
        index.remove("k", 99)
        assert index.lookup("k") == [0]

    def test_len_counts_entries(self):
        index = HashIndex()
        index.add("a", 0)
        index.add("a", 1)
        index.add("b", 2)
        assert len(index) == 3

    def test_add_distinct_adds_one_position_per_key(self):
        index = HashIndex()
        index.add("a", 0)
        index.add_distinct(["b", "c"], [4, 7])
        assert [index.lookup(k) for k in "abc"] == [[0], [4], [7]]
        assert len(index) == 3


class TestOrderedIndex:
    def test_lookup(self):
        index = OrderedIndex()
        for position, key in enumerate([5, 3, 9, 3]):
            index.add(key, position)
        assert sorted(index.lookup(3)) == [1, 3]
        assert index.lookup(7) == []

    def test_range_scan(self):
        index = OrderedIndex()
        for key in (1, 4, 6, 8, 10):
            index.add(key, key * 10)
        result = list(index.range(4, 8))
        assert [k for k, _p in result] == [4, 6, 8]

    def test_range_empty(self):
        index = OrderedIndex()
        index.add(1, 0)
        assert list(index.range(5, 9)) == []

    def test_remove(self):
        index = OrderedIndex()
        index.add(2, 0)
        index.add(2, 1)
        index.remove(2, 0)
        assert index.lookup(2) == [1]

    def test_len(self):
        index = OrderedIndex()
        index.add(1, 0)
        index.add(2, 1)
        assert len(index) == 2
