"""Tests for the index structures."""

import gc

from repro.relational.expressions import col, lit
from repro.relational.index import HashIndex, OrderedIndex
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Table
from repro.relational.types import INT, TEXT


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


class TestPrimaryKeyIndex:
    def test_a_10000_row_tables_index_holds_one_int_per_key(self):
        """Each key maps to its one heap slot: no list per key (a
        one-element list cost 64 bytes a key beside the dict entry)."""
        schema = Schema([ColumnDef("k", INT), ColumnDef("v", TEXT)], ("k",))
        table = Table("t", schema)
        table.insert_many((n, f"v{n}") for n in range(10_000))
        index = table._pk_index
        assert type(index) is dict and len(index) == 10_000
        assert all(type(slot) is int for slot in index.values())
        assert index == {(n,): n for n in range(10_000)}
        assert not any(isinstance(ref, list) for ref in gc.get_referents(index))
        # Every path that moves a key keeps one slot per key.
        table.delete_at(3)
        table.update_where(col("k") == 4, {"k": lit(-4)})
        assert (3,) not in index and (4,) not in index and index[(-4,)] == 4
        assert table.lookup("k", -4) == [(-4, "v4")] and table.lookup("k", 3) == []
        table.vacuum()
        assert table._pk_index[(-4,)] == 3 and len(table._pk_index) == 9_999


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
