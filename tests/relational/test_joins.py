"""Tests for the three join algorithms, including cost behaviour."""

import pytest

from repro.relational.costs import CostAccountant
from repro.relational.joins import (
    hash_join,
    index_nested_loop_join,
    merge_join,
)
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import ClusterOrder, Table
from repro.relational.types import INT, TEXT


def make_table(n: int, cluster: ClusterOrder) -> Table:
    schema = Schema(
        [ColumnDef("rid", INT), ColumnDef("payload", TEXT)],
        primary_key=("rid",),
    )
    accountant = CostAccountant()
    table = Table("data", schema, accountant=accountant, cluster_order=cluster)
    for rid in range(1, n + 1):
        table.insert((rid, f"p{rid}"))
    return table


@pytest.mark.parametrize(
    "join", [hash_join, merge_join, index_nested_loop_join]
)
class TestCorrectness:
    def test_exact_match_set(self, join):
        table = make_table(50, ClusterOrder.RID)
        rows = join(sorted([3, 17, 42]), table, "rid")
        assert sorted(r[0] for r in rows) == [3, 17, 42]

    def test_missing_keys_ignored(self, join):
        table = make_table(10, ClusterOrder.RID)
        rows = join(sorted([5, 99, 100]), table, "rid")
        assert [r[0] for r in rows] == [5]

    def test_empty_keys(self, join):
        table = make_table(10, ClusterOrder.RID)
        assert join([], table, "rid") == []

    def test_all_keys(self, join):
        table = make_table(20, ClusterOrder.RID)
        rows = join(list(range(1, 21)), table, "rid")
        assert len(rows) == 20


class TestJoinsAgree:
    def test_same_result_every_algorithm(self):
        table = make_table(100, ClusterOrder.RID)
        keys = sorted({1, 10, 33, 34, 99})
        results = [
            sorted(hash_join(keys, table, "rid")),
            sorted(merge_join(keys, table, "rid")),
            sorted(index_nested_loop_join(keys, table, "rid")),
        ]
        assert results[0] == results[1] == results[2]


class TestCostModel:
    def test_hash_join_cost_tracks_table_size(self):
        """Hash-join checkout cost is linear in |R_k| regardless of
        |rlist| — the Figure 5.7(a) observation."""
        small = make_table(100, ClusterOrder.RID)
        large = make_table(1000, ClusterOrder.RID)
        keys = [1, 2, 3]
        small.accountant.reset()
        hash_join(keys, small, "rid")
        small_cost = small.accountant.seq_rows
        large.accountant.reset()
        hash_join(keys, large, "rid")
        large_cost = large.accountant.seq_rows
        assert large_cost == 10 * small_cost

    def test_inl_cost_tracks_rlist_size_when_clustered(self):
        """Index-nested-loop on a rid-clustered table costs per probe,
        not per table row (Figure 5.7(c) left region)."""
        table = make_table(1000, ClusterOrder.RID)
        table.accountant.reset()
        index_nested_loop_join([1, 2, 3], table, "rid")
        assert table.accountant.seq_rows + table.accountant.random_rows == 3

    def test_inl_random_io_when_unclustered(self):
        # clustering by PK == rid here, so force an unclustered column.
        schema = Schema(
            [ColumnDef("rid", INT), ColumnDef("payload", TEXT)],
            primary_key=("payload",),
        )
        t = Table(
            "d", schema, accountant=CostAccountant(),
            cluster_order=ClusterOrder.PRIMARY_KEY,
        )
        for rid in range(1, 51):
            t.insert((rid, f"p{rid}"))
        t.create_index("rid")
        t.accountant.reset()
        index_nested_loop_join([5, 6], t, "rid")
        assert t.accountant.random_rows == 2

    def test_merge_join_clustered_no_sort_needed(self):
        table = make_table(100, ClusterOrder.RID)
        rows = merge_join([10, 20], table, "rid")
        assert [r[0] for r in rows] == [10, 20]
