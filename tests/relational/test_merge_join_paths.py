"""Merge-join plan variants: clustered vs unclustered table sides."""

from repro.relational.costs import CostAccountant
from repro.relational.joins import merge_join
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import ClusterOrder, Table
from repro.relational.types import INT, TEXT


def build(cluster: ClusterOrder, shuffle: bool = False) -> Table:
    schema = Schema(
        [ColumnDef("rid", INT), ColumnDef("name", TEXT)],
        primary_key=("rid",),
    )
    table = Table("t", schema, accountant=CostAccountant(), cluster_order=cluster)
    rids = list(range(1, 101))
    if shuffle:
        import random

        random.Random(5).shuffle(rids)
    for rid in rids:
        table.insert((rid, f"r{rid}"))
    return table


class TestMergeJoin:
    def test_clustered_side_in_physical_order(self):
        table = build(ClusterOrder.RID)
        rows = merge_join([10, 50, 90], table, "rid")
        assert [r[0] for r in rows] == [10, 50, 90]

    def test_unclustered_side_sorted_first(self):
        """When the table is not clustered on the join column, the engine
        must sort before merging — results identical, extra work paid."""
        table = build(ClusterOrder.INSERTION, shuffle=True)
        # Physical order is shuffled; merge join must still be correct.
        rows = merge_join([3, 7, 99], table, "rid")
        assert [r[0] for r in rows] == [3, 7, 99]

    def test_duplicate_probe_keys(self):
        table = build(ClusterOrder.RID)
        # Sorted probe list with duplicates: each matches at most once
        # per table row (the merge advances the table pointer).
        rows = merge_join([5, 5, 6], table, "rid")
        assert [r[0] for r in rows] == [5, 6]

    def test_probe_keys_beyond_range(self):
        table = build(ClusterOrder.RID)
        rows = merge_join([99, 100, 101, 200], table, "rid")
        assert [r[0] for r in rows] == [99, 100]

    def test_empty_table(self):
        schema = Schema([ColumnDef("rid", INT)], primary_key=("rid",))
        table = Table("e", schema, cluster_order=ClusterOrder.RID)
        assert merge_join([1, 2], table, "rid") == []
