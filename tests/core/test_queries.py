"""Tests for the version-aware query layer (Section 3.3.2)."""

from repro.core.queries import (
    VersionQuery,
    aggregate_by_version,
    select_from_versions,
)
from repro.relational.expressions import col, lit
from repro.relational.query import Aggregate


class TestSelectFromVersions:
    def test_single_version_filter(self, protein_cvd):
        """The Section 3.3.2 example: coexpression > 80 over versions 1, 2."""
        rows = select_from_versions(
            protein_cvd, [1, 2], where=col("coexpression") > lit(80)
        )
        assert sorted(rows) == [
            ("ENSP300413", "ENSP274242", 426, 0, 164),
            ("ENSP309334", "ENSP346022", 0, 227, 975),
        ]

    def test_union_deduplicates_shared_records(self, protein_cvd):
        rows = select_from_versions(protein_cvd, [1, 2])
        # v1 has 3 records, v2 has 3, sharing r2 and r3: union = 4.
        assert len(rows) == 4

    def test_projection(self, protein_cvd):
        rows = select_from_versions(
            protein_cvd, [1], columns=("protein1", "coexpression")
        )
        assert all(len(row) == 2 for row in rows)

    def test_limit(self, protein_cvd):
        rows = select_from_versions(protein_cvd, [3, 4], limit=2)
        assert len(rows) == 2


class TestAggregateByVersion:
    def test_count_per_version(self, protein_cvd):
        rows = aggregate_by_version(
            protein_cvd, [Aggregate("count", alias="n")]
        )
        assert rows == [(1, 3), (2, 3), (3, 4), (4, 6)]

    def test_filtered_aggregate(self, protein_cvd):
        rows = aggregate_by_version(
            protein_cvd,
            [Aggregate("count", alias="n")],
            where=col("coexpression") > lit(80),
        )
        by_vid = dict(rows)
        assert by_vid[1] == 1  # r3 only
        assert by_vid[4] == 4  # r3, r4, r5, r6

    def test_multiple_aggregates(self, protein_cvd):
        rows = aggregate_by_version(
            protein_cvd,
            [
                Aggregate("max", col("coexpression"), alias="hi"),
                Aggregate("avg", col("neighborhood"), alias="mean"),
            ],
            vids=[4],
        )
        assert rows[0][0] == 4
        assert rows[0][1] == 975

    def test_vids_subset(self, protein_cvd):
        rows = aggregate_by_version(
            protein_cvd, [Aggregate("count")], vids=[2, 3]
        )
        assert [row[0] for row in rows] == [2, 3]


class TestVersionQuery:
    def test_descendants_filter(self, protein_cvd):
        vids = VersionQuery(protein_cvd).descendants_of(1).vids()
        assert vids == [2, 3, 4]

    def test_ancestors_with_hops(self, protein_cvd):
        vids = VersionQuery(protein_cvd).ancestors_of(4, max_hops=1).vids()
        assert vids == [2, 3]

    def test_merges_only(self, protein_cvd):
        assert VersionQuery(protein_cvd).merges_only().vids() == [4]

    def test_record_count_predicate(self, protein_cvd):
        vids = (
            VersionQuery(protein_cvd)
            .where_record_count(lambda n: n > 3)
            .vids()
        )
        assert vids == [3, 4]

    def test_matching_count_predicate(self, protein_cvd):
        """Versions with exactly one record for protein ENSP273047."""
        vids = (
            VersionQuery(protein_cvd)
            .where_matching_count(
                col("protein1") == lit("ENSP273047"), lambda n: n == 2
            )
            .vids()
        )
        assert vids == [1, 4]

    def test_delta_from_parent(self, protein_cvd):
        """v3 differs from v1 by 4 records (r1, r2 out; r5, r6, r7 in)."""
        vids = (
            VersionQuery(protein_cvd)
            .where_delta_from_parent(lambda n: n >= 5)
            .vids()
        )
        assert 3 in vids

    def test_chained_filters(self, protein_cvd):
        vids = (
            VersionQuery(protein_cvd)
            .descendants_of(1)
            .where_record_count(lambda n: n <= 3)
            .vids()
        )
        assert vids == [2]

    def test_within_hops(self, protein_cvd):
        assert VersionQuery(protein_cvd).within_hops(1, 1).vids() == [2, 3]
        assert VersionQuery(protein_cvd).within_hops(1, 2).vids() == [2, 3, 4]
