"""Tests for the single-pool vs multi-pool comparison (Section 4.3)."""

from repro.core.schema_policy import (
    compare_schema_policies,
    costs_from_cvd,
    simulate_evolving_history,
)


class TestComparison:
    def test_no_schema_change_policies_tie(self):
        membership = {1: frozenset({1, 2}), 2: frozenset({1, 2, 3})}
        attributes = {1: frozenset({0, 1}), 2: frozenset({0, 1})}
        costs = compare_schema_policies(membership, attributes)
        assert costs.single_pool_cells == costs.multi_pool_cells
        assert costs.duplicated_records == 0
        assert costs.single_pool_null_cells == 0

    def test_schema_change_duplicates_records_in_multi_pool(self):
        # v2 adds attribute 2; records 1 and 2 survive the change.
        membership = {1: frozenset({1, 2}), 2: frozenset({1, 2, 3})}
        attributes = {1: frozenset({0, 1}), 2: frozenset({0, 1, 2})}
        costs = compare_schema_policies(membership, attributes)
        assert costs.duplicated_records == 2
        # Multi pool: 2 records x 2 attrs + 3 records x 3 attrs = 13.
        assert costs.multi_pool_cells == 13
        # Single pool: 3 records x 3 attrs = 9 (with 2 NULL cells for
        # the old records' missing attribute... r3 has all).
        assert costs.single_pool_cells == 9
        assert costs.single_pool_null_cells == 2
        assert costs.single_pool_wins

    def test_paper_claim_on_evolving_history(self):
        """The Section 4.3 claim: single pool stores less overall, for a
        history with periodic schema changes and surviving records."""
        membership, attributes = simulate_evolving_history(
            num_versions=30,
            records_per_version=200,
            new_records_per_version=20,
            schema_change_every=5,
        )
        costs = compare_schema_policies(membership, attributes)
        assert costs.single_pool_wins
        assert costs.duplicated_records > 0

    def test_frequent_changes_widen_the_gap(self):
        def gap(every: int) -> float:
            membership, attributes = simulate_evolving_history(
                num_versions=30,
                records_per_version=200,
                new_records_per_version=20,
                schema_change_every=every,
            )
            costs = compare_schema_policies(membership, attributes)
            return costs.multi_pool_cells / costs.single_pool_cells

        assert gap(3) > gap(15)

    def test_costs_from_cvd(self):
        from repro.core.cvd import CVD
        from repro.relational.database import Database
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT, TEXT

        schema = Schema(
            [ColumnDef("k", TEXT), ColumnDef("v", INT)], primary_key=("k",)
        )
        cvd = CVD(Database(), "p", schema)
        v1 = cvd.commit([("a", 1), ("b", 2)])
        cvd.commit(
            [("a", 1, 9), ("b", 2, 8)],
            parents=[v1],
            columns=["k", "v", "extra"],
            column_types={"extra": INT},
        )
        costs = costs_from_cvd(cvd)
        assert costs.duplicated_records == 0  # modified rows got new rids
        assert costs.single_pool_cells > 0

    def test_simulated_history_is_deterministic(self):
        a = simulate_evolving_history(10, 50, 5, 3)
        b = simulate_evolving_history(10, 50, 5, 3)
        assert a == b
