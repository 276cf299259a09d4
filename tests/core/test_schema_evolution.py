"""Tests for the single-pool schema-evolution mechanism (Section 4.3)."""

import pytest

from repro.core.cvd import CVD
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import FLOAT, INT, TEXT


@pytest.fixture
def cvd() -> CVD:
    schema = Schema(
        [
            ColumnDef("protein1", TEXT),
            ColumnDef("protein2", TEXT),
            ColumnDef("neighborhood", INT),
            ColumnDef("cooccurrence", INT),
        ],
        primary_key=("protein1", "protein2"),
    )
    return CVD(Database(), "inter", schema)


class TestAddColumn:
    def test_new_column_appended(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        cvd.commit(
            [("p1", "p2", 1, 2, 9)],
            parents=[v1],
            columns=[
                "protein1",
                "protein2",
                "neighborhood",
                "cooccurrence",
                "coexpression",
            ],
            column_types={"coexpression": INT},
        )
        assert cvd.schema.column_names[-1] == "coexpression"

    def test_old_versions_read_null_for_new_column(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        cvd.commit(
            [("p1", "p2", 1, 2, 9)],
            parents=[v1],
            columns=cvd.schema.column_names + ["coexpression"],
            column_types={"coexpression": INT},
        )
        old = cvd.checkout(v1)
        assert old.rows[0] == ("p1", "p2", 1, 2, None)

    def test_partitioned_versions_survive_evolution_and_optimize(self):
        schema = Schema([ColumnDef("k", TEXT), ColumnDef("v", INT)])
        cvd = CVD(Database(), "d", schema, model="partitioned_rlist")
        vids = [cvd.commit([(f"k{i}", i) for i in range(8)])]
        for step in range(4):
            rows = cvd.checkout(vids[-1]).rows[1:] + [(f"n{step}", step)]
            vids.append(cvd.commit(rows, parents=[vids[-1]]))
        vids.append(
            cvd.commit(
                [(f"a{i}", i, "x") for i in range(8)],
                parents=[vids[0]],
                columns=["k", "v", "note"],
                column_types={"note": TEXT},
            )
        )
        before = [cvd.checkout(vid).rows for vid in vids]
        assert before[0][0] == ("k0", 0, None)
        assert cvd.model.optimize(storage_threshold_factor=2.0).num_partitions > 1
        assert [cvd.checkout(vid).rows for vid in vids] == before

    def test_new_column_requires_type(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        with pytest.raises(ValueError):
            cvd.commit(
                [("p1", "p2", 1, 2, 9)],
                parents=[v1],
                columns=cvd.schema.column_names + ["mystery"],
            )


class TestTypeWidening:
    def test_int_to_decimal(self, cvd):
        """The Figure 4.3 scenario: cooccurrence widens int -> decimal."""
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        cvd.commit(
            [("p1", "p2", 1, 2.5)],
            parents=[v1],
            columns=cvd.schema.column_names,
            column_types={"cooccurrence": FLOAT},
        )
        assert cvd.schema.dtype_of("cooccurrence") is FLOAT

    def test_attribute_pool_grows_per_change(self, cvd):
        """Each (name, type) pair is a distinct pool entry — a5 next to
        a4 in Figure 4.3, not a mutation of a4."""
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        pool_before = len(cvd.attributes)
        cvd.commit(
            [("p1", "p2", 1, 2.5)],
            parents=[v1],
            columns=cvd.schema.column_names,
            column_types={"cooccurrence": FLOAT},
        )
        assert len(cvd.attributes) == pool_before + 1
        names = [e.name for e in cvd.attributes.entries()]
        assert names.count("cooccurrence") == 2

    def test_version_metadata_tracks_attribute_ids(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        v2 = cvd.commit(
            [("p1", "p2", 1, 2.5)],
            parents=[v1],
            columns=cvd.schema.column_names,
            column_types={"cooccurrence": FLOAT},
        )
        ids_v1 = cvd.versions.get(v1).attribute_ids
        ids_v2 = cvd.versions.get(v2).attribute_ids
        assert ids_v1 != ids_v2

    def test_old_int_values_still_readable(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        cvd.commit(
            [("p1", "p2", 1, 2.5)],
            parents=[v1],
            columns=cvd.schema.column_names,
            column_types={"cooccurrence": FLOAT},
        )
        old = cvd.checkout(v1)
        assert old.rows[0][3] == 2


class TestColumnReorder:
    def test_rows_remapped_to_schema_order(self, cvd):
        v1 = cvd.commit([("p1", "p2", 1, 2)])
        cvd.commit(
            [(7, "p1", "p2", 3)],
            parents=[v1],
            columns=[
                "cooccurrence",
                "protein1",
                "protein2",
                "neighborhood",
            ],
        )
        latest = cvd.checkout(cvd.versions.latest_vid())
        assert latest.rows[0] == ("p1", "p2", 3, 7)
