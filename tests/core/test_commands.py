"""Tests for the Orpheus command facade, staging, access control, CSV."""

import pytest

from repro.core.commands import Orpheus
from repro.core.errors import CVDError, StagingError
from repro.core.errors import PermissionError_
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)


@pytest.fixture
def orpheus() -> Orpheus:
    o = Orpheus()
    o.create_user("alice")
    o.config("alice")
    o.init("demo", SCHEMA, [("a", 1), ("b", 2)])
    return o


class TestUsers:
    def test_whoami(self, orpheus):
        assert orpheus.whoami() == "alice"

    def test_duplicate_user(self, orpheus):
        with pytest.raises(PermissionError_):
            orpheus.create_user("alice")

    def test_login_unknown(self, orpheus):
        with pytest.raises(PermissionError_):
            orpheus.config("mallory")


class TestInitLsDrop:
    def test_init_creates_version_one(self, orpheus):
        assert orpheus.cvd("demo").num_versions == 1

    def test_duplicate_cvd(self, orpheus):
        with pytest.raises(CVDError):
            orpheus.init("demo", SCHEMA)

    def test_ls(self, orpheus):
        orpheus.init("other", SCHEMA)
        assert orpheus.ls() == ["demo", "other"]

    def test_drop(self, orpheus):
        orpheus.drop("demo")
        assert orpheus.ls() == []
        with pytest.raises(CVDError):
            orpheus.cvd("demo")

    def test_empty_init_has_no_versions(self, orpheus):
        vid = orpheus.init("empty", SCHEMA)
        assert vid == 0
        assert orpheus.cvd("empty").num_versions == 0


class TestCheckoutCommit:
    def test_checkout_materializes_table(self, orpheus):
        table = orpheus.checkout("demo", 1, "work")
        assert len(table) == 2
        assert orpheus.database.has_table("work")

    def test_commit_creates_child_version(self, orpheus):
        table = orpheus.checkout("demo", 1, "work")
        table.insert(("c", 3))
        vid = orpheus.commit("work", message="added c")
        cvd = orpheus.cvd("demo")
        assert vid == 2
        assert cvd.versions.parents(vid) == (1,)
        assert cvd.versions.get(vid).record_count == 3

    def test_commit_releases_staging(self, orpheus):
        orpheus.checkout("demo", 1, "work")
        orpheus.commit("work")
        assert not orpheus.database.has_table("work")
        with pytest.raises(StagingError):
            orpheus.commit("work")

    def test_checkout_name_collision(self, orpheus):
        orpheus.checkout("demo", 1, "work")
        with pytest.raises(StagingError):
            orpheus.checkout("demo", 1, "work")

    def test_staging_owner_enforced(self, orpheus):
        orpheus.checkout("demo", 1, "private")
        orpheus.create_user("bob")
        orpheus.config("bob")
        with pytest.raises(StagingError):
            orpheus.commit("private")

    def test_checkout_records_timestamp(self, orpheus):
        orpheus.checkout("demo", 1, "work")
        assert orpheus.cvd("demo").versions.get(1).checkout_time is not None

    def test_checkout_with_latest_strategy(self, orpheus):
        from repro.relational.expressions import lit

        t1 = orpheus.checkout("demo", 1, "x1")
        t1.update_where(None, {"value": lit(99)})
        v2 = orpheus.commit("x1")
        orpheus.checkout("demo", 1, "x2")
        v3 = orpheus.commit("x2")
        merged = orpheus.checkout(
            "demo", [v2, v3], "merged", merge_strategy="latest"
        )
        # v3 committed last but matches v1's values; 'latest' favors it.
        rows = dict(merged.rows_snapshot())
        assert rows["a"] == 1

    def test_checkout_strict_strategy_raises_on_conflict(self, orpheus):
        from repro.core.merge import MergeConflictError
        from repro.relational.expressions import lit

        t1 = orpheus.checkout("demo", 1, "y1")
        t1.update_where(None, {"value": lit(99)})
        v2 = orpheus.commit("y1")
        with pytest.raises(MergeConflictError):
            orpheus.checkout(
                "demo", [1, v2], "boom", merge_strategy="strict"
            )

    def test_unknown_merge_strategy(self, orpheus):
        with pytest.raises(CVDError):
            orpheus.checkout("demo", 1, "z", merge_strategy="vote")

    def test_merge_checkout_commit(self, orpheus):
        t1 = orpheus.checkout("demo", 1, "w1")
        t1.insert(("c", 3))
        v2 = orpheus.commit("w1")
        t2 = orpheus.checkout("demo", 1, "w2")
        t2.insert(("d", 4))
        v3 = orpheus.commit("w2")
        merged = orpheus.checkout("demo", [v2, v3], "merged")
        assert len(merged) == 4
        v4 = orpheus.commit("merged", message="merge")
        assert set(orpheus.cvd("demo").versions.parents(v4)) == {v2, v3}


class TestCsvRoundtrip:
    def test_checkout_commit_via_csv(self, orpheus, tmp_path):
        csv_path = str(tmp_path / "work.csv")
        schema_path = str(tmp_path / "schema.csv")
        orpheus.execute(
            "checkout",
            {"dataset": "demo", "versions": [1], "file": csv_path, "schema": schema_path},
            "alice",
        )
        with open(csv_path, "a", newline="") as handle:
            handle.write("c,3\r\n")
        data = orpheus.execute(
            "commit",
            {"dataset": "demo", "file": csv_path, "schema": schema_path,
             "message": "from csv"},
            "alice",
        )
        assert data["parents"] == [1]
        vid = data["version"]
        assert orpheus.cvd("demo").versions.get(vid).record_count == 3
        assert orpheus.staging.pinned(csv_path) is None

    def test_commit_unpinned_csv_is_a_new_root(self, orpheus, tmp_path):
        """A file no checkout wrote commits with no parents unless the
        request names them — the CLI's and the daemon's rule."""
        stray = tmp_path / "stray.csv"
        stray.write_text("key,value\nz,1\n")
        params = {"dataset": "demo", "file": str(stray)}
        root = orpheus.execute("commit", params, "alice")["version"]
        assert orpheus.cvd("demo").versions.parents(root) == ()
        child = orpheus.execute("commit", dict(params, parents=[root]), "alice")
        assert child["parents"] == [root]
        assert orpheus.cvd("demo").versions.get(root).checkout_time is None

    def test_init_from_table(self, orpheus):
        source = orpheus.database.create_table("legacy", SCHEMA)
        source.insert(("x", 10))
        source.insert(("y", 20))
        vid = orpheus.init_from_table("migrated", "legacy")
        assert vid == 1
        assert orpheus.cvd("migrated").num_records == 2
        assert orpheus.database.has_table("legacy")  # kept by default

    def test_init_from_table_dropping_source(self, orpheus):
        source = orpheus.database.create_table("legacy2", SCHEMA)
        source.insert(("x", 10))
        orpheus.init_from_table("migrated2", "legacy2", drop_source=True)
        assert not orpheus.database.has_table("legacy2")

    def test_init_from_csv(self, orpheus, tmp_path):
        csv_path = tmp_path / "new.csv"
        csv_path.write_text("key,value\nx,10\ny,20\n")
        schema_path = tmp_path / "schema.csv"
        from repro.core.csvio import write_schema_file

        write_schema_file(schema_path, SCHEMA)
        vid = orpheus.init_from_csv("fresh", str(csv_path), str(schema_path))
        assert vid == 1
        assert orpheus.cvd("fresh").num_records == 2


class TestAccessControl:
    def test_private_cvd_blocks_strangers(self, orpheus):
        orpheus.access.mark_private("demo", "alice")
        orpheus.create_user("bob")
        orpheus.config("bob")
        with pytest.raises(PermissionError_):
            orpheus.checkout("demo", 1, "theft")

    def test_grant_allows_access(self, orpheus):
        orpheus.access.mark_private("demo", "alice")
        orpheus.create_user("bob")
        orpheus.access.grant("demo", "bob")
        orpheus.config("bob")
        table = orpheus.checkout("demo", 1, "shared")
        assert len(table) == 2
