"""Tests for the CVD layer: commits, rid assignment, checkout semantics."""

import pytest

from repro.core.cvd import CVD
from repro.core.errors import NoSuchVersionError, PrimaryKeyViolationError
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT


@pytest.fixture
def cvd() -> CVD:
    schema = Schema(
        [ColumnDef("key", TEXT), ColumnDef("value", INT)],
        primary_key=("key",),
    )
    return CVD(Database(), "demo", schema)


class TestCommit:
    def test_first_commit(self, cvd):
        vid = cvd.commit([("a", 1), ("b", 2)], message="init")
        assert vid == 1
        assert cvd.num_records == 2

    def test_unchanged_records_keep_rids(self, cvd):
        v1 = cvd.commit([("a", 1), ("b", 2)])
        v2 = cvd.commit([("a", 1), ("b", 2), ("c", 3)], parents=[v1])
        # Only 'c' is new: 3 distinct records total.
        assert cvd.num_records == 3
        assert set(cvd.membership(v1)) < set(cvd.membership(v2))

    def test_modified_record_gets_new_rid(self, cvd):
        v1 = cvd.commit([("a", 1)])
        v2 = cvd.commit([("a", 2)], parents=[v1])
        assert cvd.num_records == 2
        assert set(cvd.membership(v1)).isdisjoint(cvd.membership(v2))

    def test_no_cross_version_diff_rule(self, cvd):
        """A record deleted then re-added (relative to grandparent) gets a
        fresh rid because commit only diffs against parents."""
        v1 = cvd.commit([("a", 1), ("b", 2)])
        v2 = cvd.commit([("b", 2)], parents=[v1])  # 'a' deleted
        v3 = cvd.commit([("a", 1), ("b", 2)], parents=[v2])  # re-added
        assert cvd.num_records == 3  # ('a',1) stored twice
        (rid_a_v1,) = set(cvd.membership(v1)).difference(cvd.membership(v2))
        (rid_a_v3,) = set(cvd.membership(v3)).difference(cvd.membership(v2))
        assert rid_a_v1 != rid_a_v3
        assert cvd.payload_of(rid_a_v1) == cvd.payload_of(rid_a_v3)

    def test_duplicate_pk_rejected(self, cvd):
        with pytest.raises(PrimaryKeyViolationError):
            cvd.commit([("a", 1), ("a", 2)])

    def test_unknown_parent_rejected(self, cvd):
        with pytest.raises(NoSuchVersionError):
            cvd.commit([("a", 1)], parents=[7])

    def test_a_refused_commit_leaves_no_trace_in_the_memo(self, cvd):
        """The memo and the rid counter follow the model's tables: they
        move only once ``commit_version`` has returned."""
        twin = CVD(Database(), "demo", cvd.schema)
        for each in (cvd, twin):
            first = each.commit([("a", 1), ("b", 2)])

        real = cvd.model.commit_version

        def refuse(*args):
            raise RuntimeError("disk full")

        cvd.model.commit_version = refuse
        with pytest.raises(RuntimeError, match="disk full"):
            cvd.commit([("a", 1), ("c", 3), ("d", 4)], parents=[first])
        cvd.model.commit_version = real

        assert cvd._next_rid == twin._next_rid
        assert cvd.num_records == twin.num_records == 2
        assert cvd._membership == twin._membership
        assert cvd._payloads == twin._payloads
        for rid in (3, 4):  # the rids the refused commit would have used
            with pytest.raises(KeyError):
                cvd.payload_of(rid)

        for each in (cvd, twin):
            each.commit([("b", 2), ("e", 5)], parents=[first])
        head = cvd.versions.vids()[-1]
        (new,) = set(cvd.membership(head)).difference(cvd.membership(first))
        (expected,) = set(twin.membership(2)).difference(twin.membership(first))
        assert new == expected == 3
        assert cvd.payload_of(new) == twin.payload_of(expected) == ("e", 5)

    def test_metadata_recorded(self, cvd):
        vid = cvd.commit([("a", 1)], message="hello", author="alice")
        metadata = cvd.versions.get(vid)
        assert metadata.message == "hello"
        assert metadata.author == "alice"
        assert metadata.record_count == 1
        assert metadata.commit_time is not None

    def test_reserved_column_rejected(self):
        with pytest.raises(ValueError):
            CVD(
                Database(),
                "bad",
                Schema([ColumnDef("rid", INT)]),
            )


class TestCheckout:
    def test_roundtrip(self, cvd):
        rows = [("a", 1), ("b", 2)]
        vid = cvd.commit(rows)
        result = cvd.checkout(vid)
        assert sorted(result.rows) == sorted(rows)
        assert result.parents == (vid,)

    def test_multi_version_precedence(self, cvd):
        v1 = cvd.commit([("a", 1), ("b", 2)])
        v2 = cvd.commit([("a", 99), ("c", 3)], parents=[v1])
        # v2 first: its ('a', 99) wins over v1's ('a', 1).
        merged = cvd.checkout([v2, v1])
        assert sorted(merged.rows) == [("a", 99), ("b", 2), ("c", 3)]
        # Reversed precedence: v1's 'a' wins.
        merged = cvd.checkout([v1, v2])
        assert sorted(merged.rows) == [("a", 1), ("b", 2), ("c", 3)]

    def test_empty_vids_rejected(self, cvd):
        cvd.commit([("a", 1)])
        with pytest.raises(ValueError):
            cvd.checkout([])

    def test_unknown_version(self, cvd):
        with pytest.raises(NoSuchVersionError):
            cvd.checkout(5)

    def test_rids_point_to_stored_records(self, cvd):
        vid = cvd.commit([("a", 1), ("b", 2)])
        result = cvd.checkout(vid)
        assert [cvd.payload_of(rid) for rid in result.rids] == result.rows


class TestSetOperations:
    @pytest.fixture
    def three_versions(self, cvd):
        v1 = cvd.commit([("a", 1), ("b", 2)])
        v2 = cvd.commit([("a", 1), ("c", 3)], parents=[v1])
        v3 = cvd.commit([("a", 1), ("b", 2), ("d", 4)], parents=[v1])
        return v1, v2, v3

    def test_diff(self, cvd, three_versions):
        v1, v2, _v3 = three_versions
        only_1, only_2 = cvd.diff(v1, v2)
        assert only_1 == [("b", 2)]
        assert only_2 == [("c", 3)]

    def test_v_intersect(self, cvd, three_versions):
        v1, v2, v3 = three_versions
        assert cvd.v_intersect([v1, v2, v3]) == [("a", 1)]

    def test_v_diff_arrays(self, cvd, three_versions):
        v1, v2, v3 = three_versions
        result = cvd.v_diff([v2, v3], v1)
        assert sorted(result) == [("c", 3), ("d", 4)]

    def test_v_intersect_empty_input(self, cvd, three_versions):
        assert cvd.v_intersect([]) == []


class TestVersionGraph:
    def test_ancestors_descendants(self, cvd):
        v1 = cvd.commit([("a", 1)])
        v2 = cvd.commit([("a", 1), ("b", 2)], parents=[v1])
        v3 = cvd.commit([("a", 1), ("c", 3)], parents=[v1])
        v4 = cvd.commit(
            [("a", 1), ("b", 2), ("c", 3)], parents=[v2, v3]
        )
        assert cvd.versions.ancestors(v4) == {v1, v2, v3}
        assert cvd.versions.descendants(v1) == {v2, v3, v4}
        assert cvd.versions.is_merge(v4)
        assert not cvd.versions.is_merge(v2)

    def test_hop_limits(self, cvd):
        v1 = cvd.commit([("a", 1)])
        v2 = cvd.commit([("b", 2)], parents=[v1])
        v3 = cvd.commit([("c", 3)], parents=[v2])
        assert cvd.versions.ancestors(v3, max_hops=1) == {v2}
        assert cvd.versions.neighbors(v1, 1) == {v2}
        assert cvd.versions.neighbors(v1, 2) == {v2, v3}


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_a_state_with_column_names_per_version_loads_and_saves_without_them(
    tmp_path, monkeypatch, layout
):
    """``data/head_repo.tar.gz`` was written while a CVD kept its column
    names per version: it loads, every version's ``attribute_ids`` name
    its columns, and the next save leaves the names out."""
    import pickle
    import tarfile
    from pathlib import Path

    from repro.resilience.statestore import LAYOUT_ENV, StateStore

    data = Path(__file__).resolve().parents[1] / "pagestore" / "data"
    with tarfile.open(data / "head_repo.tar.gz") as archive:
        archive.extractall(tmp_path)
    root = tmp_path / layout
    monkeypatch.setenv(LAYOUT_ENV, layout)
    held = (root / ".orpheus" / "state.pkl").read_bytes()
    if layout == "pickle":
        assert b"_version_columns" in held
    orpheus, _info = StateStore(root).load(warn=None)
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        assert "_version_columns" not in vars(cvd)
        for vid in cvd.versions.vids():
            ids = cvd.versions.get(vid).attribute_ids
            assert [cvd.attributes.entry(i).name for i in ids] == ["key", "value"]
    assert b"_version_columns" not in pickle.dumps(orpheus)
    StateStore(root).save(orpheus)
    assert b"_version_columns" not in (root / ".orpheus" / "state.pkl").read_bytes()
