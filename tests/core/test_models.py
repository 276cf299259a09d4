"""Cross-model tests: all five physical designs must agree on contents
while differing in the cost profile Chapter 4 describes."""

import random

import pytest

from repro.core.cvd import CVD
from repro.core.models import DATA_MODELS
from repro.datasets.protein import protein_history
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from tests.conftest import make_protein_cvd

ALL_MODELS = sorted(DATA_MODELS)


@pytest.mark.parametrize("model", ALL_MODELS)
class TestCheckoutAgreement:
    def test_every_version_matches_ground_truth(self, model, protein_schema):
        cvd = make_protein_cvd(model, protein_schema)
        history = protein_history()
        for commit in history.commits:
            got = {rid for rid, _p in cvd.model.checkout_rids(commit.vid)}
            assert got == set(commit.rids), (model, commit.vid)

    def test_payloads_match(self, model, protein_schema):
        cvd = make_protein_cvd(model, protein_schema)
        history = protein_history()
        for commit in history.commits:
            got = dict(cvd.model.checkout_rids(commit.vid))
            for rid in commit.rids:
                assert got[rid] == history.payloads[rid]

    def test_missing_version_is_empty_or_raises(self, model, protein_schema):
        cvd = make_protein_cvd(model, protein_schema)
        assert cvd.model.checkout_rids(999) == []


@pytest.mark.parametrize("model", ALL_MODELS + ["partitioned_rlist"])
def test_single_version_checkout_is_in_ascending_rid_order(model):
    """The one canonical row order: a version's rows by ascending rid,
    in every model, and partitioned before and after ``optimize``. It
    is what lets orpheusd build a cache entry from the memo at commit
    (``payloads_of(sorted(membership))``) that equals the checkout."""
    rng = random.Random(5)
    schema = Schema([ColumnDef("k", TEXT), ColumnDef("v", INT)], primary_key=("k",))
    cvd = CVD(Database(), "d", schema, model=model)
    vids = [cvd.commit([(f"k{i:03d}", i) for i in range(40)])]
    for step in range(12):
        parent = rng.choice(vids)
        rows = [row for row in cvd.checkout(parent).rows if rng.random() > 0.2]
        rows += [(f"n{step}.{j}", j) for j in range(5)]
        rng.shuffle(rows)
        vids.append(cvd.commit(rows, parents=(parent,)))

    def assert_ascending():
        for vid in vids:
            rids = [rid for rid, _payload in cvd.model.checkout_rids(vid)]
            assert rids == sorted(rids), vid
            by_rid = cvd.payloads_of(sorted(cvd.membership(vid)))
            assert cvd.checkout(vid).rows == by_rid, vid

    assert_ascending()
    if model == "partitioned_rlist":
        partitioning = cvd.model.optimize(storage_threshold_factor=1.5)
        assert partitioning.num_partitions > 1
        assert_ascending()


@pytest.mark.parametrize("model", ALL_MODELS)
class TestStorage:
    def test_storage_positive(self, model, protein_schema):
        cvd = make_protein_cvd(model, protein_schema)
        assert cvd.storage_bytes() > 0

    def test_drop_removes_tables(self, model, protein_schema):
        cvd = make_protein_cvd(model, protein_schema)
        names = cvd.model.table_names()
        assert names
        cvd.model.drop()
        for name in names:
            assert not cvd.database.has_table(name)


class TestModelCostProfile:
    """The qualitative Figure 4.1 orderings on a bigger history."""

    @pytest.fixture(scope="class")
    def cvds(self, sci_tiny):
        from repro.core.cvd import CVD
        from repro.relational.database import Database
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT

        schema = Schema(
            [ColumnDef(f"a{i}", INT) for i in range(sci_tiny.num_attributes)]
        )
        return {
            model: CVD.from_history(
                Database(), sci_tiny, name="sci", model=model, schema=schema
            )
            for model in ALL_MODELS
        }

    def test_table_per_version_has_largest_storage(self, cvds):
        tpv = cvds["table_per_version"].storage_bytes()
        for model in ("split_by_rlist", "split_by_vlist", "combined_table"):
            assert tpv > cvds[model].storage_bytes()

    def test_dedup_models_have_similar_storage(self, cvds):
        rlist = cvds["split_by_rlist"].storage_bytes()
        vlist = cvds["split_by_vlist"].storage_bytes()
        assert 0.5 < rlist / vlist < 2.0

    def test_rlist_commit_writes_less_than_combined(self, sci_tiny):
        """split-by-rlist avoids the per-record array-append rewrites."""
        from repro.core.cvd import CVD
        from repro.relational.database import Database
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT

        schema = Schema(
            [ColumnDef(f"a{i}", INT) for i in range(sci_tiny.num_attributes)]
        )
        written = {}
        for model in ("split_by_rlist", "combined_table"):
            db = Database()
            CVD.from_history(db, sci_tiny, name="x", model=model, schema=schema)
            written[model] = db.accountant.rows_written
        assert written["combined_table"] > 3 * written["split_by_rlist"]


class TestDeltaBasedSpecifics:
    def test_base_choice_prefers_max_overlap_parent(self, protein_schema):
        cvd = make_protein_cvd("delta_based", protein_schema)
        # v4 merges v2 (3 common) and v3 (4 common): base must be v3.
        assert cvd.model.base_of(4) == 3

    def test_chain_reaches_root(self, protein_schema):
        cvd = make_protein_cvd("delta_based", protein_schema)
        assert cvd.model.chain_of(4) == [4, 3, 1]

    def test_tombstones_hide_deleted_records(self, protein_schema):
        cvd = make_protein_cvd("delta_based", protein_schema)
        # r1 is in v1 but dropped from v3 (children of v1): checkout v3
        # must not contain rid 1.
        rids = {rid for rid, _p in cvd.model.checkout_rids(3)}
        assert 1 not in rids
