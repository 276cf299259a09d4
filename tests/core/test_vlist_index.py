"""The footnote variant: split-by-vlist with a secondary vlist index."""

import pytest

from repro.core.cvd import CVD
from repro.core.models.split_by_vlist import SplitByVlistModel
from repro.datasets.protein import protein_history
from repro.relational.database import Database


def build(protein_schema, vlist_index: bool):
    db = Database()
    model = SplitByVlistModel(
        db, "i", protein_schema, vlist_index=vlist_index
    )
    cvd = CVD.from_history(
        db, protein_history(), name="i", model=model, schema=protein_schema
    )
    return cvd, model, db


class TestVlistIndex:
    def test_checkout_identical_with_index(self, protein_schema):
        _c1, plain, _db1 = build(protein_schema, vlist_index=False)
        _c2, indexed, _db2 = build(protein_schema, vlist_index=True)
        for vid in (1, 2, 3, 4):
            assert plain.checkout_columns(vid) == indexed.checkout_columns(vid)

    def test_index_avoids_versioning_scan(self, protein_schema):
        _cvd, model, db = build(protein_schema, vlist_index=True)
        versioning_rows = model._versioning.row_count
        db.accountant.reset()
        model.checkout_columns(4)
        # Only the data table is scanned (by the hash join); without the
        # index the versioning table's rows would be scanned too.
        assert db.accountant.seq_rows <= model._data.row_count

    def test_plain_variant_scans_versioning_table(self, protein_schema):
        _cvd, model, db = build(protein_schema, vlist_index=False)
        db.accountant.reset()
        model.checkout_columns(4)
        assert db.accountant.seq_rows > model._data.row_count

    def test_index_makes_commit_cost_higher(self, protein_schema):
        """The paper's footnote: the index 'increased the time for
        commit even further' — measured as extra write work."""
        writes = {}
        for flag in (False, True):
            _cvd, _model, db = build(protein_schema, vlist_index=flag)
            writes[flag] = db.accountant.rows_written
        assert writes[True] > writes[False]
