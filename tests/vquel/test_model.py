"""Tests for the conceptual data model and the CVD bridge."""

import pytest

from repro.vquel import run_query
from repro.vquel.model import Repository, VFile, VRecord, VRelation, VVersion


class TestEntities:
    def test_record_attribute_access(self):
        record = VRecord("r1", {"a": 1, "b": "x"})
        assert record.a == 1
        assert record.b == "x"
        with pytest.raises(AttributeError):
            record.c

    def test_record_all_follows_column_order(self):
        relation = VRelation("R", ["b", "a"])
        record = VRecord("r1", {"a": 1, "b": 2})
        relation.add_record(record)
        assert record.all == (2, 1)

    def test_relation_upref(self):
        version = VVersion("v1")
        relation = VRelation("R", ["a"])
        version.add_relation(relation)
        record = VRecord("r1", {"a": 1})
        relation.add_record(record)
        assert record.version is version

    def test_file_name_from_path(self):
        file = VFile("data/forms/Forms.csv")
        assert file.name == "Forms.csv"


class TestGraphTraversal:
    @pytest.fixture
    def diamond(self):
        repo = Repository()
        for vid in ("a", "b", "c", "d"):
            repo.add_version(VVersion(vid))
        repo.link("a", "b")
        repo.link("a", "c")
        repo.link("b", "d")
        repo.link("c", "d")
        return repo

    def test_p_all(self, diamond):
        d = diamond.version("d")
        assert {v.id for v in d.P()} == {"a", "b", "c"}

    def test_p_one_hop(self, diamond):
        d = diamond.version("d")
        assert {v.id for v in d.P(1)} == {"b", "c"}

    def test_d_all(self, diamond):
        a = diamond.version("a")
        assert {v.id for v in a.D()} == {"b", "c", "d"}

    def test_n_excludes_self(self, diamond):
        b = diamond.version("b")
        assert {v.id for v in b.N(1)} == {"a", "d"}

    def test_duplicate_version_id(self, diamond):
        with pytest.raises(ValueError):
            diamond.add_version(VVersion("a"))


class TestProvenanceValidation:
    def test_cross_graph_provenance_rejected(self):
        repo = Repository()
        v1 = VVersion("v1")
        v2 = VVersion("v2")  # NOT a parent of v1
        r1 = VRelation("R", ["a"])
        r2 = VRelation("R", ["a"])
        v1.add_relation(r1)
        v2.add_relation(r2)
        parent_record = VRecord("p", {"a": 1})
        child_record = VRecord("c", {"a": 1})
        r2.add_record(parent_record)
        r1.add_record(child_record)
        child_record.parents.append(parent_record)
        repo.add_version(v1)
        repo.add_version(v2)
        with pytest.raises(ValueError):
            repo.validate()


class TestFromCvd:
    def test_versions_and_contents(self, protein_cvd):
        repo = Repository.from_cvd(protein_cvd, relation_name="Interaction")
        assert [v.id for v in repo.versions] == ["v01", "v02", "v03", "v04"]
        v4 = repo.version("v04")
        assert len(v4.relation("Interaction").Tuples) == 6

    def test_version_graph_links(self, protein_cvd):
        repo = Repository.from_cvd(protein_cvd)
        v4 = repo.version("v04")
        assert {v.id for v in v4.parents} == {"v02", "v03"}

    def test_provenance_links_shared_records(self, protein_cvd):
        repo = Repository.from_cvd(protein_cvd)
        repo.validate()
        v2 = repo.version("v02")
        shared = [
            record
            for record in v2.Relations[0].Tuples
            if record.parents
        ]
        assert shared  # r2 and r3 carried over from v1

    def test_queryable(self, protein_cvd):
        repo = Repository.from_cvd(protein_cvd, relation_name="Interaction")
        result = run_query(
            repo,
            "range of V is Version "
            "range of T is V.Relations(name = ||Interaction||).Tuples "
            "retrieve V.id where count(T.protein1 "
            "where T.coexpression > 80) = 4",
        )
        assert result.rows == [("v04",)]
