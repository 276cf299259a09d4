"""Tests for version-graph rendering."""

from repro.core.visualize import ascii_version_graph, dot_version_graph


class TestAsciiGraph:
    def test_all_versions_present(self, protein_cvd):
        text = ascii_version_graph(protein_cvd)
        for vid in (1, 2, 3, 4):
            assert f"v{vid} " in text

    def test_merge_marker_and_mention(self, protein_cvd):
        text = ascii_version_graph(protein_cvd)
        assert "◆ v4" in text
        assert "also merges v3" in text

    def test_indentation_reflects_depth(self, protein_cvd):
        lines = ascii_version_graph(protein_cvd).splitlines()
        root = next(line for line in lines if "v1 " in line)
        child = next(line for line in lines if "v2 " in line)
        assert len(child) - len(child.lstrip()) > len(root) - len(
            root.lstrip()
        )

    def test_record_counts_shown(self, protein_cvd):
        text = ascii_version_graph(protein_cvd)
        assert "[6 records]" in text  # v4

    def test_messages_can_be_hidden(self, protein_cvd):
        with_messages = ascii_version_graph(protein_cvd, show_messages=True)
        without = ascii_version_graph(protein_cvd, show_messages=False)
        assert len(without) <= len(with_messages)


class TestDotGraph:
    def test_valid_dot_structure(self, protein_cvd):
        dot = dot_version_graph(protein_cvd)
        assert dot.startswith("digraph versions {")
        assert dot.endswith("}")
        assert "v1 -> v2;" in dot
        assert "v2 -> v4;" in dot
        assert "v3 -> v4;" in dot

    def test_merge_highlighted(self, protein_cvd):
        dot = dot_version_graph(protein_cvd)
        merge_line = next(
            line for line in dot.splitlines() if line.strip().startswith('v4 [')
        )
        assert "fillcolor" in merge_line


class TestRunCommandOnFacade:
    def test_orpheus_run_sql(self):
        from repro.core.commands import Orpheus
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import INT, TEXT

        orpheus = Orpheus()
        schema = Schema(
            [ColumnDef("k", TEXT), ColumnDef("v", INT)], primary_key=("k",)
        )
        orpheus.init("data", schema, [("a", 1), ("b", 2)])
        result = orpheus.run(
            "SELECT vid, count(*) FROM CVD data GROUP BY vid"
        )
        assert result.rows == [(1, 2)]
