"""Tests for the synthetic repository generator itself."""

from repro.provenance.synthetic import RepositoryConfig, generate_repository


class TestGenerator:
    def test_artifact_count(self):
        artifacts, truth = generate_repository(
            RepositoryConfig(num_artifacts=12, seed=1)
        )
        assert len(artifacts) == 12
        assert len(truth) == 11  # a tree: n-1 edges

    def test_truth_edges_reference_real_artifacts(self):
        artifacts, truth = generate_repository(
            RepositoryConfig(num_artifacts=10, seed=2)
        )
        names = {a.name for a in artifacts}
        for parent, child in truth:
            assert parent in names
            assert child in names
            assert parent != child

    def test_truth_is_acyclic(self):
        _artifacts, truth = generate_repository(
            RepositoryConfig(num_artifacts=15, seed=3, branch_probability=0.4)
        )
        parent_of = dict((child, parent) for parent, child in truth)
        for start in parent_of:
            seen = {start}
            node = parent_of.get(start)
            while node is not None:
                assert node not in seen
                seen.add(node)
                node = parent_of.get(node)

    def test_deterministic(self):
        config = RepositoryConfig(num_artifacts=8, seed=9)
        a_artifacts, a_truth = generate_repository(config)
        b_artifacts, b_truth = generate_repository(config)
        assert a_truth == b_truth
        assert [a.rows for a in a_artifacts] == [b.rows for b in b_artifacts]

    def test_drop_timestamps(self):
        artifacts, _truth = generate_repository(
            RepositoryConfig(num_artifacts=6, seed=4, drop_timestamps=True)
        )
        assert all(a.timestamp is None for a in artifacts)

    def test_timestamps_ordered_without_noise(self):
        artifacts, truth = generate_repository(
            RepositoryConfig(num_artifacts=10, seed=5, timestamp_noise=0.0)
        )
        by_name = {a.name: a for a in artifacts}
        for parent, child in truth:
            assert by_name[parent].timestamp < by_name[child].timestamp

    def test_schema_changes_produce_varied_arity(self):
        artifacts, _truth = generate_repository(
            RepositoryConfig(
                num_artifacts=20, seed=6, schema_change_probability=0.6
            )
        )
        arities = {a.num_columns for a in artifacts}
        assert len(arities) > 1

    def test_presentation_order_shuffled(self):
        artifacts, _truth = generate_repository(
            RepositoryConfig(num_artifacts=20, seed=7)
        )
        names = [a.name for a in artifacts]
        assert names != sorted(names)
