"""Coverage for the *_all aggregate family and File entities."""

import pytest

from repro.vquel import run_query
from repro.vquel.model import VFile


@pytest.fixture
def repo_with_files(employee_repo):
    v1 = employee_repo.version("v01")
    v1.add_file(VFile("data/raw/reads.fastq", b"ACGT"))
    v1.add_file(VFile("notes/README.md", b"hello"))
    v2 = employee_repo.version("v02")
    v2.add_file(VFile("data/raw/reads.fastq", b"ACGTT", changed=True))
    return employee_repo


class TestAllVariants:
    def test_sum_all_group_by_version(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of R is V.Relations(name = "Employee") '
            "range of E is R.Tuples "
            "retrieve V.id, sum_all(E.age group by V)",
        )
        assert dict(result.rows) == {
            "v01": 145,
            "v02": 186,
            "v03": 70,
        }

    def test_max_all_without_group_by_is_global(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Employee").Tuples '
            "retrieve unique max_all(E.age)",
        )
        assert result.rows == [(61,)]

    def test_avg_all_group_by(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Employee").Tuples '
            "retrieve V.id, avg_all(E.age group by V) "
            'where V.id = "v03"',
        )
        assert result.rows == [("v03", 35.0)]

    def test_any_all(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Employee").Tuples '
            "retrieve V.id where any_all(E.age > 60 group by V)",
        )
        assert result.rows == [("v02",)]


class TestFiles:
    def test_iterate_files(self, repo_with_files):
        result = run_query(
            repo_with_files,
            "range of V is Version range of F is V.Files "
            "retrieve V.id, F.name sort by V.id, F.name",
        )
        assert result.rows == [
            ("v01", "README.md"),
            ("v01", "reads.fastq"),
            ("v02", "reads.fastq"),
        ]

    def test_filter_files_by_path(self, repo_with_files):
        result = run_query(
            repo_with_files,
            'range of F is Version(id = "v01")'
            '.Files(full_path = "notes/README.md") '
            "retrieve F.name",
        )
        assert result.rows == [("README.md",)]

    def test_changed_flag_on_files(self, repo_with_files):
        result = run_query(
            repo_with_files,
            "range of V is Version range of F is V.Files "
            "retrieve V.id, F.name where F.changed = 1",
        )
        assert result.rows == [("v02", "reads.fastq")]

    def test_count_files_per_version(self, repo_with_files):
        result = run_query(
            repo_with_files,
            "range of V is Version range of F is V.Files "
            "retrieve V.id, count(F)",
        )
        assert dict(result.rows)["v01"] == 2
        assert dict(result.rows)["v03"] == 0
