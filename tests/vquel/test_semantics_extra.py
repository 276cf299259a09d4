"""Additional VQuel semantics: sorting, casing, filters, derived sets."""

from repro.vquel import run_query


class TestSortSemantics:
    def test_multi_key_sort(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version range of E is "
            'V.Relations(name = "Employee").Tuples '
            "retrieve E.last_name, E.age, V.id "
            "sort by E.last_name asc, E.age desc",
        )
        last_names = [row[0] for row in result.rows]
        assert last_names == sorted(last_names)
        smith_ages = [r[1] for r in result.rows if r[0] == "Smith"]
        assert smith_ages == sorted(smith_ages, reverse=True)

    def test_sort_key_need_not_be_projected(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version retrieve V.id sort by V.creation_ts desc",
        )
        assert [r[0] for r in result.rows] == ["v03", "v02", "v01"]


class TestKeywordCasing:
    def test_uppercase_keywords(self, employee_repo):
        result = run_query(
            employee_repo,
            'RANGE OF V IS Version RETRIEVE V.id WHERE V.id = "v01"',
        )
        assert result.rows == [("v01",)]

    def test_mixed_case(self, employee_repo):
        result = run_query(
            employee_repo,
            'Range of V is Version Retrieve unique V.id Where V.id != "v01" '
            "Sort By V.id",
        )
        assert result.rows == [("v02",), ("v03",)]


class TestFilters:
    def test_filter_with_bound_iterator_value(self, employee_repo):
        """Path filters may reference outer bindings."""
        result = run_query(
            employee_repo,
            "range of V is Version "
            "range of W is Version(id = V.id) "
            "retrieve unique W.id",
        )
        assert len(result.rows) == 3

    def test_filter_no_match_yields_empty(self, employee_repo):
        result = run_query(
            employee_repo,
            'range of V is Version(id = "ghost") retrieve V.id',
        )
        assert result.rows == []

    def test_chained_filters(self, employee_repo):
        result = run_query(
            employee_repo,
            'range of E is Version(id = "v01")'
            '.Relations(name = "Employee")'
            ".Tuples(last_name = \"Smith\") "
            "retrieve E.employee_id sort by E.employee_id",
        )
        assert result.rows == [("e01",), ("e03",)]


class TestDerivedSets:
    def test_two_stage_pipeline(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Employee").Tuples '
            "retrieve into A (V.id as id, avg(E.age) as mean_age) "
            "retrieve into B (A.id as id) where A.mean_age > 45 "
            "retrieve B.id",
        )
        # v01 mean (30+55+60)/3 = 48.3; v02 46.5; v03 35.
        assert result.rows == [("v01",), ("v02",)]

    def test_derived_missing_field_is_null(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            "retrieve into T (V.id as id) "
            "retrieve T.id where T.nonexistent = 5",
        )
        assert result.rows == []


class TestAggregatesExtra:
    def test_count_empty_set_is_zero(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Missing").Tuples '
            "retrieve V.id, count(E)",
        )
        assert all(row[1] == 0 for row in result.rows)

    def test_min_max_on_strings(self, employee_repo):
        result = run_query(
            employee_repo,
            'range of E is Version(id = "v01")'
            '.Relations(name = "Employee").Tuples '
            "retrieve min(E.first_name), max(E.first_name)",
        )
        assert result.rows == [("Ann", "Cy")]

    def test_nested_aggregate_in_arithmetic(self, employee_repo):
        result = run_query(
            employee_repo,
            "range of V is Version "
            'range of E is V.Relations(name = "Employee").Tuples '
            "retrieve V.id where count(E) * 10 >= 40",
        )
        assert result.rows == [("v02",)]
