"""Property tests: all data models agree under random commit histories,
and a multi-version checkout merges them as the key-map merge does."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cvd import CVD
from repro.core.models import DATA_MODELS
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT


@st.composite
def commit_scripts(draw):
    """A random history: each step edits the head version's rows.

    Rows are (key, value); edits insert fresh keys, update values, or
    delete rows. Occasionally a commit branches from an older version.
    """
    num_commits = draw(st.integers(min_value=1, max_value=6))
    script = []
    for index in range(num_commits):
        operations = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "update", "delete"]),
                    st.integers(min_value=0, max_value=30),
                    st.integers(min_value=0, max_value=99),
                ),
                max_size=8,
            )
        )
        branch_from = (
            draw(st.integers(min_value=1, max_value=index))
            if index > 0
            else None
        )
        script.append((branch_from, operations))
    return script


def apply_script(script):
    """Replay a script into expected version contents."""
    versions: dict[int, dict[str, int]] = {}
    for index, (branch_from, operations) in enumerate(script, start=1):
        state = dict(versions[branch_from]) if branch_from else {}
        for op, key_index, value in operations:
            key = f"k{key_index}"
            if op == "insert" or op == "update":
                state[key] = value
            elif key in state:
                del state[key]
        versions[index] = state
    return versions


SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)
#: No primary key: the rid deduplicates a multi-version checkout.
BAG = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)])
EVOLVED = ["key", "value", "note"]
MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]


def commit_history(model, schema, script, evolve_at=None):
    """Commit ``script`` into a fresh CVD; from version ``evolve_at`` on
    each row carries a third column, which NULL-pads the versions before."""
    expected = apply_script(script)
    cvd = CVD(Database(), "p", schema, model=model)
    vids = {}
    for index, (branch_from, _ops) in enumerate(script, start=1):
        rows = sorted(expected[index].items())
        parents = [vids[branch_from]] if branch_from else []
        if evolve_at is not None and index >= evolve_at:
            rows = [(key, value, f"n{value % 3}") for key, value in rows]
            vids[index] = cvd.commit(
                rows, parents, columns=EVOLVED, column_types={"note": TEXT}
            )
        else:
            vids[index] = cvd.commit(rows, parents=parents)
    return cvd, vids


def key_map_merge(cvd, vids):
    """The reference: primary-key tuple -> rid, the first version to
    produce a key keeps it (the rid is the key without a primary key).
    It reads memberships and payloads, not the model's checkout."""
    positions = cvd.schema.key_positions()
    rid_of: dict[tuple, int] = {}
    rows = []
    for vid in vids:
        rids = sorted(cvd.membership(vid))
        for rid, payload in zip(rids, cvd.payloads_of(rids, vid)):
            key = tuple(payload[i] for i in positions) if positions else (rid,)
            if key not in rid_of:
                rid_of[key] = rid
                rows.append(payload)
    return list(rid_of.values()), rows


class TestModelAgreement:
    @given(script=commit_scripts())
    @settings(max_examples=60, deadline=None)
    def test_all_models_return_identical_contents(self, script):
        expected = apply_script(script)
        for model_name in DATA_MODELS:
            cvd, vids = commit_history(model_name, SCHEMA, script)
            for index, state in expected.items():
                result = cvd.checkout(vids[index])
                assert sorted(result.rows) == sorted(state.items()), (
                    model_name,
                    index,
                )

    @given(script=commit_scripts())
    @settings(max_examples=40, deadline=None)
    def test_checkout_commit_identity(self, script):
        """commit(checkout(v)) recreates exactly v's contents."""
        cvd, vids = commit_history("split_by_rlist", SCHEMA, script)
        head = vids[len(script)]
        result = cvd.checkout(head)
        recommitted = cvd.commit(result.rows, parents=[head])
        assert cvd.membership(recommitted) == cvd.membership(head)

    @given(script=commit_scripts())
    @settings(max_examples=40, deadline=None)
    def test_record_count_metadata_consistent(self, script):
        expected = apply_script(script)
        cvd = CVD(Database(), "p", SCHEMA)
        vids = {}
        for index, (branch_from, _ops) in enumerate(script, start=1):
            rows = sorted(expected[index].items())
            parents = [vids[branch_from]] if branch_from else []
            vids[index] = cvd.commit(rows, parents=parents)
            metadata = cvd.versions.get(vids[index])
            assert metadata.record_count == len(expected[index])


class TestPrecedenceCheckout:
    @given(script=commit_scripts(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_multi_version_checkout_matches_the_key_map_merge(
        self, script, data
    ):
        order = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=len(script)),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        evolve_at = data.draw(
            st.none() | st.integers(min_value=1, max_value=len(script))
        )
        for schema in (SCHEMA, BAG):
            for model_name in MODELS:
                cvd, vids = commit_history(model_name, schema, script, evolve_at)
                picked = [vids[index] for index in order]
                result = cvd.checkout(picked)
                assert (result.rids, result.rows) == key_map_merge(
                    cvd, picked
                ), (model_name, schema.primary_key)
                # rids[i] is the rid of rows[i].
                assert cvd.payloads_of(result.rids) == result.rows

    @given(script=commit_scripts(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_one_version_reads_null_for_a_later_column(self, script, data):
        evolve_at = data.draw(st.integers(min_value=1, max_value=len(script)))
        expected = apply_script(script)
        for model_name in MODELS:
            cvd, vids = commit_history(model_name, SCHEMA, script, evolve_at)
            for index, state in expected.items():
                result = cvd.checkout(vids[index])
                assert sorted(result.rows) == [
                    (key, value, f"n{value % 3}" if index >= evolve_at else None)
                    for key, value in sorted(state.items())
                ], (model_name, index)
                assert result.rids == list(cvd.membership(vids[index]))
                assert cvd.payloads_of(result.rids) == result.rows
