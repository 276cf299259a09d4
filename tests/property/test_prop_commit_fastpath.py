"""Property test: a commit's rid assignment, which runs without per-row
Python calls when every row and every parent payload has the schema's
arity, matches a plain per-row reference — the same rids, the same new
records, the same stored tables, and the same errors with the same text.

The reference below is the rule as the paper states it (no cross-version
diff: a row reuses the rid of an equal payload in a parent, the lowest
rid of the first parent holding it, and is a new record otherwise), one
row at a time."""

import pickle
from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cvd import CVD
from repro.core.errors import PrimaryKeyViolationError
from repro.core.models import DATA_MODELS
from repro.relational.arrays import rid_array
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT

COLUMNS = [ColumnDef("a", TEXT), ColumnDef("b", INT), ColumnDef("c", INT)]
MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]

#: Small domains, so rows, keys and payloads collide often.
ROW = st.tuples(st.sampled_from("wxyz"), st.integers(0, 3), st.integers(0, 2))


def reference_assign(
    cvd: CVD, rows: list[tuple], parents, next_rid: int
) -> tuple[dict, dict]:
    """``(records, new_records)`` of committing ``rows`` (rid → padded
    payload, in row order) with ``next_rid`` the first free rid, or the
    error the commit must raise."""
    width = len(cvd.schema.columns)

    def pad(row: tuple) -> tuple:
        if len(row) > width:
            raise ValueError(
                f"row arity {len(row)} exceeds schema arity {width}"
            )
        return row + (None,) * (width - len(row))

    if cvd.schema.primary_key:
        seen = set()
        for row in rows:
            key = tuple(
                row[i] for i in cvd.schema.key_positions() if i < len(row)
            )
            if key in seen:
                raise PrimaryKeyViolationError(
                    f"duplicate primary key {key!r} in committed table"
                )
            seen.add(key)
    reusable = {}
    for parent in parents:
        for rid in sorted(cvd.membership(parent)):
            reusable.setdefault(pad(cvd.payload_of(rid)), rid)
    records, new_records = {}, {}
    for row in rows:
        padded = pad(row)
        rid = reusable.get(padded)
        if rid is None or rid in records:
            rid = next_rid
            next_rid += 1
            new_records[rid] = padded
        records[rid] = padded
    return records, new_records


def unique_keys(cvd: CVD, rows) -> list[tuple]:
    """``rows`` with later repeats of a primary key dropped."""
    positions = cvd.schema.key_positions()
    if not positions:
        return list(rows)
    kept = {}
    for row in rows:
        kept.setdefault(tuple(row[i] for i in positions), row)
    return list(kept.values())


@st.composite
def scenarios(draw):
    """A history of commits, then the commit under test."""
    model = draw(st.sampled_from(MODELS))
    key = draw(st.sampled_from([(), ("a",), ("a", "b")]))
    first = draw(st.lists(ROW, min_size=1, max_size=8))
    steps = []
    for index in range(draw(st.integers(0, 4))):
        parents = draw(
            st.lists(st.integers(1, index + 1), min_size=1, max_size=2,
                     unique=True)
        )
        kept = draw(st.lists(st.integers(0, 15), max_size=10))
        fresh = draw(st.lists(ROW, max_size=4))
        evolve = draw(st.booleans()) and not any(s[3] for s in steps)
        steps.append((parents, kept, fresh, evolve))
    parents = draw(
        st.lists(st.integers(1, len(steps) + 1), min_size=1, max_size=2,
                 unique=True)
    )
    kept = draw(st.lists(st.integers(0, 15), max_size=12))
    fresh = draw(st.lists(ROW, max_size=4))
    shape = draw(st.sampled_from(["full", "duplicate_key", "wide", "short"]))
    return model, key, first, steps, (parents, kept, fresh, shape)


def rows_from(cvd: CVD, parents, kept, fresh) -> list[tuple]:
    """Some of the parents' rows (repeats allowed) plus fresh ones, at
    the schema's current arity."""
    pool = [row for vid in parents for row in cvd.checkout(vid).rows]
    width = len(cvd.schema.columns)
    chosen = [pool[i % len(pool)] for i in kept] if pool else []
    return chosen + [row + (None,) * (width - len(row)) for row in fresh]


def assert_rid_array(rids, records) -> None:
    """``rids`` is a version's rid array holding exactly ``records``'
    rids: an ``array('q')``, strictly ascending."""
    assert type(rids) is array and rids.typecode == "q"
    assert list(rids) == sorted(records)


def checked_commit(cvd: CVD, rows: list[tuple], parents=(), **evolution) -> None:
    """Commit ``rows`` and check the rids against the reference. The
    reference runs after the commit, so that it sees the schema a
    schema-changing commit evolved to; a commit changes no parent's
    membership or payloads."""
    next_rid = cvd._next_rid
    vid = cvd.commit(rows, parents=list(parents), **evolution)
    records, new_records = reference_assign(cvd, rows, parents, next_rid)
    assert_rid_array(cvd.membership(vid), records)
    assert cvd._next_rid == next_rid + len(new_records)
    assert {rid: cvd.payload_of(rid) for rid in new_records} == new_records


def build(model: str, key, first, steps) -> CVD:
    """The history, every commit of it checked against the reference."""
    cvd = CVD(Database(), "ds", Schema(COLUMNS, primary_key=key), model=model)
    checked_commit(cvd, unique_keys(cvd, first))
    for parents, kept, fresh, evolve in steps:
        rows = unique_keys(cvd, rows_from(cvd, parents, kept, fresh))
        if evolve:
            checked_commit(
                cvd, [row + (len(row),) for row in rows], parents,
                columns=[*cvd.schema.column_names, "d"],
                column_types={"d": INT},
            )
        else:
            checked_commit(cvd, rows, parents)
    return cvd


def stored(cvd: CVD) -> dict[str, bytes]:
    """Each physical table's heap, as bytes (the tables also pickle
    their read counters, which say how a commit read, not what it
    stored)."""
    return {table.name: pickle.dumps(table._rows) for table in cvd.database}


SPLIT = "split_by_rlist"


@settings(max_examples=150, deadline=None)
@given(scenarios())
# A parent holding one payload twice: the lower rid is reused.
@example((SPLIT, (), [("x", 0, 0), ("x", 0, 0), ("y", 1, 1)], [],
          ([1], [0, 1, 2], [], "full")))
# Two branches that each added ("y", 1, 1): the first parent's rid wins.
@example((SPLIT, ("a",), [("x", 0, 0)],
          [([1], [0], [("y", 1, 1)], False), ([1], [0], [("y", 1, 1)], False)],
          ([3, 2], [0, 1, 2, 3], [], "full")))
@example((SPLIT, ("a",), [("x", 0, 0), ("y", 1, 1)], [],
          ([1], [0, 1], [], "duplicate_key")))
@example((SPLIT, ("a",), [("x", 0, 0), ("y", 1, 1)], [],
          ([1], [0, 1], [], "wide")))
# After a schema change, rows of the old arity are padded.
@example((SPLIT, ("a", "b"), [("x", 0, 0), ("y", 1, 1)],
          [([1], [0, 1], [("z", 2, 0)], True)],
          ([2, 1], [0, 1, 2, 3], [], "short")))
def test_commit_assigns_rids_like_the_per_row_reference(scenario):
    model, key, first, steps, (parents, kept, fresh, shape) = scenario
    fast = build(model, key, first, steps)
    reference = build(model, key, first, steps)

    rows = unique_keys(fast, rows_from(fast, parents, kept, fresh))
    if shape == "duplicate_key" and key and rows:
        rows.append(rows[0][:-1] + (99,))
    elif shape == "wide" and rows:
        rows[len(rows) // 2] += (7,)
    elif shape == "short":
        # The rows of a client that has not seen a schema change yet.
        rows = [row[:-1] for row in rows]

    try:
        expected = reference_assign(reference, rows, parents, reference._next_rid)
    except (PrimaryKeyViolationError, ValueError) as error:
        try:
            fast.commit(rows, parents=parents)
        except type(error) as raised:
            assert str(raised) == str(error)
        else:
            raise AssertionError(f"expected {error!r}")
        return
    records, new_records = expected
    vid = fast.commit(rows, parents=parents)
    assert_rid_array(fast.membership(vid), records)
    assert fast._next_rid == reference._next_rid + len(new_records)
    assert {rid: fast.payload_of(rid) for rid in new_records} == new_records

    reference.model.commit_version(
        vid, tuple(parents), rid_array(sorted(records)), new_records,
        {p: reference.membership(p) for p in parents}, records,
    )
    assert fast.storage_bytes() == reference.storage_bytes()
    assert stored(fast) == stored(reference)
