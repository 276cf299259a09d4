"""A commit of a checked-out file compares only the lines it changed.

The known-lines reader hands ``CVD.commit`` the rid each unchanged line
was rendered for; the commit reuses it and renders only the other rows,
to look them up among the parent's lines. Here against an oracle: the
payload -> rid rule on its own, as the commit applied it to every row
before the reader matched any (no cross-version diff; for equal
payloads the lowest parent rid wins; a repeated full row gets a fresh
rid; fresh rids in file order)."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.commands import Orpheus
from repro.core.csvio import read_csv, read_schema_file
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import FLOAT, INT, TEXT

COMPARED = "cvd.commit.payloads_compared"


def new_repository() -> Orpheus:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    return orpheus


def oracle(cvd, rows: list[tuple], parents) -> dict[int, tuple]:
    """The version's records, rid -> row, by the payload -> rid rule.
    Stored payloads are NULL-extended to the rows' width (a commit that
    adds a column extends them so)."""
    width = len(rows[0]) if rows else len(cvd.schema.columns)
    lowest: dict[tuple, int] = {}
    for parent in reversed(parents):  # the first parent's entries win
        for rid in sorted(cvd.membership(parent), reverse=True):
            payload = cvd.payload_of(rid)
            lowest[payload + (None,) * (width - len(payload))] = rid
    records: dict[int, tuple] = {}
    fresh = cvd._next_rid
    for row in rows:
        rid = lowest.get(row)
        if rid is None or rid in records:
            rid, fresh = fresh, fresh + 1
        records[rid] = row
    return records


def commit_and_check(orpheus, root: Path, parents, schema=None) -> int:
    """Commit ``root/work.csv`` on ``parents`` as orpheusd does; assert
    it made the records the oracle makes. The new vid."""
    cvd = orpheus.cvd("ds")
    work = root / "work.csv"
    params = {"dataset": "ds", "file": str(work), "parents": list(parents)}
    if schema is not None:
        params["schema"] = str(schema)
    rows = read_csv(work, read_schema_file(schema) if schema else cvd.schema)
    want = oracle(cvd, rows, parents)
    first_fresh = cvd._next_rid
    vid = orpheus.execute("commit", params, "alice")["version"]
    got = cvd.membership(vid)
    assert list(got) == sorted(want)  # the same rid for every row
    new = [rid for rid in got if rid >= first_fresh]
    assert {rid: repr(cvd.payload_of(rid)) for rid in new} == {
        rid: repr(want[rid]) for rid in new
    }  # the same new records
    contents = sorted(map(repr, cvd.checkout(vid).rows))
    assert contents == sorted(repr(cvd.payload_of(rid)) for rid in want)
    assert len(contents) == len(rows)
    return vid


# ----------------------------------------------------------------------
# Counted: k changed lines, k payloads compared
# ----------------------------------------------------------------------
WIDE = Schema(
    [
        ColumnDef("key", TEXT), ColumnDef("value", INT),
        ColumnDef("grp", INT), ColumnDef("tag", TEXT),
    ],
    primary_key=("key",),
)


@pytest.fixture
def counted():
    telemetry.reset()
    telemetry.enable()
    yield telemetry.get_registry().counter_value
    telemetry.reset()
    telemetry.disable()


@pytest.mark.parametrize("k", [0, 1, 150])
def test_a_commit_changing_k_lines_compares_k_payloads(k, tmp_path, counted):
    rng = random.Random(k)
    rows = [
        (f"k{n:06d}", rng.randrange(10**6), rng.randrange(90), f"t{n % 97}")
        for n in range(3000)
    ]
    orpheus = new_repository()
    orpheus.init("ds", WIDE, rows)
    work = tmp_path / "work.csv"
    head = 1
    for _cycle in range(3):  # the second and third commit a version the
        # one before committed, whose new lines it rendered itself
        orpheus.execute(
            "checkout", {"dataset": "ds", "versions": [head], "file": str(work)},
            "alice",
        )
        header, *lines = work.read_text().splitlines()
        for n in rng.sample(range(len(lines)), k):
            key, value, grp, tag = lines[n].split(",")
            lines[n] = f"{key},{int(value) + 1},{grp},{tag}"
        rng.shuffle(lines)
        work.write_text("\n".join([header, *lines]) + "\n")
        before = counted(COMPARED)
        head = commit_and_check(orpheus, tmp_path, [head])
        assert counted(COMPARED) - before <= k
        cvd = orpheus.cvd("ds")
        new = set(cvd.membership(head)).difference(cvd.membership(head - 1))
        assert len(new) == k


def test_a_commit_the_reader_cannot_match_compares_every_row(tmp_path, counted):
    """A file no checkout of this process rendered (a one-shot CLI
    commit) is compared row by row against the parent's payloads."""
    rows = [(f"k{n}", n, n % 7, "t") for n in range(50)]
    orpheus = new_repository()
    orpheus.init("ds", WIDE, rows)
    lines = [",".join(map(str, row)) for row in rows]
    (tmp_path / "work.csv").write_text("\n".join(["key,value,grp,tag", *lines]))
    commit_and_check(orpheus, tmp_path, [1])
    assert counted(COMPARED) == 50


# ----------------------------------------------------------------------
# Differential: the commit against the oracle
# ----------------------------------------------------------------------
SCHEMA = Schema(
    [ColumnDef("a", TEXT), ColumnDef("b", INT), ColumnDef("c", FLOAT)]
)
#: Payloads whose lines a commit may take unparsed, and (``odd``) ones
#: whose lines it may not: NULL, empty text, a quoted comma, -0.0.
TEXTS, INTS, FLOATS = ["k", "x y", "3"], [0, 7, -3], [0.5, 0.0, 1.0]
ODD_TEXTS, ODD_INTS, ODD_FLOATS = ["", None, "a,b", "-0.0"], [None], [-0.0, None]
#: Fields as a script writes them: non-canonical numerals, a signed
#: zero, and (``odd``) empty (NULL) fields and quoted text with a comma.
RAW_TEXTS, RAW_INTS = ["k", "x y", "3"], ["7", "007", "+7", "-3", "0"]
RAW_FLOATS = ["0.5", "0", "-0", "1", "1.0", ".5"]
ODD_RAW_TEXTS, ODD_RAW_INTS, ODD_RAW_FLOATS = ['""', '"a,b"'], [""], [""]


@st.composite
def histories(draw):
    """A first version and the steps after it. Half the histories hold
    only payloads whose lines round-trip, so their commits reuse the
    rids the reader matched."""
    odd = draw(st.booleans())
    texts, ints, floats = (
        (TEXTS + ODD_TEXTS, INTS + ODD_INTS, FLOATS + ODD_FLOATS)
        if odd else (TEXTS, INTS, FLOATS)
    )
    payload = st.tuples(*map(st.sampled_from, (texts, ints, floats)))
    first = draw(st.lists(payload, min_size=1, max_size=6))
    raw = st.tuples(
        *map(
            st.sampled_from,
            (
                RAW_TEXTS + ODD_RAW_TEXTS,
                RAW_INTS + ODD_RAW_INTS,
                RAW_FLOATS + ODD_RAW_FLOATS,
            )
            if odd
            else (RAW_TEXTS, RAW_INTS, RAW_FLOATS),
        )
    ).map(",".join)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["edit", "edit", "edit", "two parents", "evolve"]),
                st.randoms(use_true_random=False),
                st.lists(raw, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return first, steps


def edit_lines(lines: list[str], rng, raw: list[str]) -> list[str]:
    """Drop, repeat and reorder lines, and add ``raw`` ones."""
    kept = [line for line in lines if rng.random() < 0.8]
    if lines:
        kept += [rng.choice(lines) for _ in range(rng.randrange(3))]
    kept += raw
    rng.shuffle(kept)
    return kept


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(histories())
@example(  # equal payloads, their lines not: 0.0 and -0.0
    (
        [("k", 0, 0.0), ("k", 0, -0.0), ("k", 0, 0.0)],
        [("edit", random.Random(1), ["k,0,-0", "k,0,0"])],
    )
)
@example(  # a -0.0 the reader did not match, equal to the parent's 0.0
    ([("k", 0, 0.0), ("x y", 7, 0.5)], [("edit", random.Random(5), ["k,0,-0"])])
)
def test_a_commit_reuses_the_rids_the_payload_rule_reuses(history):
    first, steps = history
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        orpheus = new_repository()
        orpheus.init("ds", SCHEMA, first)
        cvd = orpheus.cvd("ds")
        work = root / "work.csv"
        for kind, rng, raw in steps:
            vids = cvd.versions.vids()
            parents = [rng.choice(vids)]
            if kind == "two parents" and len(vids) > 1:
                parents.append(rng.choice([v for v in vids if v != parents[0]]))
            orpheus.execute(
                "checkout",
                {"dataset": "ds", "versions": parents, "file": str(work)},
                "alice",
            )
            header, *lines = work.read_bytes().decode().split("\r\n")[:-1]
            schema = None
            if kind == "evolve" and "d" not in header.split(","):
                header += ",d"
                lines = [line + "," + rng.choice(["", "1"]) for line in lines]
                raw = [line + ",2" for line in raw]
                schema = root / "schema.csv"
                columns = [(c.name, c.dtype.name) for c in cvd.schema.columns]
                schema.write_text(
                    "".join(f"{name},{kind}\n" for name, kind in columns)
                    + "d,integer\n"
                )
            elif "d" in header.split(","):
                raw = [line + "," for line in raw]
            body = edit_lines(lines, rng, raw)
            work.write_text("\n".join([header, *body]) + "\n")
            commit_and_check(orpheus, root, parents, schema)
