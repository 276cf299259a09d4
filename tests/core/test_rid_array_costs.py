"""What holding a version's rids as one ascending ``array('q')`` costs,
counted rather than timed: the bytes of the membership memo, what the
cyclic collector can reach of it, and the sorts the checkout, inline
encode and commit paths make (none of a whole version)."""

from __future__ import annotations

import builtins
import gc
import random
import sys
from array import array
from pathlib import Path

import pytest

from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.core.models import DATA_MODELS
from repro.invariants import CHAIN_ROWS, THETA
from repro.relational.arrays import RidDelta
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.service import protocol
from repro.service.cache import size_sample

from tests.service.test_checkout_bytes import in_hand

SCHEMA = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))
SRC = Path(__file__).resolve().parents[2] / "src"


def history(model: str, rows: int, versions: int) -> CVD:
    """``versions`` versions of ``rows`` rows, each swapping a seeded
    5 % of its parent's for new ones, committed in this process."""
    rng = random.Random(2031)
    cvd = CVD(Database(), "d", SCHEMA, model=model)
    current = [(f"k{n:06d}", n) for n in range(rows)]
    vid = cvd.commit(current)
    next_key = rows
    for _ in range(versions - 1):
        doomed = set(rng.sample(range(rows), rows // 20))
        current = [row for n, row in enumerate(current) if n not in doomed]
        current += [(f"k{next_key + n:06d}", n) for n in range(rows // 20)]
        next_key += rows // 20
        vid = cvd.commit(current, parents=[vid])
    return cvd


def test_the_membership_memo_is_eight_bytes_a_rid_and_shared_with_the_rlist_rows():
    """3,000 rows x 100 versions: one frozenset per version held 13.1 MB;
    the rid arrays hold 2.4 MB of rids. A whole rlist row is the memo
    entry's own object; a delta row holds only the rids it changes, and
    rebuilding its version decodes at most θ·|v| rids. The collector
    reaches no rid through an entry (CPython tracks an ``array`` object,
    but it refers to nothing but its type)."""
    cvd = history("split_by_rlist", 3000, 100)
    memo = cvd._membership
    assert sorted(memo) == list(range(1, 101))
    distinct = {id(rids): rids for rids in memo.values()}
    assert sum(map(sys.getsizeof, distinct.values())) <= 3.3e6
    rows = dict(cvd.model.versioning_table.rows_snapshot())
    deltas = 0
    for vid, rids in memo.items():
        assert type(rids) is array and rids.typecode == "q"
        assert gc.get_referents(rids) == [array]
        if type(rows[vid]) is RidDelta:
            deltas += 1
            assert len(rows[vid]) == 300  # 150 rows swapped
            cost, depth = cvd.model.recreation_chain(vid)
            assert cost <= THETA * len(rids) and depth <= CHAIN_ROWS
            assert rows[vid].apply(memo[rows[vid].base]) == rids
        else:
            assert rids is rows[vid]
    assert deltas >= 88  # a whole row at least every ninth


@pytest.fixture
def large_sorts(monkeypatch):
    """Counts the sorts of at least 1,000 items while a ``with`` block
    runs, by their callers' locations. A ``sys.setprofile`` hook sees
    every ``list.sort`` C call with the list it sorts; ``sorted`` is made
    to sort through ``list.sort`` so that the hook sees its items too."""

    def sorted_through_sort(iterable, /, *, key=None, reverse=False):
        items = list(iterable)
        items.sort(key=key, reverse=reverse)
        return items

    monkeypatch.setattr(builtins, "sorted", sorted_through_sort)
    found: list[str] = []

    def hook(frame, event, arg):
        if event != "c_call" or getattr(arg, "__name__", None) != "sort":
            return
        items = getattr(arg, "__self__", None)
        if isinstance(items, list) and len(items) >= 1000:
            if frame.f_code is sorted_through_sort.__code__:
                frame = frame.f_back
            found.append(f"{frame.f_code.co_filename}:{frame.f_lineno}")

    class Counting:
        def __enter__(self):
            sys.setprofile(hook)
            return found

        def __exit__(self, *exc):
            sys.setprofile(None)

    return Counting()


#: delta_based rebuilds a version from its base chain, newest delta
#: first: putting those rows in rid order is a merge of sorted runs.
SORT_FREE = [name for name in DATA_MODELS if name != "delta_based"]


@pytest.mark.parametrize("model", [*SORT_FREE, "partitioned_rlist"])
def test_checkout_encode_and_commit_sort_no_version(model, large_sorts):
    cvd = history(model, 1200, 3)
    head = cvd.versions.vids()[-1]
    cvd._reset_memo()  # the checkout reads the model's tables
    with large_sorts as found:
        result = cvd.checkout(head)
        rids = cvd.membership(head)
        protocol.encode_rows(rids, cvd.json_fragments, in_hand(result))
        cvd.payloads_of(size_sample(rids), head)  # orpheusd admitting a commit
        cvd.json_fragments.clear()  # an inline hit on a row-less entry
        protocol.encode_rows(
            rids, cvd.json_fragments, lambda lack: cvd.payloads_of(lack, head)
        )
        cvd.commit(result.rows[5:] + [("new", 1)], parents=[head])
    assert found == []


def test_a_file_pull_and_commit_sort_no_version(tmp_path, large_sorts):
    """The CLI's path: a file checkout renders lines by rid, and a
    commit matches the lines read back to their records."""
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, [(f"k{n:05d}", n) for n in range(1200)])
    work = tmp_path / "work.csv"
    with large_sorts as found:
        for parent in (1, 2):
            orpheus.execute(
                "checkout", {"dataset": "ds", "versions": [parent], "file": str(work)},
                "alice",
            )
            with work.open("a") as out:
                out.write(f"n{parent},{parent}\r\n")
            orpheus.execute(
                "commit", {"dataset": "ds", "file": str(work), "parents": [parent]},
                "alice",
            )
    assert found == []
    assert len(orpheus.cvd("ds").membership(3)) == 1202


def test_no_source_line_sorts_a_membership():
    offenders = [
        f"{path}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "sorted(" in line and "membership" in line.split("sorted(", 1)[1]
    ]
    assert offenders == []
