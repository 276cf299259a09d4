"""A version's rids are held as one ascending ``array('q')`` and stored
as the list of integers they always were: a chunk of rid arrays encodes
byte for byte as the same chunk of lists, a pickle-layout save is the
size it was before arrays, and every stored form — v2 and v1 segments,
range-encoded rlists, the pickle layout — reads as ascending rid arrays;
a decoded rlist row's array is the very object the CVD memoizes."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tarfile
from array import array
from pathlib import Path

import pytest

from repro.core.commands import Orpheus
from repro.pagestore import codec
from repro.relational.arrays import RangeEncodedArray, RidDelta, ascending, rid_array
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import LAYOUT_ENV, StateStore

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCHEMA = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",))
MODELS = (
    "split_by_rlist", "partitioned_rlist", "combined_table",
    "split_by_vlist", "table_per_version", "delta_based",
)
#: ``state.pkl`` of :func:`build` on the pickle layout. Each is the size
#: deb26c4 wrote (the last commit that held a version's rids as a
#: frozenset and rlist rows as lists) less the one-element list per key
#: its primary-key indexes pickled (a key now maps to its slot alone),
#: less the column names a CVD kept per version (103 bytes: its versions'
#: ``attribute_ids`` record them), and, for the two rlist models, less
#: what versions 2-8 save as deltas on their parents (60 rids each, and
#: their chain's R and depth, not 600 rids). At deb26c4 they read 37,515,
#: 38,005, 38,071, 49,686, 114,089 and 31,307 bytes, in this order;
#: before the deltas and the column names went, 34,987, 35,477, 35,584,
#: 44,752, 99,513 and 28,078.
PICKLED_BEFORE = {
    "split_by_rlist": 25_152,
    "partitioned_rlist": 25_642,
    "combined_table": 35_481,
    "split_by_vlist": 44_649,
    "table_per_version": 99_410,
    "delta_based": 27_975,
}


def assert_rid_array(rids) -> None:
    assert type(rids) is array and rids.typecode == "q", type(rids)
    assert ascending(rids), rids


def build(root, model: str, versions: int = 8) -> Orpheus:
    """600 rows, each version swapping a seeded 5 % of its parent's."""
    rng = random.Random(2031)
    rows = [(f"k{i:05d}", rng.randrange(1000)) for i in range(600)]
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, rows, model=model)
    cvd = orpheus.cvd("ds")
    next_key = 600
    for vid in range(2, versions + 1):
        doomed = set(rng.sample(range(len(rows)), 30))
        rows = [row for n, row in enumerate(rows) if n not in doomed]
        rows += [(f"k{next_key + n:05d}", rng.randrange(1000)) for n in range(30)]
        next_key += 30
        cvd.commit(rows, parents=(vid - 1,), author="alice")
    StateStore(root).save(orpheus)
    return orpheus


def rlist_rows(cvd) -> dict[int, object]:
    """vid -> the rlist row's value, over every rlist table the model has."""
    partitions = getattr(cvd.model, "_partitions", None) or [cvd.model]
    return {
        vid: rlist
        for partition in partitions
        for vid, rlist in partition.versioning_table.rows_snapshot()
    }


@pytest.mark.parametrize("first", [1, 2**31 - 1000, 2**40])
def test_an_rlist_chunk_of_rid_arrays_encodes_as_its_lists_did(first):
    """At rids of 31, 32 and 41 bits: 32- and 64-bit delta lanes."""
    rng = random.Random(7)
    members, next_rid, lists = list(range(first, first + 2000)), first + 2000, []
    for vid in range(1, 25):
        lists.append((vid, list(members)))
        doomed = set(rng.sample(range(len(members)), 100))
        members = [m for n, m in enumerate(members) if n not in doomed]
        members += range(next_rid, next_rid + 100)
        next_rid += 100
    arrays = [(vid, rid_array(rids)) for vid, rids in lists]
    mixed = [row if vid % 2 else arrays[vid - 1] for vid, row in enumerate(lists, 1)]
    name, blob = codec.encode_table_rows(lists, 2)
    assert name == codec.ROWS_V2
    assert codec.encode_table_rows(arrays, 2) == (name, blob)
    assert codec.encode_table_rows(mixed, 2) == (name, blob)
    decoded = codec.decode_segment(name, blob)
    assert decoded == arrays
    for _vid, rids in decoded:
        assert_rid_array(rids)


def test_the_v1_golden_repository_loads_its_rids_as_rid_arrays(tmp_path):
    """v1 codecs and the ``cvd:*`` map segments of a state written
    before the single-copy form (``data/v1_repo.tar.gz``)."""
    with tarfile.open(DATA / "v1_repo.tar.gz") as archive:
        archive.extractall(tmp_path)
    orpheus, info = StateStore(tmp_path).load(warn=None)
    assert info.paged
    cvd = orpheus.cvd("ds")
    stored = rlist_rows(cvd)
    for vid in cvd.versions.vids():
        rids = cvd.membership(vid)
        assert_rid_array(rids)
        assert rids is stored[vid]  # the row's array is the memo entry
    assert set(cvd.membership(1)) >= {1, 2}


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_a_range_encoded_rlist_reloads_range_encoded_and_reads_as_rid_arrays(
    tmp_path, monkeypatch, layout
):
    """A compressed rlist stays range-encoded in its row (its storage
    accounting is the ranges'); the model hands out the rid array."""
    monkeypatch.setenv(LAYOUT_ENV, layout)
    orpheus = build(tmp_path, "split_by_rlist", versions=1)
    cvd = orpheus.cvd("ds")
    cvd.model.compress_rlists = True
    rows = cvd.checkout(1).rows
    for vid in (2, 3):
        rows = rows[5:] + [(f"z{vid}.{n}", n) for n in range(5)]
        cvd.commit(rows, parents=(vid - 1,))
    expected = {vid: cvd.membership(vid) for vid in (1, 2, 3)}
    StateStore(tmp_path).save(orpheus)

    loaded, _info = StateStore(tmp_path).load(warn=None)
    cvd = loaded.cvd("ds")
    stored = rlist_rows(cvd)
    assert list(stored[1]) == list(expected[1])  # a list on the pickle layout
    for vid in (2, 3):
        assert isinstance(stored[vid], RangeEncodedArray)
        assert list(stored[vid]) == list(expected[vid])
    for vid, rids in expected.items():
        assert_rid_array(cvd.membership(vid))
        assert cvd.membership(vid) == rids


@pytest.mark.parametrize("model", MODELS)
def test_a_pickle_layout_state_loads_its_rids_as_rid_arrays(
    tmp_path, monkeypatch, model
):
    """The load leaves the pickled lists in the rlist rows (converting
    the whole history would cost every one-shot command); what a
    command reads is an ascending rid array all the same."""
    monkeypatch.setenv(LAYOUT_ENV, "pickle")
    built = build(tmp_path, model).cvd("ds")
    orpheus, info = StateStore(tmp_path).load(warn=None)
    assert not info.paged
    cvd = orpheus.cvd("ds")
    stored = rlist_rows(cvd) if model.endswith("rlist") else {}
    for vid in built.versions.vids():
        rids = cvd.membership(vid)
        assert_rid_array(rids)
        assert rids == built.membership(vid)
        if type(stored.get(vid)) is RidDelta:  # 30 rows swapped
            assert len(stored[vid]) == 60
            assert stored[vid].apply(cvd.membership(stored[vid].base)) == rids
        elif stored:
            assert stored[vid] == list(rids)
    if stored:
        assert RidDelta in set(map(type, stored.values()))


def test_a_pickle_layout_save_is_the_size_it_was_before_rid_arrays(tmp_path):
    """The plain layout pickles a rid array as the list it stands for:
    the state pickles to the same bytes once every array in a heap is
    swapped for its list, and it is the size it was with lists, less
    what the primary-key indexes stopped spending. Built in a fresh
    interpreter: how many bytes a pickle spends on attribute names
    depends on what the process unpickled before (an instance dict
    shares its class's first key strings)."""
    script = (
        "import pickle, sys\n"
        "from array import array\n"
        "from tests.pagestore.test_rid_array_storage import MODELS, build\n"
        "root = sys.argv[1]\n"
        "for model in MODELS:\n"
        "    orpheus = build(f'{root}/{model}', model)\n"
        "    held = pickle.dumps(orpheus)\n"
        "    swapped = 0\n"
        "    for table in orpheus.database:\n"
        "        for slot, row in enumerate(table._rows):\n"
        "            if row is not None and array in map(type, row):\n"
        "                table._rows[slot] = tuple(\n"
        "                    v.tolist() if type(v) is array else v for v in row\n"
        "                )\n"
        "                swapped += 1\n"
        "    assert pickle.dumps(orpheus) == held, model\n"
        "    assert swapped or not model.endswith('rlist'), model\n"
    )
    env = {**os.environ, LAYOUT_ENV: "pickle"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, cwd=ROOT, check=True, timeout=120,
    )
    sizes = {
        model: (tmp_path / model / ".orpheus" / "state.pkl").stat().st_size
        for model in MODELS
    }
    assert sizes == PICKLED_BEFORE
