"""End-to-end paged-layout tests: save/load round-trips across data
models, lazy fault-in scoped to the partitions a checkout maps to,
dirty-proportional write-back, GC, backup fallback, and migration."""

from __future__ import annotations

import pickle
import random
import sys
import tarfile
import threading
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.commands import Orpheus
from repro.pagestore import pages as pagefiles
from repro.pagestore.store import (
    OPEN_RUN_CHUNKS,
    clean_pagestore,
    migrate_state,
    orphan_pages,
    page_reads,
    paged_save,
    referenced_pages,
    reset_page_reads,
    state_outers,
)
from repro.relational.arrays import RangeEncodedArray
from repro.relational.errors import DuplicateKeyError, SchemaError
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import BOOL, FLOAT, INT, INT_ARRAY, TEXT
from repro.resilience.statestore import StateStore

from tests.pagestore.conftest import newest_segments

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)],
    primary_key=("key",),
)

MODELS = [
    "split_by_rlist",
    "split_by_vlist",
    "table_per_version",
    "combined_table",
    "delta_based",
    "partitioned_rlist",
]


def build_orpheus(datasets=("ds",), rows_per=30, model="split_by_rlist"):
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    for name in datasets:
        rows = [(f"{name}-k{i}", i) for i in range(rows_per)]
        vid = orpheus.init(name, SCHEMA, rows, model=model)
        orpheus.cvd(name).commit(
            rows + [(f"{name}-extra", 999)],
            parents=(vid,),
            message="second version",
            author="alice",
        )
    return orpheus


def save_paged(root, orpheus) -> dict:
    return paged_save(StateStore(root), orpheus)


def load(root):
    obj, info = StateStore(root).load(warn=None)
    return obj, info


def checkout_rows(orpheus, name, vid):
    return sorted(orpheus.cvd(name).checkout(vid).rows)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", MODELS)
def test_round_trip_preserves_checkout(tmp_path, model):
    orpheus = build_orpheus(model=model)
    expected_v1 = checkout_rows(orpheus, "ds", 1)
    expected_v2 = checkout_rows(orpheus, "ds", 2)
    stats = save_paged(tmp_path, orpheus)
    assert stats["segments"] > 0
    assert stats["pages_written"] > 0

    loaded, info = load(tmp_path)
    assert info.paged
    assert not info.fallback
    assert checkout_rows(loaded, "ds", 1) == expected_v1
    assert checkout_rows(loaded, "ds", 2) == expected_v2


def test_a_chunk_longer_than_a_page_splits_across_pages(tmp_path, monkeypatch):
    """A chunk ends where its rows are accounted a page of bytes, and
    compresses to less; what still outgrows a page is one fat row."""
    monkeypatch.setenv("ORPHEUS_PAGE_BYTES", "4096")
    rng = random.Random(3)
    rows = [(rng.randbytes(6000).hex(), i) for i in range(3)]
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, rows)
    stats = save_paged(tmp_path, orpheus)
    refs_pages = referenced_pages(tmp_path)
    assert stats["pages"] == len(refs_pages)
    assert stats["segments"] == 3 + 1  # a chunk per row, and the rid list
    assert stats["pages"] >= 2 * 3 + 1  # each row's chunk: two pages or more
    for path in pagefiles.list_page_files(pagefiles.pages_dir(tmp_path)):
        payload = pagefiles.read_page(
            pagefiles.pages_dir(tmp_path),
            path.name[: -len(pagefiles.PAGE_SUFFIX)],
        )
        assert len(payload) <= 4096

    loaded, _ = load(tmp_path)
    assert checkout_rows(loaded, "ds", 1) == sorted(rows)


def test_a_heap_is_saved_as_chunks_and_an_append_writes_the_last(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("ORPHEUS_PAGE_BYTES", "4096")
    orpheus = build_orpheus(rows_per=800)
    save_paged(tmp_path, orpheus)
    before = newest_segments(tmp_path)
    data = sorted(key for key in before if key.startswith("table:ds__data#"))
    assert len(data) >= 4 and "table:ds__data" not in before

    loaded, _ = load(tmp_path)
    loaded.cvd("ds").commit(
        [("ds-new", 7)], parents=(2,), message="append", author="alice"
    )
    stats = save_paged(tmp_path, loaded)
    assert stats["segments_encoded"] == 2  # the new record, the new rid list
    after = newest_segments(tmp_path)
    changed = {key for key in after if after[key] != before.get(key)}
    # Short of a share, the data table's open run takes the appended row
    # as a new last chunk of its own: no saved chunk is written again.
    # The rid lists (version 1's 800, and version 2 as a one-rid delta on
    # it) are one chunk short of a share; the append brings it to one,
    # so that chunk is cut again with the new row.
    assert changed == {f"table:ds__data#{len(data)}", "table:ds__rlist#0"}
    assert after["table:ds__rlist#0"].count_hint == 3
    assert after[f"table:ds__data#{len(data)}"].count_hint == 1

    reloaded, _ = load(tmp_path)
    assert checkout_rows(reloaded, "ds", 3) == [("ds-new", 7)]
    assert len(checkout_rows(reloaded, "ds", 2)) == 801


def test_small_commits_leave_a_bounded_open_run(tmp_path):
    """One-row commits stay far short of a share (4,445 rows here), so
    their chunks pile up in the open run until it holds
    ``OPEN_RUN_CHUNKS``; the next append seals it. A read of the newest
    version faults no more chunks than that."""
    orpheus = build_orpheus()
    cvd = orpheus.cvd("ds")
    rows = checkout_rows(orpheus, "ds", 2)
    counts = []
    for n in range(OPEN_RUN_CHUNKS + 8):
        rows.append((f"ds-small-{n}", n))
        cvd.commit(rows, parents=(2 + n,), message="small", author="alice")
        save_paged(tmp_path, orpheus)
        segments = newest_segments(tmp_path)
        counts.append(sum(key.startswith("table:ds__data#") for key in segments))
    assert max(counts) == OPEN_RUN_CHUNKS  # reached, never passed
    assert counts[-1] < counts[OPEN_RUN_CHUNKS - 2]  # sealed on the way

    reset_page_reads()
    loaded, _ = load(tmp_path)
    assert checkout_rows(loaded, "ds", cvd.versions.vids()[-1]) == sorted(rows)
    assert page_reads().faults <= OPEN_RUN_CHUNKS + 1  # and the rid list's


def test_listing_does_not_fault_any_pages(tmp_path):
    save_paged(tmp_path, build_orpheus(datasets=("ds1", "ds2")))
    reset_page_reads()
    loaded, _ = load(tmp_path)
    assert sorted(loaded.ls()) == ["ds1", "ds2"]
    assert loaded.cvd("ds1").versions.vids() == [1, 2]
    assert page_reads().faults == 0, page_reads().faults_by_key


def test_checkout_faults_only_mapped_pages(tmp_path):
    """The acceptance criterion: a checkout on a paged repository
    faults in only the pages of the partitions/dataset the version
    maps to, asserted via the per-heat-key page-read counts."""
    save_paged(tmp_path, build_orpheus(datasets=("ds1", "ds2")))
    reset_page_reads()
    loaded, _ = load(tmp_path)

    checkout_rows(loaded, "ds1", 2)
    reads = page_reads()
    assert reads.faults > 0
    touched = set(reads.faults_by_key)
    assert touched, "faults must carry heat keys"
    assert all(key.startswith("ds1") for key in touched), touched

    checkout_rows(loaded, "ds2", 1)
    ds2_keys = set(reads.faults_by_key) - touched
    assert ds2_keys
    assert all(key.startswith("ds2") for key in ds2_keys), ds2_keys


# ----------------------------------------------------------------------
# Dirty-proportional write-back
# ----------------------------------------------------------------------
def test_unchanged_resave_reuses_everything(tmp_path):
    orpheus = build_orpheus(datasets=("ds1", "ds2"))
    first = save_paged(tmp_path, orpheus)
    loaded, _ = load(tmp_path)
    second = save_paged(tmp_path, loaded)
    assert second["segments_encoded"] == 0
    assert second["segments_reused"] == first["segments"]
    assert second["pages_written"] == 0
    assert second["bytes_written"] == 0


def test_a_refused_insert_leaves_the_table_clean(tmp_path):
    orpheus = build_orpheus(datasets=("ds1", "ds2"))
    first = save_paged(tmp_path, orpheus)
    before = newest_segments(tmp_path)
    loaded, _ = load(tmp_path)
    table = loaded.database.table("ds1__data")
    present = table.rows_snapshot()[0]
    with pytest.raises(DuplicateKeyError):
        table.insert(present)
    with pytest.raises(SchemaError):
        table.insert(present[:-1])
    second = save_paged(tmp_path, loaded)
    assert second["segments_encoded"] == 0
    assert second["segments_reused"] == first["segments"]
    assert second["pages_written"] == 0
    assert newest_segments(tmp_path) == before


def test_commit_writes_back_only_touched_segments(tmp_path):
    orpheus = build_orpheus(datasets=("ds1", "ds2"))
    first = save_paged(tmp_path, orpheus)
    loaded, _ = load(tmp_path)

    loaded.cvd("ds1").commit(
        [("ds1-new", 7)], parents=(2,), message="touch ds1", author="alice"
    )
    second = save_paged(tmp_path, loaded)
    # ds2 was never touched: at least its segments ride through as
    # verbatim reuses, and total work stays below a full re-encode.
    assert second["segments_encoded"] > 0
    assert second["segments_reused"] > 0
    assert second["segments_encoded"] < first["segments"]
    assert second["pages_written"] < first["pages"]

    reloaded, _ = load(tmp_path)
    assert ("ds1-new", 7) in checkout_rows(reloaded, "ds1", 3)
    assert checkout_rows(reloaded, "ds2", 2) == checkout_rows(
        loaded, "ds2", 2
    )


def test_content_addressing_dedups_identical_pages(tmp_path):
    orpheus = build_orpheus()
    save_paged(tmp_path, orpheus)
    files = pagefiles.list_page_files(pagefiles.pages_dir(tmp_path))
    ids = {p.name for p in files}
    assert len(ids) == len(files)  # ids are content hashes, no dupes
    for path in files:
        page_id = path.name[: -len(pagefiles.PAGE_SUFFIX)]
        payload = pagefiles.read_page(pagefiles.pages_dir(tmp_path), page_id)
        assert pagefiles.page_id_for(payload) == page_id


# ----------------------------------------------------------------------
# GC, orphans, and each generation's history
# ----------------------------------------------------------------------
def test_gc_keeps_backup_generation_pages(tmp_path):
    orpheus = build_orpheus()
    save_paged(tmp_path, orpheus)
    loaded, _ = load(tmp_path)
    loaded.cvd("ds").commit(
        [("rot-1", 1)], parents=(2,), message="gen2", author="alice"
    )
    save_paged(tmp_path, loaded)
    # Live + .bak both reference pages; none may be orphaned or GC'd.
    assert orphan_pages(tmp_path) == []
    directory = pagefiles.pages_dir(tmp_path)
    on_disk = {
        p.name[: -len(pagefiles.PAGE_SUFFIX)]
        for p in pagefiles.list_page_files(directory)
    }
    assert referenced_pages(tmp_path) <= on_disk


def test_gc_removes_pages_once_generation_rotates_out(tmp_path, monkeypatch):
    monkeypatch.setenv("ORPHEUS_PAGE_BYTES", "4096")  # a share: 277 data rows
    orpheus = build_orpheus()
    save_paged(tmp_path, orpheus)
    gen1_pages = set(referenced_pages(tmp_path))
    loaded, _ = load(tmp_path)
    # Three more saves push the original generation past .bak.1. Each
    # commits 300 new records, a share and more, so each save seals the
    # data table's open run: it cuts the run again, new pages replace
    # its old ones.
    for round_no in range(3):
        loaded.cvd("ds").commit(
            [(f"gc-{round_no}-{n}", n) for n in range(300)],
            parents=(2 + round_no,),
            message="churn",
            author="alice",
        )
        save_paged(tmp_path, loaded)
    still_referenced = referenced_pages(tmp_path)
    directory = pagefiles.pages_dir(tmp_path)
    on_disk = {
        p.name[: -len(pagefiles.PAGE_SUFFIX)]
        for p in pagefiles.list_page_files(directory)
    }
    assert on_disk == still_referenced
    # The churned table segment's original pages are gone.
    assert gen1_pages - still_referenced, "rotation must free some pages"


def test_clean_pagestore_removes_orphans(tmp_path):
    save_paged(tmp_path, build_orpheus())
    directory = pagefiles.pages_dir(tmp_path)
    orphan_payload = b"orphan-page-payload"
    orphan_id = pagefiles.page_id_for(orphan_payload)
    pagefiles.write_page(directory, orphan_id, orphan_payload)

    plan = clean_pagestore(tmp_path, dry_run=True)
    assert [kind for kind, _ in plan] == ["clean-orphan-pages"]
    # Dry run touched nothing.
    assert pagefiles.page_path(directory, orphan_id).exists()

    actions = clean_pagestore(tmp_path, dry_run=False)
    assert actions == plan
    assert not pagefiles.page_path(directory, orphan_id).exists()
    assert clean_pagestore(tmp_path) == []


def test_each_generation_names_the_pages_of_the_two_it_rotates_behind(
    tmp_path,
):
    """An outer's ``history`` is the page lists ``.bak`` and ``.bak.1``
    hold once it is live: what lets a save collect garbage without
    opening a backup."""
    orpheus = build_orpheus()
    generations = []
    for round_no in range(4):
        orpheus.cvd("ds").commit(
            [(f"gen-{round_no}", round_no)],
            parents=(2 + round_no,),
            message="churn",
            author="alice",
        )
        save_paged(tmp_path, orpheus)
        outers = list(state_outers(tmp_path))
        generations.append(outers[0]["pages"])
        behind = ([[], []] + generations)[-3:-1]  # .bak.1, .bak
        assert outers[0]["history"] == behind[::-1]
        assert [outer["pages"] for outer in outers] == generations[::-1][:3]
    assert orphan_pages(tmp_path) == []


# ----------------------------------------------------------------------
# Corruption fallback
# ----------------------------------------------------------------------
def test_missing_new_pages_fall_back_to_backup_generation(tmp_path):
    orpheus = build_orpheus()
    save_paged(tmp_path, orpheus)
    loaded, _ = load(tmp_path)
    loaded.cvd("ds").commit(
        [("gen2-row", 5)], parents=(2,), message="gen2", author="alice"
    )
    save_paged(tmp_path, loaded)

    # Destroy a page only the live generation references: the load must
    # detect it and fall back to the .bak generation (whose pages GC
    # deliberately retained).
    outers = list(state_outers(tmp_path))
    assert len(outers) >= 2
    live_only = set(outers[0]["pages"]) - set(outers[1]["pages"])
    assert live_only
    directory = pagefiles.pages_dir(tmp_path)
    pagefiles.page_path(directory, sorted(live_only)[0]).unlink()

    recovered, info = load(tmp_path)
    assert info.fallback
    assert info.paged
    # The backup generation predates the gen2 commit but is consistent.
    assert checkout_rows(recovered, "ds", 2) == checkout_rows(orpheus, "ds", 2)


def test_corrupt_page_detected_at_fault_time(tmp_path):
    save_paged(tmp_path, build_orpheus())
    directory = pagefiles.pages_dir(tmp_path)
    for victim in pagefiles.list_page_files(directory):
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))

    loaded, _ = load(tmp_path)  # skeleton loads fine; pages are lazy
    with pytest.raises(Exception) as excinfo:
        for name in loaded.ls():
            checkout_rows(loaded, name, 1)
            checkout_rows(loaded, name, 2)
    assert "checksum" in str(excinfo.value) or "corrupt" in str(
        excinfo.value
    ).lower()


# ----------------------------------------------------------------------
# Plain pickling and migration
# ----------------------------------------------------------------------
def test_plain_pickle_hydrates_stubs(tmp_path):
    """pickle.dumps of a lazily-loaded repository must produce a fully
    self-contained pickle (stubs degrade to plain structures)."""
    orpheus = build_orpheus()
    expected = checkout_rows(orpheus, "ds", 2)
    save_paged(tmp_path, orpheus)
    loaded, _ = load(tmp_path)
    blob = pickle.dumps(loaded)
    standalone = pickle.loads(blob)  # no load_context in sight
    assert checkout_rows(standalone, "ds", 2) == expected


def test_migrate_round_trip(tmp_path):
    orpheus = build_orpheus()
    expected = checkout_rows(orpheus, "ds", 2)
    StateStore(tmp_path).save_bytes(pickle.dumps(orpheus))

    plan = migrate_state(tmp_path, to="paged", dry_run=True)
    assert plan == {"status": "plan", "from": "pickle", "to": "paged"}
    assert StateStore(tmp_path).integrity()["layout"] == "pickle"

    result = migrate_state(tmp_path, to="paged")
    assert result["status"] == "migrated"
    assert result["segments"] > 0
    assert StateStore(tmp_path).integrity()["layout"] == "paged"
    loaded, info = load(tmp_path)
    assert info.paged
    assert checkout_rows(loaded, "ds", 2) == expected

    assert migrate_state(tmp_path, to="paged")["status"] == "noop"

    back = migrate_state(tmp_path, to="pickle")
    assert back["status"] == "migrated"
    assert StateStore(tmp_path).integrity()["layout"] == "pickle"
    downgraded, info = load(tmp_path)
    assert not info.paged
    assert checkout_rows(downgraded, "ds", 2) == expected


def test_migrate_empty_repository(tmp_path):
    assert migrate_state(tmp_path, to="paged")["status"] == "empty"


def test_layout_env_switches_save_format(tmp_path, monkeypatch):
    orpheus = build_orpheus()
    store = StateStore(tmp_path)
    monkeypatch.setenv("ORPHEUS_STATE_LAYOUT", "paged")
    store.save(orpheus)
    assert store.integrity()["layout"] == "paged"
    monkeypatch.setenv("ORPHEUS_STATE_LAYOUT", "pickle")
    store.save(orpheus)
    assert store.integrity()["layout"] == "pickle"
    # Unset: sticky — keeps whatever the live file uses.
    monkeypatch.delenv("ORPHEUS_STATE_LAYOUT")
    store.save(orpheus)
    assert store.integrity()["layout"] == "pickle"


# ----------------------------------------------------------------------
# Repositories written with the v1 segment codecs
# ----------------------------------------------------------------------
def test_v1_repository_loads_and_upgrades_only_what_a_commit_dirties(tmp_path):
    """``data/v1_repo.tar.gz`` is the state ``data/make_v1_repo.py`` saved
    at commit 133513a: datasets ``ds`` and ``other``, two versions each,
    every segment ``*.v1``."""
    with tarfile.open(Path(__file__).parent / "data" / "v1_repo.tar.gz") as archive:
        archive.extractall(tmp_path, filter="data")
    before = newest_segments(tmp_path)
    assert {ref.codec.split(".")[1] for ref in before.values()} == {"v1"}

    loaded, info = load(tmp_path)
    assert info.paged and not info.fallback
    for name in ("ds", "other"):
        rows = [(f"{name}-k{i}", i) for i in range(8)]
        assert checkout_rows(loaded, name, 1) == sorted(rows)
        assert checkout_rows(loaded, name, 2) == sorted(
            rows[2:] + [(f"{name}-extra", 99)]
        )

    third = loaded.cvd("ds").commit(
        [("ds-new", 7)], parents=(2,), message="touch ds", author="alice"
    )
    save_paged(tmp_path, loaded)
    after = newest_segments(tmp_path)
    # The ``cvd:*`` map segments are not carried over (the tables hold
    # what they held; tests/pagestore/test_layouts_agree.py follows
    # their pages to the GC), every table is: as the chunks the commit
    # cut it into, or as the whole-table segment it was.
    assert after.keys() == {
        key + "#0" if ":ds" in key else key
        for key in before
        if key.startswith("table:")
    }
    for key, ref in after.items():
        if ":ds" in key:  # decoded from v1, dirtied, re-encoded
            assert ref.codec.endswith(".v2"), key
        else:  # not written to: the v1 ref rides through verbatim
            assert ref == before[key], key

    reloaded, _ = load(tmp_path)
    assert checkout_rows(reloaded, "ds", third) == [("ds-new", 7)]
    assert checkout_rows(reloaded, "other", 2) == checkout_rows(loaded, "other", 2)


# ----------------------------------------------------------------------
# What a load rebuilds, and what it must not lose
# ----------------------------------------------------------------------
def test_page_load_rebuilds_the_pk_index_without_per_row_schema_calls(
    tmp_path, monkeypatch
):
    save_paged(tmp_path, build_orpheus(rows_per=500))
    loaded, _ = load(tmp_path)
    table = loaded.database.table("ds__data")
    assert table.paged_out
    rows = table.rows_snapshot()  # reads every chunk, builds no index
    assert not table.paged_out and not table._pk_index.keys()
    calls = []
    real = Schema.key_positions
    monkeypatch.setattr(
        Schema, "key_positions", lambda self: calls.append(1) or real(self)
    )
    # The first keyed lookup builds the index of the chunk it lands in.
    assert table.lookup("rid", rows[137][0]) == [rows[137]]
    assert len(calls) <= 2
    assert table._pager is None and len(table._pk_index) == len(rows)


def test_threads_reading_a_part_read_table_each_see_every_row(
    tmp_path, monkeypatch
):
    """Readers racing on one freshly loaded table — keyed lookups that
    land in different chunks, and scans — each get every row they ask
    for, and the index they build between them holds each row once."""
    monkeypatch.setenv(pagefiles.PAGE_BYTES_ENV, "4096")
    orpheus = build_orpheus(rows_per=1200)
    orpheus.database.table("ds__data").create_index("value")  # not unique
    save_paged(tmp_path, orpheus)
    expected = load(tmp_path)[0].database.table("ds__data").rows_snapshot()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            table = load(tmp_path)[0].database.table("ds__data")
            assert len(table._saved_chunks) >= 4
            outcomes = []

            def read(worker: int) -> None:
                try:
                    if worker % 3 == 0:
                        outcomes.append(list(table.scan()) == expected)
                    else:
                        rows = expected[worker::7]
                        found = table.lookup_many("rid", [row[0] for row in rows])
                        outcomes.append(found == rows)
                except Exception as error:  # reported by the assert below
                    outcomes.append(error)

            threads = [threading.Thread(target=read, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert outcomes == [True] * 8, outcomes
            table._fault_all(index=True)
            assert len(table._pk_index) == len(table) == len(expected)
            assert len(table._secondary["value"]) == len(expected)
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("layout", ["pickle", "paged"])
def test_data_types_behave_the_same_after_a_reload(tmp_path, layout):
    """A ``DataType`` that came out of a pickle used to be equal to its
    singleton but not identical, and sized, validated and coerced as if
    it were none of the five."""
    types = (INT, FLOAT, TEXT, BOOL, INT_ARRAY)
    schema = Schema([ColumnDef(f"c{i}", dtype) for i, dtype in enumerate(types)])
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", schema, [(1, 2.5, "hello", True, (1, 2, 3))])
    if layout == "paged":
        save_paged(tmp_path, orpheus)
        loaded, _ = load(tmp_path)
    else:
        loaded = pickle.loads(pickle.dumps(orpheus))
    probes = [None, 3, True, 2.5, "3", "hello", [1, 2, 3], (4, 5),
              RangeEncodedArray([1, 2, 3, 9])]

    def outcome(method, value):
        try:
            return method(value)
        except (TypeError, ValueError) as error:
            return type(error)

    def behaviour(dtype):
        return [
            [outcome(method, value) for value in probes]
            for method in (dtype.validate, dtype.coerce, dtype.sizeof)
        ]

    reloaded = [column.dtype for column in loaded.cvd("ds").schema.columns]
    assert [dtype.name for dtype in reloaded] == [dtype.name for dtype in types]
    for fresh, dtype in zip(types, reloaded):
        assert dtype is fresh
        assert behaviour(dtype) == behaviour(fresh)
    # The reproducers of the bug, spelled out.
    text, array, integer = reloaded[2], reloaded[4], reloaded[0]
    assert text.sizeof("hello") == 6
    assert array.sizeof([1, 2, 3]) == 16
    assert array.validate(RangeEncodedArray([1, 2]))
    assert not integer.validate(True)
    assert integer.coerce("3") == 3


# ----------------------------------------------------------------------
# Read footprint against the pickle layout
# ----------------------------------------------------------------------
FOOTPRINT_ROWS = 1500
FOOTPRINT_VERSIONS = 6


def _footprint_rows(version: int) -> list[tuple]:
    """Version ``v`` keeps most of v1's rows and rewrites a
    deterministic 5 % per version: the collaborative-edit shape."""
    rng = random.Random(4200 + version)
    rows = {f"k{i}": i for i in range(FOOTPRINT_ROWS)}
    for _ in range((version - 1) * FOOTPRINT_ROWS // 20):
        rows[f"k{rng.randrange(FOOTPRINT_ROWS)}"] = rng.randrange(10_000)
    return sorted(rows.items())


@pytest.fixture(scope="module")
def both_layouts(tmp_path_factory):
    """One repository per (data model, layout), built once."""
    base = tmp_path_factory.mktemp("footprint")
    roots = {}
    for model in ("split_by_rlist", "partitioned_rlist"):
        orpheus = Orpheus()
        orpheus.create_user("alice")
        orpheus.config("alice")
        vid = orpheus.init("ds", SCHEMA, _footprint_rows(1), model=model)
        for version in range(2, FOOTPRINT_VERSIONS + 1):
            vid = orpheus.cvd("ds").commit(
                _footprint_rows(version), parents=(vid,),
                message=f"v{version}", author="alice",
            )
        roots[model, "paged"] = base / f"{model}-paged"
        save_paged(roots[model, "paged"], orpheus)
        roots[model, "pickle"] = base / f"{model}-pickle"
        StateStore(roots[model, "pickle"]).save_bytes(pickle.dumps(orpheus))
    return roots


def _checkout_latest(root, layout: str) -> None:
    loaded, info = load(root)
    assert info.paged == (layout == "paged")
    assert len(loaded.cvd("ds").checkout(FOOTPRINT_VERSIONS).rows) == FOOTPRINT_ROWS


def test_paged_checkout_reads_less_than_pickle(both_layouts):
    """A cold paged checkout's physical reads (skeleton plus faulted
    pages) undercut the pickle layout's whole-state read, per model."""
    telemetry.enable()
    registry = telemetry.get_registry()
    for model in ("split_by_rlist", "partitioned_rlist"):
        read = {}
        for layout in ("paged", "pickle"):
            telemetry.reset()
            _checkout_latest(both_layouts[model, layout], layout)
            read[layout] = (
                registry.counter_value("storage.io.state_bytes_read"),
                registry.counter_value("storage.io.page_bytes_read"),
            )
        assert read["pickle"][1] == 0
        assert read["paged"][1] > 0, "a paged checkout faults pages"
        assert sum(read["paged"]) < read["pickle"][0], (model, read)


def test_every_load_reads_its_pages_from_their_files(both_layouts, monkeypatch):
    """Nothing keeps a page between reads: two loads of one repository
    in one process read the same pages from their files, as many of
    them, each time."""
    root = both_layouts["split_by_rlist", "paged"]
    read_page = pagefiles.read_page
    loads = []

    def recording(directory, page_id):
        loads[-1].append(page_id)
        return read_page(directory, page_id)

    monkeypatch.setattr(pagefiles, "read_page", recording)
    reads = reset_page_reads()
    counted = []
    for _ in range(2):
        loads.append([])
        before, keys_before = reads.faults, dict(reads.faults_by_key)
        _checkout_latest(root, "paged")
        by_key = {
            key: n - keys_before.get(key, 0)
            for key, n in reads.faults_by_key.items()
        }
        counted.append((reads.faults - before, by_key))
    assert loads[0], "a paged checkout reads pages"
    assert sorted(loads[1]) == sorted(loads[0])
    assert counted[0][0] == len(loads[0])
    assert counted[1] == counted[0]
    assert reads.stats()["hits"] == 0
