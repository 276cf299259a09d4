"""Page garbage collection from each generation's ``history``: a save
reads no state file back, a save that raises removes its own debris,
and a repository whose outers carry no history is read once at its
first save."""

from __future__ import annotations

import hashlib
import pickle
import shutil
import struct
import tarfile
from pathlib import Path

import pytest

from repro.pagestore import pages as pagefiles
from repro.pagestore.bufferpool import reset_pool
from repro.pagestore.store import (
    orphan_pages,
    paged_save,
    referenced_pages,
    state_outers,
)
from repro.resilience import failpoints
from repro.resilience.failpoints import FailpointError
from repro.resilience.statestore import MAGIC2, StateStore

from tests.pagestore.test_paged_store import build_orpheus, checkout_rows


def page_ids(root) -> set[str]:
    files = pagefiles.list_page_files(pagefiles.pages_dir(root))
    return {path.name[: -len(pagefiles.PAGE_SUFFIX)] for path in files}


def churn(orpheus, round_no: int, rows: int = 1) -> None:
    """One commit of ``rows`` new records: it adds a chunk to the data
    and rid-list tables' open runs, or seals a run it brings to a share
    (cuts it again, so new pages replace the run's old ones)."""
    cvd = orpheus.cvd("ds")
    cvd.commit(
        [(f"churn-{round_no}", round_no)]
        + [(f"churn-{round_no}-{n}", round_no) for n in range(1, rows)],
        parents=(max(cvd.versions.vids()),),
        message="churn",
        author="alice",
    )


def strip_history(root) -> None:
    """Rewrite every state file as a release without ``history`` wrote
    it: the same outer, minus that key."""
    store = StateStore(root)
    for path in [store.path, *store.backup_paths]:
        payload, _legacy = StateStore.verify_blob(path.read_bytes())
        outer = pickle.loads(payload)
        del outer["history"]
        payload = pickle.dumps(outer)
        path.write_bytes(
            MAGIC2
            + struct.pack(">Q", len(payload))
            + hashlib.sha256(payload).digest()
            + payload
        )


@pytest.mark.parametrize(
    "site", ["pagestore.after_page_write", "statestore.before_replace"]
)
def test_a_save_that_raises_leaves_no_orphans(site, tmp_path):
    """Four saves put a generation on ``.bak.1``; the fifth raises after
    writing its pages (and, at ``before_replace``, after the rotation
    dropped ``.bak.1``). Without a recovery run nothing on disk is
    unreferenced, and the repository loads as the fourth save left it."""
    orpheus = build_orpheus()
    for round_no in range(4):
        churn(orpheus, round_no)
        paged_save(StateStore(tmp_path), orpheus)
    churn(orpheus, 4)
    failpoints.activate(site, "error")
    with pytest.raises(FailpointError):
        paged_save(StateStore(tmp_path), orpheus)
    failpoints.clear()
    assert orphan_pages(tmp_path) == []
    assert referenced_pages(tmp_path) <= page_ids(tmp_path)

    reset_pool()
    loaded, info = StateStore(tmp_path).load(warn=None)
    assert not info.fallback
    assert ("churn-3", 3) in checkout_rows(loaded, "ds", 6)
    assert max(loaded.cvd("ds").versions.vids()) == 6
    # The object that failed to save reads the containers once, then
    # collects as before.
    paged_save(StateStore(tmp_path), orpheus)
    paged_save(StateStore(tmp_path), orpheus)
    assert orphan_pages(tmp_path) == []


def test_a_history_less_repository_collects_its_dropped_generation(
    tmp_path, monkeypatch
):
    """Three generations saved without ``history``: the first save reads
    them, collects the one its rotation drops, and writes history. Each
    commit holds a share of data rows (277 at 4 KiB pages) and more, so
    each save seals the data table's open run."""
    monkeypatch.setenv(pagefiles.PAGE_BYTES_ENV, "4096")
    orpheus = build_orpheus()
    for round_no in range(3):
        churn(orpheus, round_no, rows=300)
        paged_save(StateStore(tmp_path), orpheus)
    oldest = list(state_outers(tmp_path))[2]["pages"]
    strip_history(tmp_path)

    reset_pool()
    loaded, _info = StateStore(tmp_path).load(warn=None)
    churn(loaded, 3, rows=300)
    paged_save(StateStore(tmp_path), loaded)
    live, back, back1 = (outer["pages"] for outer in state_outers(tmp_path))
    assert list(state_outers(tmp_path))[0]["history"] == [back, back1]
    assert set(oldest) - set(live + back + back1), "rotation must free pages"
    assert page_ids(tmp_path) == set(live + back + back1)
    assert orphan_pages(tmp_path) == []


def test_a_repository_from_an_older_release_loses_its_page_index(tmp_path):
    """``data/head_repo.tar.gz`` kept an advisory index file beside its
    pages and no history in its outer; its first save here removes the
    index, keeps every page its generations name, and writes history."""
    with tarfile.open(Path(__file__).parent / "data" / "head_repo.tar.gz") as archive:
        archive.extractall(tmp_path, filter="data")
    root = tmp_path / "paged"
    pages = pagefiles.pages_dir(root)
    assert [p.name for p in pages.iterdir() if p.suffix == ".json"]
    assert "history" not in next(state_outers(root))

    loaded, _info = StateStore(root).load(warn=None)
    loaded.cvd("split_by_rlist").commit(
        [("new", 1)], parents=(3,), message="here", author="alice"
    )
    paged_save(StateStore(root), loaded)
    assert [p.name for p in pages.iterdir() if p.suffix == ".json"] == []
    assert next(state_outers(root))["history"][0]
    assert orphan_pages(root) == []
    assert referenced_pages(root) <= page_ids(root)


def test_page_lists_remembered_for_one_repository_steer_no_other(tmp_path):
    """``second`` is a copy of ``first`` two saves back. The object's
    remembered lists are ``first``'s, whose ``.bak.1`` is ``second``'s
    live generation: collecting ``second`` by them would delete pages
    its ``.bak`` needs once the save rotates."""
    orpheus = build_orpheus()
    first, second = tmp_path / "first", tmp_path / "second"
    for round_no in range(4):
        churn(orpheus, round_no)
        paged_save(StateStore(first), orpheus)
        if round_no == 1:
            shutil.copytree(first, second)
    for page in pagefiles.pages_dir(first).iterdir():  # what its chunks name
        shutil.copy(page, pagefiles.pages_dir(second))
    paged_save(StateStore(second), orpheus)
    assert referenced_pages(second) <= page_ids(second)
    reset_pool()
    store = StateStore(second)
    store.path.unlink()  # the load falls back to .bak
    loaded, info = store.load(warn=None)
    assert info.fallback
    assert ("churn-1", 1) in checkout_rows(loaded, "ds", 4)
