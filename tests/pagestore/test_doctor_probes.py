"""Doctor probes for the paged layout: ``page_store_health`` must grade
missing/corrupt/orphaned pages, each with an actionable remediation."""

from __future__ import annotations

from repro.observe.doctor import (
    FAIL,
    OK,
    PAGE_SPOT_CHECK,
    WARN,
    Checkup,
    run_probe,
)
from repro.pagestore import pages as pagefiles
from repro.pagestore.store import live_pages, paged_save, referenced_pages
from repro.resilience.recovery import run_recovery
from repro.resilience.statestore import StateStore

from tests.pagestore.test_paged_store import build_orpheus


def make_paged_repo(root):
    orpheus = build_orpheus()
    paged_save(StateStore(root), orpheus)
    return orpheus


# ----------------------------------------------------------------------
# page_store_health
# ----------------------------------------------------------------------
def test_pickle_repo_reports_not_in_use(tmp_path):
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == OK
    assert "not in use" in result.summary


def test_healthy_paged_repo_is_ok(tmp_path):
    make_paged_repo(tmp_path)
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == OK, result.summary
    assert result.data["pages_on_disk"] == result.data["pages_referenced"]
    assert result.data["pages_checked"] > 0


def test_missing_referenced_page_fails(tmp_path):
    make_paged_repo(tmp_path)
    directory = pagefiles.pages_dir(tmp_path)
    victim = sorted(referenced_pages(tmp_path))[0]
    pagefiles.page_path(directory, victim).unlink()
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == FAIL
    assert "missing" in result.summary
    assert "recover" in result.remediation
    assert victim in result.data["missing_pages"]


def test_corrupt_page_fails_spot_check(tmp_path):
    make_paged_repo(tmp_path)
    directory = pagefiles.pages_dir(tmp_path)
    victim = pagefiles.list_page_files(directory)[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == FAIL
    assert "corrupt" in result.summary
    assert result.data["corrupt_pages"]


def test_spot_check_follows_the_newest_writes(tmp_path):
    """More pages than one run checks: the page the last commit wrote is
    among those it does check, and the stated remediation clears it."""
    store = StateStore(tmp_path)
    orpheus = build_orpheus(datasets=[f"ds{i}" for i in range(10)])
    paged_save(store, orpheus)
    before = live_pages(tmp_path)
    assert len(before) > PAGE_SPOT_CHECK
    loaded, _info = store.load(warn=None)
    loaded.cvd("ds3").commit(
        [("fresh", 1)], parents=(2,), message="third", author="alice"
    )
    paged_save(store, loaded)
    directory = pagefiles.pages_dir(tmp_path)
    written = sorted(live_pages(tmp_path) - before)
    assert written
    victim = pagefiles.page_path(directory, written[-1])  # sorts past the 8th
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))

    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == FAIL
    assert result.data["pages_checked"] == PAGE_SPOT_CHECK
    assert victim.name in result.data["corrupt_pages"][0]
    assert "state.pkl.bak" in result.remediation
    assert "recover" in result.remediation

    store.path.write_bytes(store.backup_paths[0].read_bytes())
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == WARN  # now an orphan
    run_recovery(str(tmp_path))
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == OK
    restored, _info = store.load(warn=None)
    assert restored.cvd("ds3").versions.vids() == [1, 2]


def test_orphan_pages_warn(tmp_path):
    make_paged_repo(tmp_path)
    directory = pagefiles.pages_dir(tmp_path)
    payload = b"orphaned-by-a-crashed-save"
    pagefiles.write_page(directory, pagefiles.page_id_for(payload), payload)
    (result,) = run_probe("page_store_health", Checkup(root=str(tmp_path)))
    assert result.severity == WARN
    assert result.data["orphan_pages"] == 1
