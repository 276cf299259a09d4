"""orpheusd saves through the paged store: a pickle repository is
upgraded one way at the daemon's first save, and from then on a commit
encodes a chunk of appended rows per table (one that seals a table's
open run encodes the run again), however long the history, and reads
none of it back (``ORPHEUS_STATE_LAYOUT=pickle`` still keeps
the daemon on the pickle layout)."""

import os
from pathlib import Path

from repro.pagestore import store as pagestore
from repro.pagestore.store import orphan_pages
from repro.resilience.statestore import LAYOUT_ENV, MAGIC, MAGIC2
from repro.service.metrics import exposition

from tests.pagestore.conftest import newest_segments
from tests.service.conftest import assert_healthy_on_disk, seed_dataset


def magic(root) -> bytes:
    return (root / ".orpheus" / "state.pkl").read_bytes()[: len(MAGIC)]


def rlist_tail_pages(root) -> int:
    segments = newest_segments(root)
    tail = max(
        (key for key in segments if key.startswith("table:inter__rlist#")),
        key=lambda key: int(key.partition("#")[2]),
    )
    return len(segments[tail].pages)


def test_the_first_daemon_save_upgrades_and_commits_stay_flat(
    workspace, daemon_factory, tmp_path, monkeypatch
):
    monkeypatch.delenv(LAYOUT_ENV, raising=False)
    # Small pages, so both tables are runs of chunks long before v124.
    monkeypatch.setenv("ORPHEUS_PAGE_BYTES", "4096")
    (workspace / "data.csv").write_text(
        "key,value\n" + "".join(f"r{n},{n}\n" for n in range(900))
    )
    seed_dataset(workspace)
    assert magic(workspace) == MAGIC
    saves = []
    paged_save = pagestore.paged_save
    monkeypatch.setattr(
        pagestore, "paged_save",
        lambda store, obj: saves.append(paged_save(store, obj)) or saves[-1],
    )
    work = tmp_path / "work.csv"
    at, tail_pages = {}, {}
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=str(work))
        head = 1
        for key in range(4, 128):
            with open(work, "a") as edit:
                edit.write(f"k{key},{key}\n")
            head = client.commit(
                "inter", file=str(work), message=f"add k{key}", parents=[head]
            )["version"]
            if head in (2, 24, 124):
                at[head] = saves[-1]
                assert magic(workspace) == MAGIC2, head
                tail_pages[head] = rlist_tail_pages(workspace)
                assert_healthy_on_disk(workspace)
    assert head == 125
    # The upgrade encoded every chunk; later commits only the two their
    # appended rows make.
    assert at[2]["segments_encoded"] == at[2]["segments"] > 2
    for vid in (24, 124):
        assert at[vid]["segments_encoded"] == 2, (vid, at[vid])
        assert at[vid]["segments_reused"] == at[vid]["segments"] - 2
    assert at[124]["segments"] > at[24]["segments"]
    growth = tail_pages[124] - tail_pages[24]
    assert 0 <= at[124]["pages_written"] - at[24]["pages_written"] <= growth
    assert orphan_pages(workspace) == []
    assert_healthy_on_disk(workspace)


def test_the_layout_variable_keeps_the_daemon_on_pickle(
    workspace, daemon_factory, tmp_path, monkeypatch
):
    monkeypatch.setenv(LAYOUT_ENV, "pickle")
    seed_dataset(workspace)
    work = tmp_path / "work.csv"
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=str(work))
        work.write_text(work.read_text() + "k4,4\n")
        assert client.commit("inter", file=str(work))["version"] == 2
        assert magic(workspace) == MAGIC
    assert magic(workspace) == MAGIC
    assert not (workspace / ".orpheus" / "pages").exists()
    assert_healthy_on_disk(workspace)


def test_a_steady_state_commit_makes_seven_fsyncs_and_reads_no_history(
    workspace, daemon_factory, tmp_path, monkeypatch
):
    """The journal's ``begin`` line, two pages, the pages directory, the
    state temp, the state directory, the op record: seven fsyncs. No
    state file is read back and ``pages/`` is never listed."""
    monkeypatch.delenv(LAYOUT_ENV, raising=False)
    seed_dataset(workspace)
    saves = []
    paged_save = pagestore.paged_save
    monkeypatch.setattr(
        pagestore, "paged_save",
        lambda store, obj: saves.append(paged_save(store, obj)) or saves[-1],
    )
    counts = {"fsync": 0, "state_reads": 0, "page_listings": 0}
    fsync, read_bytes, glob = os.fsync, Path.read_bytes, Path.glob

    def counted_fsync(fd):
        counts["fsync"] += 1
        return fsync(fd)

    def counted_read_bytes(path):
        counts["state_reads"] += path.name.startswith("state.pkl")
        return read_bytes(path)

    def counted_glob(path, pattern):
        counts["page_listings"] += path.name == "pages"
        return glob(path, pattern)

    work = tmp_path / "work.csv"
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=str(work))
        head = 1
        for key in range(4, 8):
            with open(work, "a") as edit:
                edit.write(f"k{key},{key}\n")
            if key == 7:  # the upgrade and one commit after it are behind
                monkeypatch.setattr(os, "fsync", counted_fsync)
                monkeypatch.setattr(Path, "read_bytes", counted_read_bytes)
                monkeypatch.setattr(Path, "glob", counted_glob)
            head = client.commit(
                "inter", file=str(work), parents=[head]
            )["version"]
        monkeypatch.undo()
    assert saves[-1]["pages_written"] == 2, saves[-1]
    assert counts == {"fsync": 7, "state_reads": 0, "page_listings": 0}
    assert orphan_pages(workspace) == []
    assert_healthy_on_disk(workspace)


def test_the_daemon_counts_the_pages_it_reads_and_keeps_none(
    workspace, daemon_factory, tmp_path, monkeypatch
):
    """A daemon over a paged repository reads a checkout's pages from
    their files: ``stats`` and ``/metrics`` count them, ``hits`` stays
    0, and neither reports a pool (residency, budget, evictions or
    write-backs), nor does its doctor run a pool probe."""
    monkeypatch.setenv(LAYOUT_ENV, "paged")
    seed_dataset(workspace)
    reads = pagestore.reset_page_reads()
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=str(tmp_path / "pull.csv"))
        stats = client.stats()
        metrics = exposition(handle.daemon.stats_payload())
        probes = {line["probe"] for line in client.doctor()["probes"]}
    assert reads.faults > 0
    assert stats["buffer_pool"] == {"faults": reads.faults, "hits": 0}
    assert f"orpheusd_page_faults_total {reads.faults}\n" in metrics
    for gone in ("page_evictions", "page_writebacks", "buffer_pool"):
        assert f"orpheusd_{gone}" not in metrics
    assert "buffer_pool" not in probes
    assert {"page_store_health", "service_health"} <= probes
