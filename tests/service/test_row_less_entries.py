"""A cache entry keeps no rows: a hit reads the records it serves from
the CVD by rid, so a hit of one kind on an entry another kind made is
the path to prove.

* cross-kind, one version and a merge of two, on a live daemon and,
  for every data model, after a state reload empties the CVD's memos
  (so the records come from the model's tables, ``CVD.payloads_of``):
  a file hit on an entry
  an inline miss made writes the CSV a fresh ``cvd.checkout`` renders,
  byte for byte; an inline hit on an entry a file miss or a commit made
  returns the one bulk dump of the fresh rows, byte for byte;
* counted — a second file hit of a version formats no line;
* counted memory — 3,000 rows x 24 versions: no entry reaches a payload
  tuple, the cache retains little more than its bodies, and admitting
  a commit allocates nothing that grows with the version's rows.
"""

from __future__ import annotations

import csv
import gc
import tracemalloc

import pytest

from repro.core import csvio
from repro.core.models import DATA_MODELS

from tests.service.conftest import await_ledger
from tests.service.test_checkout_bytes import reference_body

DATASET = "inter"

#: One version a commit admitted, and a merge of it over its parent
#: (v2 drops k3, which the merge takes from v1).
VIDS = ([2], [2, 1])

#: Live on the default model; reloaded on every model, each reading
#: payloads from its own tables.
STATES = [("split_by_rlist", False)] + [
    (model, True) for model in sorted(DATA_MODELS) + ["partitioned_rlist"]
]


def fresh_csv(cvd, vids, path) -> bytes:
    """The checkout as the row writer writes it."""
    result = cvd.checkout(vids)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    return path.read_bytes()


def reload(handle) -> None:
    """Re-anchor the daemon to its durable state, as a failed write
    does: the cache keeps its entries, the CVD's memos start empty."""
    daemon = handle.daemon
    with daemon.scheduler.lock.write_locked():
        daemon._reload_state()
    cvd = daemon.orpheus.cvd(DATASET)
    assert not (cvd._payloads or cvd._lines or cvd.json_fragments)


def entry_of(handle, vids):
    cvd = handle.daemon.orpheus.cvd(DATASET)
    return handle.daemon.cache._entries[handle.daemon.cache.key(
        DATASET, vids, cvd.schema
    )]


@pytest.fixture
def grown(workspace, daemon_factory, tmp_path, model):
    """A daemon over v1 (k1..k3) and v2 (k1, k2 edited, k4), committed
    through it, and a client."""
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(
                DATASET,
                str(workspace / "data.csv"),
                str(workspace / "schema.csv"),
                model=model,
            )
            work = tmp_path / "edit.csv"
            client.checkout(DATASET, [1], file=str(work))
            work.write_text("key,value\nk1,1\nk2,20\nk4,4\n")
            assert client.commit(DATASET, file=str(work))["version"] == 2
            yield handle, client


@pytest.fixture
def formatted(monkeypatch):
    """How many rows the CVD has rendered into CSV lines."""
    rendered = []
    real = csvio.render_lines
    monkeypatch.setattr(
        csvio, "render_lines", lambda rows: rendered.append(len(rows)) or real(rows)
    )
    return rendered


@pytest.mark.parametrize("model,reloaded", STATES)
@pytest.mark.parametrize("vids", VIDS, ids=["one", "merge"])
def test_file_hit_on_an_inline_made_entry(grown, formatted, tmp_path, vids, reloaded):
    handle, client = grown
    client.flush_cache()
    assert client.checkout(DATASET, vids, inline=True)["cached"] is False
    assert entry_of(handle, vids).body is not None
    if reloaded:
        reload(handle)
    cvd = handle.daemon.orpheus.cvd(DATASET)
    expected = fresh_csv(cvd, vids, tmp_path / "fresh.csv")
    for path in (tmp_path / "a.csv", tmp_path / "b.csv"):
        formatted.clear()
        data = client.checkout(DATASET, vids, file=str(path))
        assert data["cached"] is True
        assert data["rows"] == len(cvd.checkout(vids).rows)
        assert path.read_bytes() == expected
    assert sum(formatted) == 0  # the second hit formats no line


@pytest.mark.parametrize("model,reloaded", STATES)
@pytest.mark.parametrize(
    "vids,maker",
    [([2], "commit"), ([2], "file"), ([2, 1], "file")],
    ids=["one-commit", "one-file", "merge-file"],
)
def test_inline_hit_on_a_row_less_entry(grown, tmp_path, vids, maker, reloaded):
    handle, client = grown
    if maker == "file":
        client.flush_cache()
        pulled = client.checkout(DATASET, vids, file=str(tmp_path / "p.csv"))
        assert pulled["cached"] is False
    made = entry_of(handle, vids)
    assert made.body is None and made.rows is None
    if reloaded:
        reload(handle)
    data = client.checkout(DATASET, vids, inline=True)
    assert data["cached"] is True
    fresh = handle.daemon.orpheus.cvd(DATASET).checkout(vids)
    assert entry_of(handle, vids).body == reference_body(fresh.rows)
    assert data["data"] == [list(row) for row in fresh.rows]
    assert data["rows"] == len(fresh.rows)


# ----------------------------------------------------------------------
# Counted memory
# ----------------------------------------------------------------------
ROWS, VERSIONS = 3000, 24


def reached(entry) -> list:
    """Every object an entry reaches through ``gc.get_referents``, its
    class (and through it the module) left out."""
    seen, todo, found = {id(entry)}, [entry], []
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if isinstance(ref, type) or id(ref) in seen:
                continue
            seen.add(id(ref))
            found.append(ref)
            todo.append(ref)
    return found


def test_entries_hold_their_bodies_and_no_rows(tmp_path, daemon_factory):
    data, schema = tmp_path / "data.csv", tmp_path / "schema.csv"
    data.write_text(
        "key,value\n" + "".join(f"k{i:05d},{i}\n" for i in range(ROWS))
    )
    schema.write_text("key,text\nvalue,integer\nprimary_key,key\n")
    work = tmp_path / "work.csv"
    with daemon_factory() as handle:
        daemon = handle.daemon
        with handle.client() as client:
            client.init("big", str(data), str(schema), model="split_by_rlist")
            fresh = ROWS
            for parent in range(1, VERSIONS):
                client.checkout("big", [parent], file=str(work))
                header, *lines = work.read_text().splitlines()
                lines = lines[5:] + [f"n{fresh + n},{n}" for n in range(5)]
                fresh += 5
                work.write_text("\n".join([header, *lines]) + "\n")
                client.commit("big", file=str(work), parents=[parent])
            client.flush_cache()
            gc.collect()
            tracemalloc.start()
            try:
                for vid in range(1, VERSIONS + 1):
                    assert client.checkout("big", [vid], inline=True)["rows"] == ROWS
                # Every checkout finalized: its connection holds nothing
                # of it, so the flush below frees only what the cache held.
                await_ledger(
                    handle,
                    lambda m: m.by_op["checkout"].count == 2 * VERSIONS - 1,
                )
                entries = list(daemon.cache._entries.values())
                assert len(entries) == VERSIONS
                bodies = sum(len(entry.body) for entry in entries)
                for entry in entries:
                    tuples = [r for r in reached(entry) if type(r) is tuple]
                    # Only its parents and its seal: no payload tuple.
                    assert {id(t) for t in tuples} <= {
                        id(entry.parents), id(entry.seal)
                    }
                    assert entry.count == ROWS and entry.rows is None
                del entry, entries
                gc.collect()
                held = tracemalloc.take_snapshot()
                # On a connection of its own: the idle one above keeps
                # its pending receive across both snapshots.
                with handle.client() as flusher:
                    flusher.flush_cache()
                gc.collect()
                # What the flush freed; what it allocated offsets nothing.
                retained = -sum(
                    stat.size_diff
                    for stat in tracemalloc.take_snapshot().compare_to(
                        held, "traceback"
                    )
                    if stat.size_diff < 0
                )
                assert retained <= bodies + VERSIONS * 2048, (retained, bodies)

                # Admitting a commit's version: a sample of 32 payloads,
                # never a list of the version's 3,000 (24 KB of
                # pointers alone).
                cvd = daemon.orpheus.cvd("big")
                head = cvd.versions.vids()[-1]
                daemon._admit("big", head)  # rids and payloads memoized
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                daemon._admit("big", head)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 4096, peak
            finally:
                tracemalloc.stop()
