"""The pickle and the paged layout hold the same repository, a process
that reloads it before every operation sees what one that never reloads
does, and both hold every rid list and every record once.

One seeded history (inserts, updates, deletes, a branch, tombstoned heap
slots) is committed under each layout the way the CLI does it — every
command loads the state afresh and saves it — for every data model.
Every version must then check out to the same rows under both, and a
round trip through ``migrate-state`` must not change any of them.

A second history (rid reuse, duplicate full rows, a two-parent merge, a
schema change that NULL-pads its parents) is driven twice per model and
layout: *cold*, reloading before every operation, so every parent diff
and every set operation has to read the model's tables; and *warm*, one
process whose memo its own commits filled. Rids, memberships, diffs,
checkouts and the checkout's cost accounting must not tell them apart,
and neither may a probe of every table entry point, which a cold paged
process runs on tables it has read only in part.

The structural tests count bytes, pages and decoded chunks, never time;
the upgrade tests load states written before the tables were the only
copy, and before chunks carried zone maps."""

from __future__ import annotations

import io
import pickle
import pickletools
import random
import tarfile
from array import array
from collections import Counter
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.core.models import DATA_MODELS
from repro.pagestore import codec
from repro.pagestore import pages as pagefiles
from repro.pagestore.store import PageStore, migrate_state
from repro.relational.arrays import RidDelta
from repro.relational.errors import DuplicateKeyError
from repro.relational.expressions import col, lit
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Table
from repro.relational.types import FLOAT, INT, TEXT
from repro.resilience.statestore import HEADER_SIZE, LAYOUT_ENV, StateStore

from tests.pagestore.conftest import newest_segments

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)
MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]
LAYOUTS = ("pickle", "paged")
DATA = Path(__file__).parent / "data"


def history(seed: int = 5) -> list[tuple[int | None, list[tuple[str, int]]]]:
    """``(parent, rows)`` per version: a chain with one branch, each
    version deleting, updating and inserting a few of its parent's rows."""
    rng = random.Random(seed)
    versions = [(None, [(f"k{i:03d}", rng.randrange(1000)) for i in range(40)])]
    next_key = 40
    for vid in range(2, 9):
        parent = 3 if vid == 6 else vid - 1  # version 6 branches off 3
        rows = dict(versions[parent - 1][1])
        for key in rng.sample(sorted(rows), 4):
            del rows[key]
        for key in rng.sample(sorted(rows), 4):
            rows[key] = rng.randrange(1000)
        for _ in range(3):
            rows[f"k{next_key:03d}"] = rng.randrange(1000)
            next_key += 1
        versions.append((parent, sorted(rows.items())))
    return versions


def command(root, operation):
    """One CLI-style command: fresh load, operate, save."""
    store = StateStore(root)
    orpheus, _info = store.load(warn=None)
    result = operation(orpheus)
    store.save(orpheus)
    return result


def tombstone_every_heap(orpheus) -> None:
    """Delete and re-insert the first row of every physical table: same
    content, one dead slot per heap."""
    for table in orpheus.database:
        slot, row = next(table._iter_slots(), (None, None))
        if row is not None:
            table.delete_at(slot)
            table.insert(row)


def new_repository() -> Orpheus:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    return orpheus


def build(root, model: str, versions) -> None:
    orpheus = new_repository()
    orpheus.init("ds", SCHEMA, versions[0][1], model=model)
    StateStore(root).save(orpheus)
    for vid, (parent, rows) in enumerate(versions[1:], start=2):
        committed = command(
            root,
            lambda o: o.cvd("ds").commit(
                rows, parents=(parent,), message=f"v{vid}", author="alice"
            ),
        )
        assert committed == vid
        if vid == 4:
            command(root, tombstone_every_heap)
        if vid == 5 and model == "partitioned_rlist":
            command(root, lambda o: o.optimize("ds"))


def checkouts(root, versions) -> dict[int, list]:
    return {
        vid: command(root, lambda o: sorted(o.cvd("ds").checkout(vid).rows))
        for vid in range(1, len(versions) + 1)
    }


@pytest.mark.parametrize("model", MODELS)
def test_every_version_checks_out_the_same_under_both_layouts(
    model, tmp_path, monkeypatch
):
    versions = history()
    expected = {vid: rows for vid, (_p, rows) in enumerate(versions, start=1)}
    for layout in LAYOUTS:
        monkeypatch.setenv(LAYOUT_ENV, layout)
        root = tmp_path / layout
        root.mkdir()
        build(root, model, versions)
        assert StateStore(root).integrity()["layout"] == layout
        assert checkouts(root, versions) == expected

    monkeypatch.delenv(LAYOUT_ENV)
    root = tmp_path / "pickle"
    assert migrate_state(root, to="paged")["status"] == "migrated"
    assert checkouts(root, versions) == expected
    assert migrate_state(root, to="pickle")["status"] == "migrated"
    assert StateStore(root).integrity()["layout"] == "pickle"
    restored, _info = StateStore(root).load(warn=None)
    copy = pickle.loads(pickle.dumps(restored))
    for vid, rows in expected.items():
        assert sorted(copy.cvd("ds").checkout(vid).rows) == rows


@pytest.mark.parametrize("model", MODELS)
def test_storage_bytes_do_not_depend_on_what_has_been_read(
    model, tmp_path, monkeypatch
):
    """An index is sized by the rows it covers, built or not: a paged
    state answers the same paged out, after a checkout has read part of
    it, and resident — and the same as the pickle layout does."""
    monkeypatch.setenv(pagefiles.PAGE_BYTES_ENV, "4096")
    versions = history()
    sizes = {}
    for layout in LAYOUTS:
        monkeypatch.setenv(LAYOUT_ENV, layout)
        root = tmp_path / layout
        root.mkdir()
        build(root, model, versions)
        orpheus, _info = StateStore(root).load(warn=None)
        cvd = orpheus.cvd("ds")
        sizes[layout, "loaded"] = cvd.storage_bytes()
        cvd.checkout(len(versions))
        sizes[layout, "checked out"] = cvd.storage_bytes()
        for table in orpheus.database:
            table._fault_all(index=True)
        sizes[layout, "resident"] = cvd.storage_bytes()
    assert len(set(sizes.values())) == 1, sizes


@pytest.mark.parametrize("layout", ["memory", "paged"])
@pytest.mark.parametrize("model", MODELS)
def test_a_one_version_checkout_returns_the_models_columns(
    model, layout, tmp_path, monkeypatch
):
    """The CVD makes no per-row pass over one version: its result holds
    the very lists the data model built, the rids ascending."""
    versions = history()
    if layout == "memory":
        orpheus = new_repository()
        orpheus.init("ds", SCHEMA, versions[0][1], model=model)
        for parent, rows in versions[1:]:
            orpheus.cvd("ds").commit(rows, parents=(parent,))
    else:
        monkeypatch.setenv(LAYOUT_ENV, layout)
        build(tmp_path, model, versions)
        orpheus, _info = StateStore(tmp_path).load(warn=None)
    cvd = orpheus.cvd("ds")
    built = []
    checkout_columns = cvd.model.checkout_columns
    monkeypatch.setattr(
        cvd.model,
        "checkout_columns",
        lambda vid: built.append(checkout_columns(vid)) or built[-1],
    )
    for vid in range(1, len(versions) + 1):
        built.clear()
        result = cvd.checkout(vid)
        ((rids, payloads),) = built
        assert result.rows is payloads and result.rids is rids
        assert rids == list(cvd.membership(vid))
        assert sorted(payloads) == versions[vid - 1][1]


# ----------------------------------------------------------------------
# Cold equals warm
# ----------------------------------------------------------------------
#: No primary key: a version may hold the same full row twice.
BAG = Schema([ColumnDef("key", TEXT), ColumnDef("value", INT)])
EVOLVED = ["key", "value", "note"]


def tombstone_the_front_of_every_heap(orpheus) -> int:
    """Delete the first two thirds of every physical table's rows and
    insert them again: same content, a long run of dead slots first."""
    dead = 0
    for table in orpheus.database:
        front = list(table._iter_slots())[: 2 * len(table) // 3]
        for slot, _row in front:
            table.delete_at(slot)
        table.insert_many(row for _slot, row in front)
        dead += len(front)
    return dead


def vacuum_every_heap(orpheus) -> int:
    for table in orpheus.database:
        table.vacuum()
    return sum(len(table) for table in orpheus.database)


def probe_every_heap(orpheus, partly_read: set[str]) -> list:
    """Every physical table's entry points on as much of it as this
    process has read: keyed lookups (absent keys too), a slot fetch, a
    refused duplicate insert that must leave the table clean, then a
    delete, a re-insert and two key-changing updates that put back what
    they took. The reads come first, so a reloaded table is only partly
    read while they run; ``partly_read`` collects the tables that were
    still so after the lookups."""
    bound = orpheus.cvd("ds")._next_rid + 2
    keys = [bound, bound // 2, 3, 1, -1]
    seen = []
    for table in sorted(orpheus.database, key=lambda table: table.name):
        (column,) = table.schema.primary_key
        size = table.storage_bytes()
        found = table.lookup_many(column, keys)
        one = table.lookup(column, 3)
        if table.paged_out:
            partly_read.add(table.name)
        middle = len(table._rows) // 2
        fetched = table.fetch_slot(middle) if table._rows else None
        refused = None
        if found:
            clean = (table._dirty_from, len(table), table.storage_bytes())
            with pytest.raises(DuplicateKeyError) as error:
                table.insert_many([(bound + 100, *found[0][1:]), found[0]])
            assert (table._dirty_from, len(table), table.storage_bytes()) == clean
            refused = str(error.value)
        if fetched is not None:
            table.delete_at(middle)
            table.insert(fetched)
            key = fetched[table.schema.position(column)]
            table.update_where(col(column) == lit(key), {column: lit(bound + 50)})
            table.update_where(col(column) == lit(bound + 50), {column: lit(key)})
        after = table.lookup_many(column, keys)
        seen.append(
            (table.name, size, found, one, fetched, refused, after,
             table.storage_bytes())
        )
    return seen


def script(
    model: str, n_rows: int = 30, pad: str = "", partly_read: set | None = None
) -> list:
    """Operations ``orpheus -> result``, in order. Versions: 1 root (one
    row in it twice), 2 and 3 a chain, 4 a branch off 2, 5 the merge of 3
    and 4, 6 adds a column (its untouched rows are their parents',
    NULL-padded), 7 edits 6, 8 widens ``value`` to decimal, 9 is empty;
    between them every heap is tombstoned from the front, then vacuumed,
    and probed entry point by entry point twice."""
    rng = random.Random(11)
    rows = {
        1: [(f"k{i:04d}{pad}", rng.randrange(100)) for i in range(n_rows)]
        + [("dup", 1)] * 2
    }

    def edit(parent: list, tag: str) -> list:
        kept = [row for row in parent if rng.random() > 0.15]
        changed = [(k, v + 1000) if rng.random() < 0.1 else (k, v) for k, v in kept]
        return changed + [(f"{tag}{i}{pad}", rng.randrange(100)) for i in range(3)]

    rows[2] = edit(rows[1], "a")
    rows[3] = edit(rows[2], "b")
    rows[4] = edit(rows[2], "c")
    rows[5] = sorted(set(rows[3]) | set(rows[4])) + [("dup", 1)]
    rows[6] = [
        (k, v, "noted" if index % 5 == 0 else None)
        for index, (k, v) in enumerate(rows[5])
    ]
    rows[7] = rows[6][3:] + [("z", 7, None)]
    rows[8] = [(k, v + 0.5, note) for k, v, note in rows[7][:-2]]
    rows[9] = []
    parents = {2: (1,), 3: (2,), 4: (2,), 5: (3, 4), 6: (5,), 7: (6,), 8: (7,), 9: (8,)}

    def commit(vid: int):
        def operation(orpheus):
            cvd = orpheus.cvd("ds")
            evolved = vid >= 6
            committed = cvd.commit(
                rows[vid],
                parents=parents[vid],
                message=f"v{vid}",
                author="alice",
                columns=EVOLVED if evolved else None,
                column_types=(
                    {"note": TEXT, "value": FLOAT if vid >= 8 else INT}
                    if evolved
                    else None
                ),
            )
            return committed, cvd.membership(committed), cvd.num_records

        return operation

    def checkout(vids):
        def operation(orpheus):
            cvd, accountant = orpheus.cvd("ds"), orpheus.database.accountant
            result = cvd.checkout(vids)
            # Priced on a second run: a cold paged process has by then
            # faulted its pages in, which is charged apart from the rows.
            before = accountant.snapshot()
            cvd.checkout(vids)
            cost = accountant.snapshot() - before
            return sorted(result.rows, key=repr), result.rids, cost

        return operation

    def query(name: str, *args):
        return lambda orpheus: getattr(orpheus.cvd("ds"), name)(*args)

    operations = [commit(vid) for vid in (2, 3, 4, 5)]
    if model == "partitioned_rlist":
        operations.append(
            lambda orpheus: sorted(map(sorted, orpheus.optimize("ds").groups))
        )
    def probe(orpheus):
        return probe_every_heap(orpheus, set() if partly_read is None else partly_read)

    operations += [commit(6), probe, tombstone_the_front_of_every_heap, commit(7)]
    operations += [checkout(vid) for vid in range(1, 8)]
    operations += [vacuum_every_heap, commit(8), commit(9), probe]
    operations += [checkout(vid) for vid in range(1, 10)] + [checkout((7, 3))]
    operations += [query("membership", vid) for vid in range(1, 10)]
    operations += [
        query("diff", 1, 7), query("diff", 3, 4), query("diff", 5, 6),
        query("diff", 7, 8), query("diff", 8, 9),
        query("v_diff", (3, 4), (2,)), query("v_diff", 7, (1, 5)),
        query("v_intersect", (2, 3, 4)), query("v_intersect", (1, 7)),
    ]
    return operations, rows[1]


#: Models whose heaps hold a vlist column, which they write as lists.
VLIST_MODELS = ("combined_table", "split_by_vlist")


def stored_form_may_differ(layout: str, model: str, operation) -> bool:
    """Whether ``operation`` returns raw heap rows whose int-array
    values a reloaded process may hold in the other form than the
    process that wrote them: a pickle-layout load leaves an rlist row's
    list where the writer holds the rid array, and a paged load decodes
    a vlist row's list as a rid array. Every other step compares as
    it is."""
    return operation.__name__ == "probe" and (
        layout == "pickle" or model in VLIST_MODELS
    )


def as_stored(value: object) -> object:
    """``value`` with each rid array as the list of integers it is
    stored as."""
    if isinstance(value, array):
        return value.tolist()
    if type(value) in (list, tuple):
        return type(value)(map(as_stored, value))
    return value


def run_cold(root, model: str, **shape) -> list:
    operations, root_rows = script(model, **shape)
    orpheus = new_repository()
    orpheus.init("ds", BAG, root_rows, model=model)
    StateStore(root).save(orpheus)
    return [command(root, operation) for operation in operations]


def run_warm(model: str, **shape) -> list:
    operations, root_rows = script(model, **shape)
    orpheus = new_repository()
    orpheus.init("ds", BAG, root_rows, model=model)
    return [operation(orpheus) for operation in operations]


#: At the smallest page there is, with rows enough that a table holding
#: a whole version is a run of five chunks and more, and a table of rid
#: lists starts a chunk every third version.
SMALL_PAGES = {"n_rows": 300, "pad": "-" * 60}


@pytest.mark.parametrize("shape", [{}, SMALL_PAGES], ids=["64KiB", "4KiB"])
@pytest.mark.parametrize("model", MODELS)
def test_a_process_that_always_reloads_agrees_with_one_that_never_does(
    model, shape, tmp_path, monkeypatch
):
    if shape:
        monkeypatch.setenv(pagefiles.PAGE_BYTES_ENV, "4096")
    warm = run_warm(model, **shape)
    partly_read = set()
    for layout in LAYOUTS:
        monkeypatch.setenv(LAYOUT_ENV, layout)
        root = tmp_path / layout
        root.mkdir()
        cold = run_cold(root, model, partly_read=partly_read, **shape)
        operations, _ = script(model, **shape)
        for step, (got, expected, operation) in enumerate(
            zip(cold, warm, operations, strict=True)
        ):
            if stored_form_may_differ(layout, model, operation):
                got, expected = as_stored(got), as_stored(expected)
            assert got == expected, (layout, step)
    if shape:
        chunks = Counter(key.partition("#")[0] for key in newest_segments(root))
        assert max(chunks.values()) >= 5, chunks
        assert partly_read  # the probes ran on tables read only in part


# ----------------------------------------------------------------------
# One copy, counted
# ----------------------------------------------------------------------
class _TablesApart(pickle.Pickler):
    """Pickles everything a save reaches except the physical tables."""

    def reducer_override(self, obj):
        if isinstance(obj, Table):
            return str, (obj.name,)
        return NotImplemented


RID_BASE = 1_000_000


@pytest.mark.parametrize("model", MODELS)
def test_outside_the_tables_nothing_saved_holds_a_rid_or_a_payload(model):
    """Rids are moved up to where no vid, count or slot number reaches
    and every record carries a marker, so either one turning up in what
    is saved around the tables means a second copy of it is saved."""
    orpheus = new_repository()
    cvd = orpheus._cvds["ds"] = CVD(orpheus.database, "ds", BAG, model=model)
    cvd._next_rid = RID_BASE
    rows = [(f"PAYLOAD-{i}", i) for i in range(30)]
    first = cvd.commit(rows, author="alice")
    second = cvd.commit(rows[5:] + [("PAYLOAD-new", 1)], parents=(first,))
    cvd.commit(rows[:20], parents=(first, second))
    if model == "partitioned_rlist":
        orpheus.optimize("ds")
    cvd.diff(first, second)  # whatever the memo holds, it holds now

    buffer = io.BytesIO()
    _TablesApart(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(orpheus)
    around = buffer.getvalue()
    assert b"PAYLOAD-" not in around
    big = {
        arg
        for opcode, arg, _pos in pickletools.genops(around)
        if isinstance(arg, int) and RID_BASE <= arg < 2 * RID_BASE
    }
    assert big <= {cvd._next_rid}  # the counter, one past the last rid
    restored = pickle.loads(pickle.dumps(orpheus)).cvd("ds")
    assert restored.num_records == cvd.num_records == 31
    assert restored.diff(first, second) == cvd.diff(first, second)


def fixture_rows(rng: random.Random, start: int, count: int) -> list[tuple]:
    """Rows shaped like ``benchmarks/e2e``'s: fixed-width key and tag."""
    return [
        (
            f"k{key:06d}",
            rng.randrange(100_000, 1_000_000),
            rng.randrange(10, 100),
            f"t{rng.randrange(100_000):05d}",
        )
        for key in range(start, start + count)
    ]


WIDE = Schema(
    [
        ColumnDef("key", TEXT), ColumnDef("value", INT),
        ColumnDef("grp", INT), ColumnDef("tag", TEXT),
    ],
    primary_key=("key",),
)
#: Pickled size of the same history at f170a81, where ``CVD._membership``
#: and ``CVD._payloads`` were saved beside the two tables.
STATE_BYTES_BEFORE = 854_605


class History:
    """3,000 rows, each version swapping 5 % of its parent's for new."""

    def __init__(self, root) -> None:
        self.root = root
        self.rng = random.Random("fixture:7")
        self.rows = fixture_rows(self.rng, 0, 3000)
        self.next_key = 3000
        orpheus = new_repository()
        orpheus.init("mid", WIDE, self.rows, model="split_by_rlist")
        StateStore(root).save(orpheus)
        self.orpheus = orpheus
        self.versions = 1

    def commit(self, fresh: bool = False) -> dict:
        """One more 5 % commit, saved; what it wrote. ``fresh``: made by
        a process that loads the state first, as a CLI commit is."""
        if fresh:
            self.orpheus, _info = StateStore(self.root).load(warn=None)
        doomed = set(self.rng.sample(range(len(self.rows)), 150))
        kept = [row for i, row in enumerate(self.rows) if i not in doomed]
        fresh = fixture_rows(self.rng, self.next_key, 150)
        self.next_key += 150
        self.rows = kept + fresh
        cvd = self.orpheus.cvd("mid")
        counters = telemetry.get_registry().counter_value
        names = (
            "storage.io.state_bytes_written", "storage.io.page_bytes_written",
            "pagestore.pages_written", "pagestore.segments_encoded",
        )
        before = [counters(name) for name in names]
        vid = cvd.commit(self.rows, parents=(self.versions,), author="alice")
        StateStore(self.root).save(self.orpheus)
        self.versions = vid
        wrote = dict(zip(names, (counters(n) - b for n, b in zip(names, before))))
        new = sorted(set(cvd.membership(vid)).difference(cvd.membership(vid - 1)))
        wrote["rid_list"] = len(pickle.dumps(cvd.membership(vid).tolist()))
        # A record as the pickle layout stores it: its heap row and its
        # entry in the data table's rid index (slot numbers run like rids).
        wrote["new_records"] = len(
            pickle.dumps([(rid, *cvd.payload_of(rid)) for rid in new])
        ) + len(pickle.dumps({(rid,): [rid] for rid in new}))
        return wrote

    def commit_until(self, versions: int) -> None:
        while self.versions < versions:
            self.commit()


def test_the_pickled_state_holds_each_rid_list_and_record_once(tmp_path):
    telemetry.enable()
    history = History(tmp_path)
    history.commit_until(24)
    size = (tmp_path / ".orpheus" / "state.pkl").stat().st_size
    assert size <= 0.6 * STATE_BYTES_BEFORE

    # What one more commit adds to the bytes every save writes: its rid
    # list and its new records — and the same at version 124 as at 24.
    growth = {}
    for versions in (24, 124):
        history.commit_until(versions)
        saved = history.commit()["storage.io.state_bytes_written"]
        wrote = history.commit()
        growth[versions] = wrote["storage.io.state_bytes_written"] - saved
        allowed = 1.10 * (wrote["rid_list"] + wrote["new_records"])
        assert 0 < growth[versions] <= allowed, (versions, wrote)
    assert growth[124] == pytest.approx(growth[24], rel=0.02)


def pull(root, vid: int) -> Table:
    """A CLI pull of ``vid`` in a fresh process: load, check out to a
    file, save the pin. The data table it read."""
    store = StateStore(root)
    orpheus, _info = store.load(warn=None)
    params = {"dataset": "mid", "versions": [vid], "file": str(root / "pull.csv")}
    assert orpheus.execute("checkout", params, "alice")["rows"] == 3000
    store.save(orpheus)
    return orpheus.database.table("mid__data")


#: Heap slots handed to ``codec.encode_table_rows`` over the 16-commit
#: windows below at a0aa066, where every append cut the open tail again
#: (21,170 at 240 versions; 21,874 at 124; 22,147 at 24).
SLOTS_PER_WINDOW_BEFORE = 21_170


def open_run(segments, table: str, share: int) -> list:
    """``table``'s trailing chunks, each short of ``share`` slots."""
    chunks = sorted(
        (ref for key, ref in segments.items() if key.startswith(f"table:{table}#")),
        key=lambda ref: int(ref.key.partition("#")[2]),
    )
    run = []
    while chunks and chunks[-1].count_hint < share:
        run.insert(0, chunks.pop())
    return run


def test_a_paged_commit_costs_the_same_at_any_point_in_the_history(
    tmp_path, monkeypatch
):
    """Chunks encoded, heap slots handed to the encoder and pages written
    by one 5 % commit do not grow with the versions before it. A commit
    encodes its own rows as a chunk of their own and keeps every saved
    chunk; one that brings a table's open run to a share (seals it) also
    encodes that run again, and keeps every other chunk. A process that
    loads the state reads exactly the chunks of rid lists that hold a
    version's recreation chain to pull it (never all of them), the same
    ones to commit on it, and the open run besides when the commit seals
    it; a pull builds no index on the data table."""
    monkeypatch.setenv(LAYOUT_ENV, "paged")
    telemetry.enable()
    slots, decoded = [], []
    encode = codec.encode_table_rows
    monkeypatch.setattr(
        codec, "encode_table_rows",
        lambda rows, n_cols: slots.append(len(rows)) or encode(rows, n_cols),
    )
    read_segment = PageStore.read_segment
    monkeypatch.setattr(
        PageStore, "read_segment",
        lambda store, ref, accountant=None: (
            decoded.append(ref.key) or read_segment(store, ref, accountant)
        ),
    )

    def rid_lists_decoded() -> set[str]:
        keys = [key for key in decoded if key.startswith("table:mid__rlist#")]
        assert len(keys) == len(set(keys)), keys  # each decoded once
        return set(keys)

    def chain_chunks(segments, vid: int) -> set[str]:
        """The rid-list chunks holding the rows of ``vid``'s recreation
        chain: its own row, then each delta's base, to a whole row."""
        chain, model = [vid], history.orpheus.cvd("mid").model
        while type(row := model._rlist(chain[-1])) is RidDelta:
            chain.append(row.base)
        return {
            key for key, ref in segments.items()
            if key.startswith("table:mid__rlist#")
            and any(ref.zone[0] <= (v,) <= ref.zone[1] for v in chain)
        }

    history = History(tmp_path)
    # A share is a page of 27-byte data rows, or some 25 rid lists: a
    # whole one is 12,008 bytes, a delta of a 5 % commit 1,204, and every
    # ninth is whole. A commit appends 150 data rows and one rid list.
    per_data, fresh_commits = 65536 // 27, 12
    appended = {"mid__data": 150, "mid__rlist": 1}
    window, seals = {}, Counter()

    def fresh_commit() -> int:
        """One commit by a process that loads the state, checked; the
        heap slots it handed the encoder."""
        del slots[:], decoded[:]
        before = newest_segments(tmp_path)
        wrote = history.commit(fresh=True)
        sealed = {}
        for name, rows in appended.items():
            table = history.orpheus.database.table(name)
            share = 65536 * len(table) // table._bytes
            run = open_run(before, name, share)
            if sum(ref.count_hint for ref in run) + rows >= share:
                sealed[name] = run
        seals["mid__rlist" in sealed] += 1
        read = rid_lists_decoded()
        chain = chain_chunks(before, history.versions - 1)
        if "mid__rlist" in sealed:  # the parent's chain and the run
            assert chain <= read <= chain | {ref.key for ref in sealed["mid__rlist"]}
        else:  # the parent's chain only
            assert read == chain
        assert wrote["pagestore.segments_encoded"] == len(slots) <= 3
        assert wrote["pagestore.pages_written"] <= 3
        # The commit's own rows, and a run short of a share per seal.
        resealed = [ref for run in sealed.values() for ref in run]
        assert sum(slots) <= 151 + sum(ref.count_hint for ref in resealed)
        if not sealed:
            assert slots == [150, 1], slots
        after = newest_segments(tmp_path)
        assert all(key.startswith("table:mid__") and "#" in key for key in after)
        for table in ("table:mid__data#", "table:mid__rlist#"):
            assert sum(key.startswith(table) for key in before) > 1
        cut = {ref.key for ref in resealed}
        for key in before.keys() - cut:  # every other chunk: untouched
            assert after[key] == before[key], key
        return sum(slots)

    for versions in (24, 124, 240):
        history.commit_until(versions - 16)
        del slots[:]
        for _ in range(16 - fresh_commits):
            wrote = history.commit()
            assert wrote["pagestore.segments_encoded"] <= 3, history.versions
        window[versions] = sum(slots)
        for _ in range(fresh_commits):
            window[versions] += fresh_commit()
        assert history.versions == versions
        del decoded[:]
        data = pull(tmp_path, versions)
        segments = newest_segments(tmp_path)
        read = rid_lists_decoded()
        assert read == chain_chunks(segments, versions)
        assert len(read) < sum(key.startswith("table:mid__rlist#") for key in segments)
        assert not data._pk_index.keys() and data._pager is not None
    for _ in range(32):  # a share of fresh commits: one seals the rid lists
        if seals[True]:
            break
        fresh_commit()
    assert seals[True] and seals[False], seals  # both kinds were checked
    assert window[24] <= SLOTS_PER_WINDOW_BEFORE / 2, window
    assert window[124] == pytest.approx(window[24], rel=0.10)
    assert window[240] == pytest.approx(window[24], rel=0.10)


# ----------------------------------------------------------------------
# States written while the maps were stored
# ----------------------------------------------------------------------
def unpack(archive: str, into: Path) -> None:
    with tarfile.open(DATA / archive) as tar:
        tar.extractall(into, filter="data")


def legacy_root(kind: str, tmp_path: Path) -> tuple[Path, dict[str, dict[int, list]]]:
    """An unpacked repository of ``kind`` and what its versions hold."""
    if kind == "paged-v1":  # data/make_v1_repo.py, at 133513a
        unpack("v1_repo.tar.gz", tmp_path)
        expected = {}
        for name in ("ds", "other"):
            rows = [(f"{name}-k{i}", i) for i in range(8)]
            expected[name] = {1: rows, 2: rows[2:] + [(f"{name}-extra", 99)]}
        return tmp_path, expected
    unpack("head_repo.tar.gz", tmp_path)  # data/make_head_repo.py, at f170a81
    expected = {}
    for name in MODELS:
        rows = [(f"{name}-k{i}", i) for i in range(8)]
        extra = [(f"{name}-extra", 99)]
        expected[name] = {1: rows, 2: rows[2:] + extra, 3: rows + extra}
    if kind == "paged-v2":
        return tmp_path / "paged", expected
    root = tmp_path / "pickle"
    if kind == "bare-pickle":  # as written before the checksummed container
        state = root / ".orpheus" / "state.pkl"
        state.write_bytes(state.read_bytes()[HEADER_SIZE:])
    return root, expected


def page_files(root: Path) -> set[str]:
    return {p.name for p in pagefiles.list_page_files(pagefiles.pages_dir(root))}


def keyed_lookups_agree_with_a_scan(orpheus) -> bool:
    """Each table's keyed lookups, run first (so on a reloaded table
    whose chunks may have no zone map, only partly read), find what a
    scan finds."""
    probes = {}
    for table in orpheus.database:
        (column,) = table.schema.primary_key
        keys = list(range(-1, 40, 2))
        probes[table] = (keys, table.lookup_many(column, keys))
    for table, (keys, found) in probes.items():
        position = table.schema.position(table.schema.primary_key[0])
        by_key = {row[position]: row for row in table.rows_snapshot()}
        assert found == [by_key[key] for key in keys if key in by_key], table.name
    return True


@pytest.mark.parametrize("kind", ["paged-v1", "paged-v2", "pickle", "bare-pickle"])
def test_a_state_that_stored_the_maps_loads_and_sheds_them(kind, tmp_path):
    root, expected = legacy_root(kind, tmp_path)
    paged = kind.startswith("paged")
    old_pages = page_files(root)
    if paged:
        before = newest_segments(root)
        dict_segments = [key for key in before if not key.startswith("table:")]
        assert dict_segments  # the fixture is what it says it is

    want = {
        name: {vid: sorted(rows) for vid, rows in versions.items()}
        for name, versions in expected.items()
    }

    def every_version(orpheus):
        return {
            name: {
                vid: sorted(orpheus.cvd(name).checkout(vid).rows)
                for vid in versions
            }
            for name, versions in want.items()
        }

    assert command(root, every_version) == want
    assert command(root, lambda o: {n: o.cvd(n).num_records for n in want}) == {
        name: 9 for name in want
    }
    assert command(root, keyed_lookups_agree_with_a_scan)

    # One commit per dataset: each reuses its parent's rids, so each
    # reads the parent back from the tables the old maps shadowed.
    for name, versions in expected.items():
        newest = max(versions)
        rows = versions[newest][1:] + [(f"{name}-upgraded", 1)]
        added = command(
            root,
            lambda o: (
                o.cvd(name).commit(rows, parents=(newest,), author="alice"),
                o.cvd(name).num_records,
            ),
        )
        assert added == (newest + 1, 10)
        want[name][newest + 1] = sorted(rows)
    assert command(root, every_version) == want

    state = (root / ".orpheus" / "state.pkl").read_bytes()
    assert StateStore(root).integrity()["layout"] == ("paged" if paged else "pickle")
    if not paged:  # no saved object has an attribute of these names
        for shed in (b"_payloads", b"_membership", b"_partition_records"):
            assert shed not in state
        return
    command(root, lambda o: None)  # the last commit's parent leaves .bak.1
    assert command(root, keyed_lookups_agree_with_a_scan)
    after = newest_segments(root)
    assert all(key.startswith("table:") for key in after), sorted(after)
    # A table a commit wrote to is a run of chunks now; one it did not
    # (another version's own table) keeps its whole-table segment as is.
    chunked = {key.partition("#")[0] for key in after if "#" in key}
    whole = after.keys() - {key for key in after if "#" in key}
    assert chunked and not chunked & whole
    assert all(after[key] == before[key] for key in whole)
    # The chunks a commit cut carry zone maps; what rode through has none.
    zones = {key: ref.zone for key, ref in after.items()}
    assert all(zones[key] is not None for key in after if "#" in key), zones
    assert all(zones[key] is None for key in whole)
    assert bool(whole) == (kind == "paged-v2")  # it has per-version tables
    # The saves above have rotated every backup generation past the old
    # segments: nothing references their pages, and GC has taken them.
    kept = {page for ref in after.values() for page in ref.pages}
    old = {
        page + pagefiles.PAGE_SUFFIX
        for key in [*dict_segments, *(chunked & before.keys())]
        for page in before[key].pages
        if page not in kept
    }
    assert old and old <= old_pages
    assert not old & page_files(root)
