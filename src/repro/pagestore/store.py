"""The ``ORPHSTA2`` paged state layout behind the transactional store.

A paged save splits the repository object graph into:

* a **skeleton** — everything cheap and always needed (the access
  controller, staging metadata, version graphs, schemas, partition
  maps), pickled into the checksummed ``state.pkl`` container exactly
  like the legacy layout (same temp/fsync/rename/backup machinery,
  same failpoints, same crash matrix); and
* **segments** — the heavy parts (each physical table's rows, as a run
  of chunks: contiguous heap slot ranges, one segment each; the tables
  are the only stored copy of version → rids and rid → payload),
  encoded by :mod:`repro.pagestore.codec`, sliced into
  content-addressed pages (:mod:`repro.pagestore.pages`), and replaced
  in the skeleton by their refs; a loaded table reads each chunk's
  pages from their files when an access first needs it, steered by
  the chunk's slot range and zone map (:class:`TablePager`).

Save = dirty-chunk write-back: a table nothing wrote to since the last
save reuses its chunks' pages verbatim, and so does every chunk of a
written table below the lowest slot written; appended rows are encoded
as a chunk of their own (:meth:`_SaveContext.table_chunks`) — commit
I/O is proportional to what the commit touched, not to total state or
to the history. Content addressing means even a re-encoded chunk only
writes the pages that actually changed.

Crash safety: new pages are written and fsync'd *before* the atomic
``state.pkl`` swap. A save that fails before the swap unlinks the
pages it wrote that no state file names; one killed there leaves them
as orphans, which :func:`clean_pagestore` (wired into recovery)
deletes. Garbage collection reads no backup: each outer document
carries the page lists of the two generations that back it up
(``history``), and the process that loaded or saved the live
generation keeps those lists, so a save deletes exactly the pages of
the generation the rotation drops that nothing kept still names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import threading
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

from repro import telemetry
from repro.pagestore import codec
from repro.pagestore import pages as pagefiles
from repro.pagestore.codec import PICKLE_PROTOCOL
from repro.pagestore.pages import PageCorruptionError
from repro.resilience import failpoints, fsio

#: Version of the outer (container payload) structure.
SKELETON_FORMAT = 2
#: The most chunks a table's open run holds: the append past them seals
#: it, so small commits leave a read of the newest rows few to fault.
OPEN_RUN_CHUNKS = 32


# ----------------------------------------------------------------------
# Segment references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentRef:
    """Address of one encoded segment: its pages plus verification."""

    key: str
    codec: str
    length: int
    sha: str
    pages: tuple[str, ...]
    heat_key: str | None = None
    #: A table chunk's heap slots (tombstones included).
    count_hint: int = 0
    #: A table chunk's least and greatest primary key, as key tuples:
    #: ``()`` when it holds no live row, None when unknown (no primary
    #: key, keys that do not order, or saved before zone maps).
    zone: tuple | None = None

    def to_tuple(self) -> tuple:
        return (
            self.key,
            self.codec,
            self.length,
            self.sha,
            tuple(self.pages),
            self.heat_key,
            self.count_hint,
            self.zone,
        )

    @classmethod
    def from_tuple(cls, data) -> "SegmentRef":
        key, codec_name, length, sha, page_ids, heat_key, count_hint, *zone = data
        return cls(
            key, codec_name, int(length), sha, tuple(page_ids),
            heat_key, int(count_hint), zone[0] if zone else None,
        )


def _charge_page_read(accountant, n_pages: int, n_bytes: int) -> None:
    if accountant is not None and hasattr(accountant, "charge_page_read"):
        accountant.charge_page_read(n_pages, n_bytes)
    else:
        telemetry.count("storage.io.page_reads", n_pages)
        telemetry.count("storage.io.page_bytes_read", n_bytes)
        telemetry.count("storage.io.bytes_read", n_bytes)


class PageReads:
    """Pages read from their files, process-wide and per segment
    ``heat_key`` (``dataset:pN``). Nothing keeps a page once its
    segment is decoded, so every page a read asks for is a fault."""

    __slots__ = ("faults", "faults_by_key", "_lock")

    def __init__(self) -> None:
        self.faults = 0
        self.faults_by_key: dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, n_pages: int, heat_key: str | None) -> None:
        with self._lock:
            self.faults += n_pages
            if heat_key:
                self.faults_by_key[heat_key] = (
                    self.faults_by_key.get(heat_key, 0) + n_pages
                )

    def stats(self) -> dict:
        return {"faults": self.faults, "hits": 0}


_page_reads = PageReads()


def page_reads() -> PageReads:
    """This process's page-read counts (every daemon worker's too)."""
    return _page_reads


def reset_page_reads() -> PageReads:
    """Start this process's page-read counts from zero."""
    global _page_reads
    _page_reads = PageReads()
    return _page_reads


# ----------------------------------------------------------------------
# Per-repository read handle
# ----------------------------------------------------------------------
class PageStore:
    """Reads segments for one repository from its page files."""

    def __init__(self, root: str | os.PathLike | None) -> None:
        self.dir = pagefiles.pages_dir(root)

    def read_segment(self, ref: SegmentRef, accountant=None) -> object:
        """Read and decode one segment, verifying its checksum."""
        blob = b"".join(
            pagefiles.read_page(self.dir, page_id) for page_id in ref.pages
        )
        _page_reads.count(len(ref.pages), ref.heat_key)
        if len(blob) != ref.length:
            raise PageCorruptionError(
                f"segment {ref.key}: reassembled {len(blob)} bytes, "
                f"expected {ref.length}"
            )
        if hashlib.sha256(blob).hexdigest() != ref.sha:
            raise PageCorruptionError(
                f"segment {ref.key}: checksum mismatch across pages"
            )
        _charge_page_read(accountant, len(ref.pages), len(blob))
        telemetry.count("pagestore.segment_faults")
        return codec.decode_segment(ref.codec, blob)


# ----------------------------------------------------------------------
# Load context (binds stubs to a PageStore during unpickling)
# ----------------------------------------------------------------------
_context = threading.local()


@contextlib.contextmanager
def load_context(store: PageStore):
    previous = getattr(_context, "store", None)
    _context.store = store
    try:
        yield store
    finally:
        _context.store = previous


def _require_store() -> PageStore:
    store = getattr(_context, "store", None)
    if store is None:
        raise RuntimeError(
            "paged state unpickled outside a pagestore load_context; "
            "load it through StateStore.load()"
        )
    return store


# ----------------------------------------------------------------------
# Lazy stubs
# ----------------------------------------------------------------------
class TablePager:
    """A :class:`Table`'s saved chunks, read one at a time.

    A chunk's slot range follows from the ``count_hint`` of the refs
    before it and its zone map is in its ref, so neither needs a decode.
    A chunk is *unread* until its rows are in the heap and *unindexed*
    until they are in the table's indexes; an unindexed chunk holds no
    key outside its zone map (a write that changes a key indexes every
    chunk first). ``lock`` serialises the daemon's concurrent readers.
    """

    __slots__ = ("store", "refs", "ends", "unread", "unindexed", "lock")

    def __init__(self, store: PageStore, refs: tuple[SegmentRef, ...]) -> None:
        self.store = store
        self.refs = refs
        self.ends = list(accumulate(ref.count_hint for ref in refs))
        self.unread = {n for n, ref in enumerate(refs) if ref.count_hint}
        self.unindexed = set(self.unread)
        self.lock = threading.Lock()

    @property
    def slots(self) -> int:
        return self.ends[-1] if self.ends else 0

    def span(self, number: int) -> tuple[int, int]:
        """Chunk ``number``'s heap slots, ``[start, stop)``."""
        return (self.ends[number - 1] if number else 0), self.ends[number]

    def after(self, slot: int) -> range:
        """The chunks that end past ``slot``."""
        return range(bisect_right(self.ends, slot), len(self.ends))

    def holding(self, slot: int) -> int | None:
        """The chunk holding ``slot``; None past the last."""
        after = self.after(slot)
        return after.start if after else None

    def covering(self, keys) -> list[int]:
        """The unindexed chunks whose zone map may hold one of ``keys``
        (primary-key tuples). A chunk without a zone map may hold any."""
        if not self.unindexed:
            return []
        try:
            keys = sorted(keys)
        except TypeError:
            return sorted(self.unindexed)
        numbers = []
        for number in sorted(self.unindexed):
            zone = self.refs[number].zone
            if zone is None:
                numbers.append(number)
            elif zone:
                low, high = zone
                try:
                    at = bisect_left(keys, low)
                    if at < len(keys) and keys[at] <= high:
                        numbers.append(number)
                except TypeError:
                    numbers.append(number)
        return numbers

    def read(self, number: int, accountant=None) -> list:
        """Chunk ``number``'s heap slots, decoded."""
        ref = self.refs[number]
        rows = self.store.read_segment(ref, accountant)
        if len(rows) != ref.count_hint:
            raise PageCorruptionError(
                f"segment {ref.key}: decoded {len(rows)} slots, "
                f"expected {ref.count_hint}"
            )
        return rows


def _load_paged_dict(ref_tuple) -> range:
    """What a skeleton written while version -> rids and rid -> payload
    maps were segments unpickles in their place: only the entry count,
    which is all the holder's ``__setstate__`` reads before dropping it.
    The segment's pages are never faulted; page GC reclaims them after
    the next save."""
    return range(SegmentRef.from_tuple(ref_tuple).count_hint)


def _load_chunked_table(state: dict, ref_tuples, index_spec: dict):
    from repro.relational.table import Table

    table = Table.__new__(Table)
    table.__setstate__(state)
    refs = tuple(map(SegmentRef.from_tuple, ref_tuples))
    table._attach(TablePager(_require_store(), refs), index_spec)
    return table


def _load_paged_table(state: dict, ref_tuple, index_spec: dict):
    """What a skeleton written while a table was one segment names."""
    return _load_chunked_table(state, (ref_tuple,), index_spec)


# ----------------------------------------------------------------------
# Save: skeleton pickling with segment spill
# ----------------------------------------------------------------------
#: Table attributes that live in segments (or are per-process cache),
#: never in the skeleton.
_TABLE_HEAVY_ATTRS = frozenset(
    {"_rows", "_pk_index", "_secondary", "_ordered",
     "_pager", "_saved_chunks", "_dirty_from", "_bytes_skew"}
)


class _SaveContext:
    """Carries segment bookkeeping through one paged save."""

    def __init__(self, root, page_bytes: int) -> None:
        self.root = root
        self.page_bytes = page_bytes
        self.segments: dict[str, SegmentRef] = {}
        #: page_id → payload for pages this save may need to create.
        self.pending: dict[str, bytes] = {}
        #: table name → heat key (``dataset:pN``).
        self.heat_keys: dict[str, str] = {}
        self.segments_encoded = 0
        self.segments_reused = 0
        #: (table, its chunks) for every table this save cut anew.
        self.cut: list[tuple[object, tuple]] = []

    # -- registration --------------------------------------------------
    def harvest(self, obj) -> None:
        """Walk the repository, noting which heat key each physical
        table belongs to."""
        cvds = getattr(obj, "_cvds", None)
        if not isinstance(cvds, dict):
            return
        for name, cvd in cvds.items():
            model = getattr(cvd, "model", None)
            if model is None:
                continue
            partitions = getattr(model, "_partitions", None)
            try:
                if partitions:
                    for index, partition in enumerate(partitions):
                        for table_name in partition.table_names():
                            self.heat_keys[table_name] = f"{name}:p{index}"
                else:
                    for table_name in model.table_names():
                        self.heat_keys[table_name] = f"{name}:p0"
            except Exception:
                pass  # heat keys are advisory

    # -- segment assembly ----------------------------------------------
    def _claim(self, key: str) -> str:
        while key in self.segments:
            key += "~"  # defensive: keys are unique by construction
        return key

    def add_segment(
        self, key: str, codec_name: str, blob: bytes,
        heat_key: str | None, count_hint: int, zone: tuple | None = None,
    ) -> SegmentRef:
        page_ids = []
        for payload in pagefiles.split_payload(blob, self.page_bytes):
            page_id = pagefiles.page_id_for(payload)
            page_ids.append(page_id)
            self.pending.setdefault(page_id, payload)
        ref = SegmentRef(
            self._claim(key), codec_name, len(blob),
            hashlib.sha256(blob).hexdigest(), tuple(page_ids),
            heat_key, count_hint, zone,
        )
        self.segments[ref.key] = ref
        self.segments_encoded += 1
        return ref

    def reuse(self, ref: SegmentRef, key: str) -> SegmentRef:
        """``ref``'s pages, untouched, under ``key``."""
        key = self._claim(key)
        if key != ref.key:
            ref = replace(ref, key=key)
        self.segments[key] = ref
        self.segments_reused += 1
        return ref

    def table_chunks(self, table) -> list[SegmentRef]:
        """A table's heap as a run of chunks, each a slot range encoded
        on its own with its zone map. A *share* is the rows accounted a
        page of bytes (encoding cost follows uncompressed size). Chunks
        wholly below the lowest slot written since ride through. The
        trailing chunks each short of a share are the *open run*: an
        append adds its rows to it as a chunk of their own, until the
        append that would bring it to a share, or past
        :data:`OPEN_RUN_CHUNKS`, seals it: cuts it again from its first
        slot as chunks of a share. Another write cuts from the chunk it
        dirtied, or from the run's start if lower. A chunk without a
        zone map, of a legacy codec or whole-table never stays open."""
        saved = table._saved_chunks
        if table._dirty_from is None:
            return [self.reuse(ref, ref.key) for _end, ref in saved]
        if table._bytes > 0:
            per_chunk = max(1, self.page_bytes * len(table) // table._bytes)
        else:  # tombstones only, or rows of no columns
            per_chunk = self.page_bytes
        keep = sum(end <= table._dirty_from for end, _ref in saved)
        starts = [0, *(end for end, _ref in saved)]
        run = len(saved)
        while run and starts[run] - starts[run - 1] < per_chunk:
            run -= 1
        if keep >= run and not (
            keep == len(saved)  # nothing but an append, short of a seal
            and len(table._rows) - starts[run] < per_chunk
            and len(saved) - run < OPEN_RUN_CHUNKS
            and all(
                ref.codec == codec.ROWS_V2  # a legacy chunk is cut again
                and "#" in ref.key
                and (ref.zone is not None or table._pk_index is None)
                for _end, ref in saved[run:]
            )
        ):
            keep = run
        chunks = [
            (end, self.reuse(ref, f"table:{table.name}#{number}"))
            for number, (end, ref) in enumerate(saved[:keep])
        ]
        start = chunks[-1][0] if chunks else 0
        table._fault_from(start)  # what is encoded again must be read
        rows = table._rows
        heat_key = self.heat_keys.get(table.name)
        while start < len(rows) or not chunks:  # no rows: one empty chunk
            end = min(start + per_chunk, len(rows))
            chunk = rows[start:end]
            codec_name, blob = codec.encode_table_rows(
                chunk, len(table.schema.columns)
            )
            ref = self.add_segment(
                f"table:{table.name}#{len(chunks)}", codec_name, blob,
                heat_key, end - start, table._zone_map(chunk),
            )
            chunks.append((end, ref))
            start = end
        self.cut.append((table, tuple(chunks)))
        return [ref for _end, ref in chunks]

    def mark_saved(self) -> None:
        """The state naming the new chunks is on disk: they are what the
        tables' next save reuses."""
        for table, chunks in self.cut:
            table._saved_chunks, table._dirty_from = chunks, None


class _PagedPickler(pickle.Pickler):
    """Pickles the skeleton, spilling heavy structures into segments."""

    def __init__(self, file, ctx: _SaveContext) -> None:
        super().__init__(file, protocol=PICKLE_PROTOCOL)
        self.ctx = ctx

    def reducer_override(self, obj):
        from repro.relational.table import Table

        if isinstance(obj, Table):
            return self._reduce_table(obj)
        return NotImplemented

    def _reduce_table(self, table):
        refs = self.ctx.table_chunks(table)
        # The indexes the table declares, whatever they hold so far (a
        # save builds none); the primary key's follows from the schema.
        index_spec = {
            "secondary": sorted(table._secondary),
            "ordered": sorted(table._ordered),
        }
        state = {
            name: value
            for name, value in table.__dict__.items()
            if name not in _TABLE_HEAVY_ATTRS
        }
        ref_tuples = tuple(ref.to_tuple() for ref in refs)
        return (_load_chunked_table, (state, ref_tuples, index_spec))


# ----------------------------------------------------------------------
# Save / load entry points (called by StateStore)
# ----------------------------------------------------------------------
#: Repository object -> (its state file, the page ids of the live
#: generation, of .bak, of .bak.1) as the process that loaded or last
#: saved it left them. Weak, so it lives as long as the object; never
#: pickled, so no other process or repository acts on it.
_generations: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _remember(store, obj, generations) -> None:
    with contextlib.suppress(TypeError):  # no weak references: not kept
        _generations[obj] = (store.path.absolute(), *generations)


def _kept_generations(store, obj) -> tuple | None:
    try:
        root, *kept = _generations[obj]
    except (KeyError, TypeError):
        return None
    return tuple(kept) if root == store.path.absolute() else None


def paged_save(store, obj) -> dict:
    """Write ``obj`` in the paged layout through ``store`` (a
    :class:`~repro.resilience.statestore.StateStore`). Returns save
    statistics (segments encoded/reused, pages written, bytes)."""
    from repro.resilience import statestore

    root = store.dir.parent
    page_bytes = pagefiles.page_size()
    ctx = _SaveContext(root, page_bytes)
    ctx.harvest(obj)
    buffer = io.BytesIO()
    _PagedPickler(buffer, ctx).dump(obj)
    skeleton = buffer.getvalue()
    refs = sorted(ctx.segments.values(), key=lambda ref: ref.key)
    all_pages = sorted({pid for ref in refs for pid in ref.pages})
    kept = _kept_generations(store, obj)
    bootstrap = kept is None
    if bootstrap:  # read what the live file and both backups reference
        kept = tuple(
            frozenset((_read_outer(path) or {}).get("pages") or ())
            for path in (store.path, *store.backup_paths)
        )
    live, back, dropped = kept
    payload = pickle.dumps(
        {
            "format": SKELETON_FORMAT,
            "page_bytes": page_bytes,
            "skeleton": skeleton,
            "segments": [ref.to_tuple() for ref in refs],
            "pages": all_pages,
            "history": [sorted(live), sorted(back)],
        },
        PICKLE_PROTOCOL,
    )

    pages_path = pagefiles.pages_dir(root)
    written: list[str] = []
    written_bytes = 0
    try:
        failpoints.fire("pagestore.before_page_write")
        for page_id in sorted(ctx.pending):
            data = ctx.pending[page_id]
            if pagefiles.page_path(pages_path, page_id).exists():
                continue
            pagefiles.write_page(pages_path, page_id, data)
            written.append(page_id)
            written_bytes += len(data)
        if written:
            fsio.fsync_dir(pages_path)
        failpoints.fire("pagestore.after_page_write")

        accountant = getattr(getattr(obj, "database", None), "accountant", None)
        if accountant is not None and hasattr(accountant, "charge_page_write"):
            accountant.charge_page_write(len(written), written_bytes)
        else:
            telemetry.count("storage.io.page_writes", len(written))
            telemetry.count("storage.io.page_bytes_written", written_bytes)
            telemetry.count("storage.io.bytes_written", written_bytes)

        store.save_bytes(payload, magic=statestore.MAGIC2)
    except BaseException:
        # Whether the swap happened is unknown, so the state files say
        # which of this save's pages, and of the generation a rotation
        # may have dropped, are still named; the lists are read anew.
        with contextlib.suppress(TypeError):
            _generations.pop(obj, None)
        doomed = (set(written) | dropped) - referenced_pages(root)
        _unlink_pages(pages_path, doomed)
        raise
    ctx.mark_saved()
    _remember(store, obj, (frozenset(all_pages), live, back))
    removed = _unlink_pages(pages_path, dropped - live - back - set(all_pages))
    if bootstrap:  # the page index older releases kept
        for path in pages_path.glob("*.json"):
            path.unlink(missing_ok=True)

    telemetry.count("pagestore.saves")
    telemetry.count("pagestore.pages_written", len(written))
    telemetry.count("pagestore.segments_encoded", ctx.segments_encoded)
    telemetry.count("pagestore.segments_reused", ctx.segments_reused)
    if removed:
        telemetry.count("pagestore.pages_gc", removed)
    return {
        "segments": len(refs),
        "segments_encoded": ctx.segments_encoded,
        "segments_reused": ctx.segments_reused,
        "pages": len(all_pages),
        "pages_written": len(written),
        "bytes_written": written_bytes,
        "pages_gc": removed,
    }


def paged_load(store, payload: bytes, live: bool = True) -> object:
    """Unpickle a paged container payload into a lazily-backed object;
    the live file's (``live``) page lists steer the object's next save."""
    outer = pickle.loads(payload)
    if not isinstance(outer, dict) or outer.get("format") != SKELETON_FORMAT:
        raise ValueError("unsupported paged state format")
    root = store.dir.parent
    _verify_pages_exist(root, outer.get("pages") or ())
    page_store = PageStore(root)
    with load_context(page_store):
        obj = pickle.loads(outer["skeleton"])
    history = outer.get("history")
    if live and history is not None:
        _remember(
            store, obj,
            (frozenset(outer.get("pages") or ()), *map(frozenset, history)),
        )
    telemetry.count("pagestore.loads")
    return obj


def _verify_pages_exist(root, page_ids) -> None:
    """A state generation referencing missing page files is corrupt —
    detected at load so the store can fall back to a backup whose pages
    survived (GC retains pages for every backup generation)."""
    directory = pagefiles.pages_dir(root)
    missing = [
        page_id
        for page_id in page_ids
        if not pagefiles.page_path(directory, page_id).exists()
    ]
    if missing:
        raise PageCorruptionError(
            f"missing page file(s): {', '.join(sorted(missing)[:4])}"
            + (f" (+{len(missing) - 4} more)" if len(missing) > 4 else "")
        )


# ----------------------------------------------------------------------
# Referenced-page accounting, GC, and recovery hooks
# ----------------------------------------------------------------------
def _read_outer(path: Path) -> dict | None:
    """The outer document of a paged state file that verifies, else None."""
    from repro.resilience import statestore

    try:
        blob = path.read_bytes()
        payload, _legacy = statestore.StateStore.verify_blob(blob)
        if not blob.startswith(statestore.MAGIC2):
            return None
        outer = pickle.loads(payload)
    except Exception:
        return None
    if isinstance(outer, dict) and outer.get("format") == SKELETON_FORMAT:
        return outer
    return None


def state_outers(root):
    """Outer payload dicts of every verifiable paged state generation,
    newest first."""
    from repro.resilience import statestore

    store = statestore.StateStore(root)
    for candidate in [store.path, *store.backup_paths]:
        outer = _read_outer(candidate)
        if outer is not None:
            yield outer


def referenced_pages(root) -> set[str]:
    """Every page id referenced by any live/backup state generation."""
    referenced: set[str] = set()
    for outer in state_outers(root):
        referenced.update(outer.get("pages") or ())
    return referenced


def live_pages(root) -> set[str]:
    """The page ids of the newest state generation that verifies (the
    one a load would use)."""
    newest = next(state_outers(root), {})
    return set(newest.get("pages") or ())


def orphan_pages(root) -> list[Path]:
    """On-disk page files no state generation references (debris from
    a save that died between page write-back and the state swap)."""
    directory = pagefiles.pages_dir(root)
    files = pagefiles.list_page_files(directory)
    if not files:
        return []
    referenced = referenced_pages(root)
    suffix = len(pagefiles.PAGE_SUFFIX)
    return [path for path in files if path.name[:-suffix] not in referenced]


def _unlink_pages(directory: Path, page_ids) -> int:
    removed = 0
    for page_id in page_ids:
        try:
            pagefiles.page_path(directory, page_id).unlink()
            removed += 1
        except OSError:
            pass
    return removed


def clean_pagestore(root, dry_run: bool = False) -> list[tuple[str, str]]:
    """Recovery hook: remove orphaned page files (interrupted writes'
    temps are swept by recovery itself). Returns ``(kind, detail)``
    action pairs for the recovery report."""
    actions: list[tuple[str, str]] = []
    directory = pagefiles.pages_dir(root)
    if not directory.is_dir():
        return actions
    orphans = orphan_pages(root)
    if orphans:
        total = sum(p.stat().st_size for p in orphans if p.exists())
        actions.append(
            (
                "clean-orphan-pages",
                f"remove {len(orphans)} unreferenced page file(s) "
                f"({total} bytes) from an interrupted write-back",
            )
        )
        if not dry_run:
            for path in orphans:
                try:
                    path.unlink()
                except OSError:
                    pass
            telemetry.count("pagestore.orphans_removed", len(orphans))
    return actions


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def migrate_state(
    root, to: str = "paged", dry_run: bool = False
) -> dict:
    """Convert a repository's state layout in place.

    ``pickle → paged`` decomposes the blob into pages;
    ``paged → pickle`` hydrates every segment back into one blob (the
    fallback path for tools that must read the state directly). Either
    direction is a single atomic state-store save, so a crash leaves
    the old layout fully intact.
    """
    from repro.resilience.statestore import StateStore

    if to not in ("paged", "pickle"):
        raise ValueError(f"unknown target layout {to!r}")
    store = StateStore(root)
    obj, info = store.load()
    if obj is None:
        return {"status": "empty", "from": None, "to": to}
    current = "paged" if info.paged else "pickle"
    result = {"status": "migrated", "from": current, "to": to}
    if current == to:
        result["status"] = "noop"
        return result
    if dry_run:
        result["status"] = "plan"
        return result
    if to == "paged":
        stats = paged_save(store, obj)
        result.update(stats)
    else:
        # Hydrates every segment: Table.__getstate__ carries the rows.
        store.save_bytes(pickle.dumps(obj, PICKLE_PROTOCOL))
    telemetry.count("pagestore.migrations")
    return result
