"""The heap table: rows, constraints, indexes, and cost-charged access."""

from __future__ import annotations

import enum
from array import array
from itertools import compress, repeat
from operator import attrgetter, is_not, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.relational.costs import CostAccountant
from repro.relational.errors import DuplicateKeyError
from repro.relational.expressions import Expression
from repro.relational.index import HashIndex, OrderedIndex
from repro.relational.schema import Schema
from repro.relational.types import INT_ARRAY

Row = tuple[object, ...]


class ClusterOrder(enum.Enum):
    """Physical ordering of the heap.

    Section 5.5.5 distinguishes a data table *clustered on rid* from one
    clustered on the relation primary key; the clustering determines
    whether an index scan on ``rid`` degrades into random I/O.
    """

    INSERTION = "insertion"
    RID = "rid"
    PRIMARY_KEY = "primary_key"


class Table:
    """An append-mostly heap of tuples with optional indexes.

    Deleted rows leave tombstoned slots (``None``) so that index entries
    stay position-stable; :meth:`vacuum` compacts when needed.
    """

    #: What the live rows measure in THIS process minus ``_bytes``; None
    #: until a full scan needs it. ``_bytes`` is saved with the state, and
    #: a process that loaded its schema sizes text and arrays differently
    #: from the one that wrote the rows (``DataType.sizeof`` tests
    #: identity, which pickling loses). Mutators move ``_bytes`` by this
    #: process's sizes, so the gap is constant. Never saved.
    _bytes_skew: int | None = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        accountant: CostAccountant | None = None,
        enforce_primary_key: bool = True,
        cluster_order: ClusterOrder = ClusterOrder.INSERTION,
    ) -> None:
        self.name = name
        self.schema = schema
        self.accountant = accountant or CostAccountant()
        self.enforce_primary_key = enforce_primary_key and bool(schema.primary_key)
        self.cluster_order = cluster_order
        self._rows: list[Row | None] = []
        self._live_count = 0
        self._bytes = 0
        self._bytes_skew = 0  # every row will be sized by this process
        #: The primary key's index: each key to its one heap slot (keys
        #: are unique, so no list per key).
        self._pk_index: dict[tuple, int] | None = (
            {} if self.enforce_primary_key else None
        )
        self._secondary: dict[str, HashIndex] = {}
        self._ordered: dict[str, OrderedIndex] = {}
        # Paged-layout plumbing: the pager of the saved chunks not yet
        # read or indexed (None: every row and index entry is here); the
        # chunks the last paged save cut the heap into, as (end slot,
        # SegmentRef); and the lowest slot written since (None: none),
        # below which a save reuses them.
        self._pager = None
        self._saved_chunks: tuple = ()
        self._dirty_from: int | None = 0

    # ------------------------------------------------------------------
    # Paged loading: the heap as saved chunks, read one at a time
    # ------------------------------------------------------------------
    def _attach(self, pager, index_spec: dict) -> None:
        """Back the heap with ``pager``'s saved chunks, none read yet.

        Every slot exists from the start (a chunk's slot range is in its
        ref); a chunk's rows arrive on the first access that needs them.
        The indexes — the primary key's and those ``index_spec`` names —
        start empty and take a chunk's rows when a keyed read first lands
        in it. Metadata (``len``, ``row_count``, ``has_index``,
        ``storage_bytes``, ``schema``) answers without any I/O.
        """
        self._rows = [None] * pager.slots
        self._saved_chunks = tuple(zip(pager.ends, pager.refs))
        self._dirty_from = None  # what the pager names is what is saved
        self._pk_index = {} if self.enforce_primary_key else None
        self._secondary = {c: HashIndex() for c in index_spec.get("secondary", ())}
        self._ordered = {c: OrderedIndex() for c in index_spec.get("ordered", ())}
        if self._pk_index is None and not (self._secondary or self._ordered):
            pager.unindexed.clear()
        self._pager = pager if pager.unread or pager.unindexed else None

    def _fault(self, pager, numbers: Iterable[int], index: bool = False) -> None:
        """Read the saved chunks ``numbers`` into their heap slots and,
        with ``index``, add their rows to every index. The pager goes
        once every chunk is both read and indexed."""
        with pager.lock:
            for number in numbers:
                if number in pager.unread:
                    start, stop = pager.span(number)
                    self._rows[start:stop] = pager.read(number, self.accountant)
                    pager.unread.discard(number)
                if index and number in pager.unindexed:
                    self._index_slots(*pager.span(number))
                    pager.unindexed.discard(number)
            if not (pager.unread or pager.unindexed) and self._pager is pager:
                self._pager = None

    def _fault_all(self, index: bool = False) -> None:
        """Every saved chunk read (and, with ``index``, indexed)."""
        pager = self._pager
        if pager is not None:
            self._fault(pager, range(len(pager.refs)), index)

    def _fault_from(self, slot: int) -> None:
        """Every saved chunk that ends past ``slot`` read."""
        pager = self._pager
        if pager is not None:
            self._fault(pager, pager.after(slot))

    def _fault_slot(self, slot: int) -> bool:
        """The saved chunk holding ``slot`` read; whether the indexes
        hold its rows (a slot past the saved chunks was written here)."""
        pager = self._pager
        if pager is None:
            return True
        number = pager.holding(slot)
        if number is None:
            return True
        if number in pager.unread:  # read again under the lock
            self._fault(pager, (number,))
        return number not in pager.unindexed

    def _index_slots(self, start: int, stop: int) -> None:
        """Add the live rows of heap slots ``[start, stop)`` to every
        index; the primary key's a key column at a time."""
        rows = self._rows[start:stop]
        is_live = list(map(is_not, rows, repeat(None)))
        live = list(compress(rows, is_live))
        slots = list(compress(range(start, stop), is_live))
        if self._pk_index is not None:
            key_columns = (
                map(itemgetter(position), live)
                for position in self.schema.key_positions()
            )
            self._pk_index.update(zip(zip(*key_columns), slots))
        for column, index in (*self._secondary.items(), *self._ordered.items()):
            position = self.schema.position(column)
            for row, slot in zip(live, slots):
                index.add(row[position], slot)  # type: ignore[arg-type]

    def _zone_map(self, rows: list) -> tuple | None:
        """The least and the greatest primary key among the live
        ``rows``: ``()`` when there are none, None when the table has no
        primary key or its keys do not order."""
        if self._pk_index is None:
            return None
        live = list(compress(rows, map(is_not, rows, repeat(None))))
        if not live:
            return ()
        positions = self.schema.key_positions()
        if len(positions) == 1:
            keys = list(map(itemgetter(positions[0]), live))
        else:
            keys = list(zip(*(map(itemgetter(p), live) for p in positions)))
        try:
            low, high = min(keys), max(keys)
        except TypeError:
            return None
        return ((low,), (high,)) if len(positions) == 1 else (low, high)

    @property
    def paged_out(self) -> bool:
        """True while some saved chunk has not been read."""
        pager = self._pager
        return pager is not None and bool(pager.unread)

    def _dirty(self, slot: int) -> None:
        """Heap slots from ``slot`` on are no longer what was saved."""
        if self._dirty_from is None or slot < self._dirty_from:
            self._dirty_from = slot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    @property
    def row_count(self) -> int:
        return self._live_count

    def storage_bytes(self, include_indexes: bool = True) -> int:
        """Approximate total storage including index structures.

        An index is sized by the live rows it covers once built — a hash
        index 24 bytes a row (an entry and a bucket), an ordered one 16 —
        so a table answers the same whether paged out, partly read or
        resident, whatever its indexes hold so far.
        """
        if not include_indexes:
            return self._bytes
        hashed = (self._pk_index is not None) + len(self._secondary)
        per_row = 24 * hashed + 16 * len(self._ordered)
        return self._bytes + per_row * self._live_count

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, column: str, ordered: bool = False) -> None:
        """Create a secondary index on ``column`` over existing rows."""
        self._fault_all(index=True)
        position = self.schema.position(column)
        if ordered:
            index = OrderedIndex()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    index.add(row[position], slot)  # type: ignore[arg-type]
            self._ordered[column] = index
        else:
            hash_index = HashIndex()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    hash_index.add(row[position], slot)
            self._secondary[column] = hash_index

    def has_index(self, column: str) -> bool:
        return column in self._secondary or column in self._ordered

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[object]) -> int:
        """Insert one row; returns its slot position."""
        self.insert_many((row,))
        return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Bulk insert, charged once; returns the number of rows inserted.
        A row that fails validation or repeats a key raises before any
        row of the batch is appended. Of the saved chunks, only those
        whose zone map may hold a new key are read (and indexed) for the
        key check; the rows go past them all."""
        pk_index, key_of = self._pk_index, self.schema.key_of
        stored: list[Row] = []
        keys: dict[tuple, None] = {}  # the batch's, in row order
        for row in rows:
            self.schema.validate_row(row)
            row = tuple(row)
            if pk_index is not None:
                key = key_of(row)
                if key in keys:
                    raise DuplicateKeyError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                keys[key] = None
            stored.append(row)
        if not stored:
            return 0
        if pk_index is not None:
            pager = self._pager
            if pager is not None:
                self._fault(pager, pager.covering(keys), index=True)
            if not pk_index.keys().isdisjoint(keys):
                key = next(filter(pk_index.__contains__, keys))
                raise DuplicateKeyError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        first = len(self._rows)
        slots = range(first, first + len(stored))
        self._dirty(first)
        self._rows.extend(stored)
        self._live_count += len(stored)
        size = self.schema.rows_bytes(stored)
        self._bytes += size
        self.accountant.charge_write(len(stored), size)
        if pk_index is not None:
            pk_index.update(zip(keys, slots))
        for column, index in (*self._secondary.items(), *self._ordered.items()):
            position = self.schema.position(column)
            for row, slot in zip(stored, slots):
                index.add(row[position], slot)  # type: ignore[arg-type]
        return len(stored)

    def delete_at(self, slot: int) -> None:
        """Tombstone the row in ``slot``. Indexes not yet built over its
        chunk are left alone: they will be built from what is left."""
        indexed = self._fault_slot(slot)
        row = self._rows[slot]
        if row is None:
            return
        self._dirty(slot)
        self._rows[slot] = None
        self._live_count -= 1
        row_bytes = self.schema.row_bytes(row)
        self._bytes -= row_bytes
        self.accountant.charge_write(1, row_bytes)
        if not indexed:
            return
        if self._pk_index is not None:
            del self._pk_index[self.schema.key_of(row)]
        for column, index in self._secondary.items():
            index.remove(row[self.schema.position(column)], slot)
        for column, ordered_index in self._ordered.items():
            ordered_index.remove(
                row[self.schema.position(column)],  # type: ignore[arg-type]
                slot,
            )

    def delete_where(self, predicate: Expression) -> int:
        """Delete all rows matching ``predicate``; returns count deleted."""
        test = predicate.bind(self.schema)
        doomed = []
        for slot, row in self._iter_slots():
            if test(row):
                doomed.append(slot)
        for slot in doomed:
            self.delete_at(slot)
        return len(doomed)

    def update_where(
        self,
        predicate: Expression | None,
        assignments: dict[str, Expression],
    ) -> int:
        """UPDATE ... SET col = expr [WHERE pred]; returns rows updated.

        Each update rewrites the full row (delete + insert in place), which
        is what makes array-append commits expensive for combined-table.
        """
        test = predicate.bind(self.schema) if predicate is not None else None
        bound = {
            self.schema.position(column): expr.bind(self.schema)
            for column, expr in assignments.items()
        }
        self._fault_all()
        # Sized on entry: the rewrite behind the scan changes row sizes.
        charge, bytes_on_entry = self._scan_charge(), self._bytes
        updated = 0
        try:
            for slot, row in enumerate(self._rows):
                if row is None or (test is not None and not test(row)):
                    continue
                new_row = list(row)
                for position, evaluate in bound.items():
                    new_row[position] = evaluate(row)
                self._replace_at(slot, tuple(new_row))
                updated += 1
        except BaseException:  # only the rows through ``slot`` were read
            rows, size = self._scan_charge(slot)
            charge = rows, size - (self._bytes - bytes_on_entry)
            raise
        finally:
            self._charge_seq_scan(*charge)
        return updated

    def _replace_at(self, slot: int, new_row: Row) -> None:
        indexed = self._fault_slot(slot)
        old_row = self._rows[slot]
        assert old_row is not None
        self.schema.validate_row(new_row)
        old_bytes = self.schema.row_bytes(old_row)
        new_bytes = self.schema.row_bytes(new_row)
        if self._pk_index is not None:
            old_key = self.schema.key_of(old_row)
            new_key = self.schema.key_of(new_row)
            if old_key != new_key:
                # The new key may sit in a chunk not indexed yet, and may
                # leave this chunk's zone map: index every chunk first.
                self._fault_all(index=True)
                indexed = True
                if new_key in self._pk_index:
                    raise DuplicateKeyError(
                        f"duplicate primary key {new_key!r} in {self.name!r}"
                    )
                del self._pk_index[old_key]
                self._pk_index[new_key] = slot
        if indexed:
            for column, index in self._secondary.items():
                position = self.schema.position(column)
                if old_row[position] != new_row[position]:
                    index.remove(old_row[position], slot)
                    index.add(new_row[position], slot)
            for column, ordered_index in self._ordered.items():
                position = self.schema.position(column)
                if old_row[position] != new_row[position]:
                    ordered_index.remove(old_row[position], slot)  # type: ignore[arg-type]
                    ordered_index.add(new_row[position], slot)  # type: ignore[arg-type]
        self._dirty(slot)
        self._rows[slot] = new_row
        self._bytes += new_bytes - old_bytes
        self.accountant.charge_write(1, new_bytes)

    # ------------------------------------------------------------------
    # ALTER TABLE (Section 4.3: schema evolution over physical tables)
    # ------------------------------------------------------------------
    def add_column(self, column) -> None:
        """ALTER TABLE ADD COLUMN: existing rows read NULL for it."""
        self._fault_all()
        self._dirty(0)
        from repro.relational.schema import Schema

        self.schema = Schema(
            self.schema.columns + [column], self.schema.primary_key
        )
        for slot, row in enumerate(self._rows):
            if row is not None:
                self._rows[slot] = row + (None,)
                self._bytes += column.dtype.sizeof(None)
        self.accountant.charge_write(self._live_count)

    def widen_column(self, name: str, dtype) -> None:
        """ALTER TABLE ALTER COLUMN TYPE to a more general type; existing
        values are coerced in place (keys too, so every index is built
        first: a zone map holds the keys as they were)."""
        self._fault_all(index=True)
        self._dirty(0)
        from repro.relational.schema import ColumnDef, Schema
        from repro.relational.types import generalize_types

        position = self.schema.position(name)
        widened = generalize_types(self.schema.columns[position].dtype, dtype)
        columns = list(self.schema.columns)
        columns[position] = ColumnDef(name, widened)
        self.schema = Schema(columns, self.schema.primary_key)
        for slot, row in enumerate(self._rows):
            if row is None or row[position] is None:
                continue
            coerced = widened.coerce(row[position])
            if coerced != row[position] or type(coerced) is not type(
                row[position]
            ):
                mutable = list(row)
                mutable[position] = coerced
                self._rows[slot] = tuple(mutable)
        # Size follows type (integer 4, decimal 8, text by length).
        self._bytes = self._sized()[1]
        self._bytes_skew = 0
        self.accountant.charge_write(self._live_count)

    def vacuum(self) -> None:
        """Compact tombstones and rebuild indexes."""
        self._fault_all()
        self._pager = None  # every slot moves: the indexes start over
        self._dirty(0)
        self._rows = [row for row in self._rows if row is not None]
        if self._pk_index is not None:
            self._pk_index = {}
        self._secondary = {column: HashIndex() for column in self._secondary}
        self._ordered = {column: OrderedIndex() for column in self._ordered}
        self._index_slots(0, len(self._rows))

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _iter_slots(self) -> Iterator[tuple[int, Row]]:
        self._fault_all()
        for slot, row in enumerate(self._rows):
            if row is not None:
                yield slot, row

    def scan(self) -> Iterator[Row]:
        """Full sequential scan, charged once per call rather than per row.

        Read to the end, it charges the table's maintained row and byte
        totals in O(1); abandoned early, it charges exactly the rows it
        yielded, when the generator is closed. Do not mutate the table
        from inside the loop. It reads every saved chunk and builds no
        index.
        """
        self._fault_all()
        slot = None
        try:
            for slot, row in enumerate(self._rows):
                if row is not None:
                    yield row
            slot = None  # read to the end
        finally:
            self._charge_seq_scan(*self._scan_charge(slot))

    def _sized(self, stop: int | None = None) -> tuple[int, int]:
        """``(rows, bytes)`` of the live rows in heap slots ``[0, stop)``,
        as this process sizes them."""
        live = [row for row in self._rows[:stop] if row is not None]
        return len(live), self.schema.rows_bytes(live)

    def _scan_charge(self, last_slot: int | None = None) -> tuple[int, int]:
        """``(rows, bytes)`` that one sequential read of the heap through
        ``last_slot`` touches (None: all of it, O(1) once the skew of
        ``_bytes`` has been measured)."""
        if last_slot is not None:
            return self._sized(last_slot + 1)
        if self._bytes_skew is None:
            self._bytes_skew = self._sized()[1] - self._bytes
        return self._live_count, self._bytes + self._bytes_skew

    def _charge_seq_scan(self, rows: int, size: int) -> None:
        if rows:  # a read that touches nothing leaves no trace
            self.accountant.charge_seq_scan(rows, size)

    def scan_where(self, predicate: Expression) -> Iterator[Row]:
        """Sequential scan with a pushed-down filter."""
        return filter(predicate.bind(self.schema), self.scan())

    def fetch_slot(self, slot: int) -> Row | None:
        """Random access by heap position (charged as random I/O)."""
        self._fault_slot(slot)
        row = self._rows[slot]
        if row is not None:
            self.accountant.charge_random_read(1, self.schema.row_bytes(row))
        return row

    def lookup(self, column: str, key: Hashable) -> list[Row]:
        """Index lookup; falls back to a sequential scan without an index."""
        return self.lookup_many(column, (key,))

    def lookup_many(self, column: str, keys: Iterable[Hashable]) -> list[Row]:
        """Batched index lookups, preserving key order: one probe charge
        and one read charge for the whole batch (one sequential scan per
        key without an index).

        Whether the fetches after the probes are charged as random or
        sequential depends on the clustering: probing ``rid`` on a table
        clustered by ``rid`` touches adjacent pages.

        Of the saved chunks, a lookup on the primary key reads and
        indexes those whose zone map may hold one of ``keys``; one on
        another indexed column, all of them.
        """
        pager = self._pager
        if pager is not None:
            keys = list(keys)
            if self._pk_index is not None and self.schema.primary_key == (column,):
                numbers = pager.covering([(key,) for key in keys])
                self._fault(pager, numbers, index=True)
            elif self.has_index(column):
                self._fault_all(index=True)
        index = self._index_for(column)
        if index is None:
            position = self.schema.position(column)
            return [r for key in keys for r in self.scan() if r[position] == key]
        keys = list(keys)
        heap = self._rows
        rows = [
            row
            for key in keys
            for slot in index.lookup(key)
            if (row := heap[slot]) is not None
        ]
        if keys:
            self.accountant.charge_index_probe(len(keys))
        if rows:
            charge = (
                self.accountant.charge_seq_scan
                if self._is_clustered_on(column)
                else self.accountant.charge_random_read
            )
            charge(len(rows), self.schema.rows_bytes(rows))
        return rows

    def _index_for(self, column: str) -> HashIndex | OrderedIndex | None:
        if (
            self._pk_index is not None
            and self.schema.primary_key == (column,)
        ):
            return _PkAdapter(self._pk_index)
        if column in self._secondary:
            return self._secondary[column]
        if column in self._ordered:
            return self._ordered[column]
        return None

    def _is_clustered_on(self, column: str) -> bool:
        if self.cluster_order is ClusterOrder.RID:
            return column == "rid"
        if self.cluster_order is ClusterOrder.PRIMARY_KEY:
            return self.schema.primary_key == (column,)
        return False

    def rows_snapshot(self) -> list[Row]:
        """All live rows without charging I/O (for assertions in tests)."""
        return [row for _slot, row in self._iter_slots()]

    def first_where(self, predicate: Expression) -> Row | None:
        for row in self.scan_where(predicate):
            return row
        return None

    def apply_projection(
        self, names: Sequence[str]
    ) -> Callable[[Row], Row]:
        positions = self.schema.project_positions(names)
        return lambda row: tuple(row[i] for i in positions)

    # ------------------------------------------------------------------
    # Pickling (legacy/plain layout; the paged layout bypasses these
    # via its reducer_override)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        self._fault_all(index=True)  # a plain pickle carries it all
        state = dict(self.__dict__)
        for transient in ("_pager", "_saved_chunks", "_dirty_from", "_bytes_skew"):
            state.pop(transient, None)
        # A rid array is pickled as the list it stands for: the bytes the
        # plain layout has always written. A load leaves the lists.
        if INT_ARRAY in map(attrgetter("dtype"), self.schema.columns):
            state["_rows"] = [
                row
                if row is None or array not in map(type, row)
                else tuple(
                    value.tolist() if type(value) is array else value
                    for value in row
                )
                for row in self._rows
            ]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.pop("_stamp", None)  # states from before _dirty_from
        pk_index = state.get("_pk_index")
        if isinstance(pk_index, HashIndex):  # of one-element lists
            self._pk_index = {key: slot for key, (slot,) in pk_index._buckets.items()}
        self._pager = None
        self._saved_chunks = ()  # no paged save has seen these rows
        self._dirty_from = 0


class _PkAdapter:
    """Adapts the primary-key index to the single-key lookup shape."""

    def __init__(self, pk_index: dict[tuple, int]) -> None:
        self._pk_index = pk_index

    def lookup(self, key: Hashable) -> list[int]:
        slot = self._pk_index.get((key,))
        return [] if slot is None else [slot]
