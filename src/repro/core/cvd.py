"""The collaborative versioned dataset (CVD).

A CVD corresponds to one relation and implicitly contains many versions
of it (Section 3.1). Records are immutable: any modification produces a
new record with a fresh rid. The CVD layer owns:

* rid assignment under the **no cross-version diff** rule — a committed
  table is compared only against its parent versions, never against all
  ancestors, trading a little storage for much faster commits;
* the version graph and metadata (via :class:`VersionManager`);
* primary-key precedence semantics for multi-version checkout;
* schema evolution through the single-pool attribute registry.

Physical storage is delegated to a pluggable :class:`DataModel`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from repro import telemetry

from repro.core import csvio
from repro.core.errors import NoSuchVersionError, PrimaryKeyViolationError
from repro.core.metadata import AttributeRegistry, VersionManager, VersionMetadata
from repro.core.models import DataModel, make_model
from repro.relational.arrays import Slots, rid_array, rids_within, rids_without
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import DataType, generalize_types


#: A rendered line less the ``\r\n`` that ``csv.writer`` ends it with.
_LESS_LINE_END = itemgetter(slice(None, -len(csvio.LINE_END)))


@dataclass
class CheckoutResult:
    """The outcome of a checkout: rows plus bookkeeping.

    Attributes:
        rows: The materialized records (payload tuples, data attributes
            only) after primary-key precedence resolution.
        rids: ``rids[i]`` is the rid of ``rows[i]``. For one version
            both lists are those the data model returned, rids ascending.
        parents: The versions this checkout was derived from, in
            precedence order.
        columns: Column names of the rows.
    """

    rows: list[tuple]
    rids: list[int]
    parents: tuple[int, ...]
    columns: list[str]


class CVD:
    """A collaborative versioned dataset over a backend database."""

    def __init__(
        self,
        database: Database,
        name: str,
        schema: Schema,
        model: str | DataModel = "split_by_rlist",
    ) -> None:
        """Args:
        database: Backend database for physical tables.
        name: CVD name (prefixes all physical table names).
        schema: Logical relation schema, including the relation primary
            key if any. Must not contain reserved columns (rid, vlist).
        model: A data-model registry name or a pre-built instance.
        """
        for reserved in ("rid", "vlist", "rlist", "vid"):
            if schema.has_column(reserved):
                raise ValueError(f"column name {reserved!r} is reserved")
        self.database = database
        self.name = name
        self.schema = schema
        self.versions = VersionManager()
        self.attributes = AttributeRegistry()
        if isinstance(model, str):
            self.model: DataModel = make_model(model, database, name, schema)
        else:
            self.model = model
        self._next_rid = 1
        self._num_records = 0
        self._reset_memo()

    # ------------------------------------------------------------------
    # The memo: version -> rids, and one record store, as this process
    # has seen them. The model's tables are the only stored copy; a miss
    # reads them, so a long-lived process pays for a version once and a
    # one-shot command only for the versions it touches. A version's
    # rids are one ascending rid array, the very object its rlist row
    # holds where the model stores it whole (nobody modifies it). The
    # memo is lent to the model, which rebuilds a version stored as a
    # delta from its base's entry, each version once.
    #
    # The record store keeps each record once, in slots indexed by its
    # rid: its payload, its CSV line as file checkouts render it (less
    # the line end), and its JSON fragment as orpheusd's inline
    # checkouts encode it. A line is judged once, when a commit first
    # asks (a pull never pays for it): a judged line parses back to its
    # payload, so a commit takes it unparsed. It maps, as the very string
    # its slot holds, to the lowest judged rid whose line it is, and a
    # bitmap marks the judged rids. All of it follows the schema, so a
    # schema change empties the store.
    # ------------------------------------------------------------------
    def _reset_memo(self) -> None:
        self._membership: dict[int, array] = {}
        self.model.rids_memo = self._membership
        self._reset_records()

    def _reset_records(self) -> None:
        self._payloads = Slots()
        self._lines = Slots()
        self.json_fragments = Slots()
        self._line_rids: dict[str, int] = {}
        self._judged = bytearray()
        #: judged lines that are several rids'; (rids, payloads, lines)
        #: rendered and not yet judged.
        self._shared: set[str] = set()
        self._unjudged: list[tuple] = []

    def __getstate__(self) -> dict:
        memo = {"_membership", "_payloads", "_lines", "_line_rids", "_judged"}
        memo |= {"_shared", "_unjudged", "json_fragments"}
        return {k: v for k, v in self.__dict__.items() if k not in memo}

    def __setstate__(self, state: dict) -> None:
        # A state from before the memo stored both maps: they only give
        # the record count now, the next save leaves them out, as it does
        # the column names an older state kept per version (its
        # ``attribute_ids`` record them).
        stored_payloads = state.pop("_payloads", ())
        state.pop("_membership", None)
        state.pop("_version_columns", None)
        state.setdefault("_num_records", len(stored_payloads))
        self.__dict__.update(state)
        self._reset_memo()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_versions(self) -> int:
        return len(self.versions)

    @property
    def num_records(self) -> int:
        return self._num_records

    def membership(self, vid: int) -> array:
        """Version ``vid``'s ascending rid array (shared: never modify)."""
        rids = self._membership.get(vid)
        if rids is None:
            if vid not in self.versions:
                raise NoSuchVersionError(
                    f"no version {vid} in CVD {self.name!r}"
                )
            rids = self._membership[vid] = self.model.rids_of(vid)
        return rids

    def payload_of(self, rid: int) -> tuple:
        return self.payloads_of((rid,))[0]

    def payloads_of(
        self, rids: Sequence[int], vid: int | None = None
    ) -> list[tuple]:
        """The payloads of ``rids``, in order; misses are read from the
        model in one batch (``KeyError`` for a rid it does not hold).
        ``vid``, if given, is a version known to contain them all."""
        memo = self._payloads
        memo.grow(max(rids, default=0))
        payloads = list(map(memo.__getitem__, rids))
        if None in payloads:
            missing = [rid for rid, got in zip(rids, payloads) if got is None]
            memo.update(self.model.payloads_of(missing, vid))
            payloads = list(map(memo.__getitem__, rids))
            if None in payloads:
                raise KeyError(rids[payloads.index(None)])
        return payloads

    def lines_of(
        self, rids: Sequence[int], rows: Sequence[tuple] | None = None
    ) -> list[str]:
        """The canonical CSV line of each of ``rids``, in order: what
        ``csv.writer`` writes for its payload, less the line end. Only
        rids never rendered before are formatted, from ``rows`` (their
        payloads, in order) when the caller holds them."""
        memo = self._lines
        memo.grow(max(rids, default=0))
        lines = list(map(memo.__getitem__, rids))
        unrendered = lines.count(None)
        if unrendered == len(lines):  # the first pull of these records
            return self._render(rids, self.payloads_of(rids) if rows is None else rows)
        if unrendered:
            todo = [n for n, line in enumerate(lines) if line is None]
            new = [rids[n] for n in todo]
            if rows is None:
                payloads = self.payloads_of(new)
            else:
                payloads = [rows[n] for n in todo]
            for n, line in zip(todo, self._render(new, payloads)):
                lines[n] = line
        return lines

    def _render(
        self, rids: Sequence[int], payloads: Sequence[tuple]
    ) -> list[str]:
        rendered = list(map(_LESS_LINE_END, csvio.render_lines(payloads)))
        self._lines.put(rids, rendered)
        self._unjudged.append((rids, payloads, rendered))
        return rendered

    def parsed_lines(self) -> tuple[dict[str, int], Slots]:
        """Every rendered line that ``read_csv`` parses back to exactly
        its record's payload, mapped to the lowest rid whose line it is,
        and the payloads by rid (both live, not copies)."""
        line_rids, judged, slots = self._line_rids, self._judged, self._payloads
        judged.extend(bytes(self._next_rid - len(judged)))  # a byte a rid
        slots.grow(self._next_rid - 1)
        for rids, payloads, lines in self._unjudged:
            parses = csvio.parsed_back(self.schema, payloads, lines)
            for rid, payload, line in zip(rids, payloads, lines):
                if line in parses:
                    judged[rid], slots[rid] = 1, payload
                    if line_rids.setdefault(line, rid) != rid:
                        self._shared.add(line)
                        line_rids[line] = min(line_rids[line], rid)
        self._unjudged.clear()
        return line_rids, slots

    def storage_bytes(self) -> int:
        return self.model.storage_bytes()

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(
        self,
        rows: Iterable[tuple],
        parents: Sequence[int] = (),
        message: str = "",
        author: str = "",
        columns: Sequence[str] | None = None,
        column_types: dict[str, DataType] | None = None,
        checkout_time: float | None = None,
        diff_against: Sequence[int] | None = None,
        matched: Sequence[int | None] | None = None,
    ) -> int:
        """Add a new version containing ``rows``; returns its vid.

        Args:
            rows: Full contents of the new version, as tuples matching the
                CVD schema (or ``columns`` when the schema evolves).
            parents: Parent version ids the table was derived from.
            message: Commit message.
            author: Committing user.
            columns: Column names of ``rows`` if they differ from the
                current CVD schema (triggers schema evolution).
            column_types: Types for columns not yet known to the CVD.
            checkout_time: When the source table was checked out.
            diff_against: Versions whose records may be reused by rid.
                Defaults to ``parents`` — the no-cross-version-diff rule;
                pass all ancestors to trade commit time for deduplication
                of deleted-then-re-added records.
            matched: For each row, the rid ``read_csv`` matched its line
                to (0: none), from the lines :meth:`parsed_lines`
                returned just before.
        """
        started = telemetry.monotonic()
        with telemetry.span("cvd.commit", dataset=self.name) as current:
            vid = self._commit(
                rows, parents, message, author, columns, column_types,
                checkout_time, diff_against, matched,
            )
            if current is not None:
                current.set_attr("vid", vid)
        telemetry.observe(
            "cvd.commit.latency_seconds", telemetry.monotonic() - started
        )
        return vid

    def _commit(
        self,
        rows: Iterable[tuple],
        parents: Sequence[int],
        message: str,
        author: str,
        columns: Sequence[str] | None,
        column_types: dict[str, DataType] | None,
        checkout_time: float | None,
        diff_against: Sequence[int] | None,
        matched: Sequence[int | None] | None,
    ) -> int:
        for parent in parents:
            self.versions.get(parent)  # validate early

        if columns is not None and self._schema_changed(
            list(columns), column_types or {}
        ):
            rows = self._evolve_schema(rows, list(columns), column_types or {})
            matched = None  # the lines were the old schema's
        rows = list(map(tuple, rows))
        commit_span = telemetry.current_span()
        if commit_span is not None:
            commit_span.set_attr("rows", len(rows))
        # Outside a schema evolution every row has the schema's arity,
        # and then nothing below needs a per-row Python call to pad it.
        full_width = self._full_width(rows)
        self._check_primary_key(rows, full_width)

        if not full_width:
            rows = list(map(self._pad_row, rows))
        # Each row's candidate: the lowest rid of an equal payload in the
        # first parent that has one; from the reader's matches, also
        # payload -> line for the rows rendered to look them up.
        found = None
        if matched is not None and diff_against is None and len(parents) == 1:
            found = self._matched_candidates(rows, matched, parents[0])
        versions = parents if diff_against is None else diff_against
        candidates, rendered = found or (
            self._payload_candidates(rows, versions), None
        )
        records: dict[int, tuple] = {}
        new_records: dict[int, tuple] = {}
        next_rid = self._next_rid
        for padded, rid in zip(rows, candidates):
            if rid is None or rid in records:
                # New or modified record (or a duplicate full row, which
                # must stay distinct since rids identify row instances).
                rid = next_rid
                next_rid += 1
                new_records[rid] = padded
            records[rid] = padded

        telemetry.count("cvd.commit.rows_in", len(rows))
        telemetry.count("cvd.commit.new_records", len(new_records))
        telemetry.count(
            "cvd.commit.reused_records", len(records) - len(new_records)
        )
        vid = self.versions.allocate_vid()
        membership = self._rids_of_commit(records, new_records, versions)
        parent_membership = {p: self.membership(p) for p in parents}
        with telemetry.span(
            "model.commit", model=self.model.model_name
        ) as model_span:
            self.model.commit_version(
                vid, tuple(parents), membership, new_records,
                parent_membership, records,
            )
            if model_span is not None:
                model_span.set_attr("rows", len(new_records))
        # Only now: a model that refused the version must leave neither
        # the memo nor the rid counter ahead of its tables. The new rids
        # run from the old counter on, so each store is one slice.
        first, self._next_rid = self._next_rid, next_rid
        self._num_records += len(new_records)
        payloads = list(map(records.get, new_records))
        self._payloads.put(range(first, next_rid), payloads)
        self._membership[vid] = membership
        if rendered:  # what a pull of the version would render again
            lines = list(map(rendered.get, payloads))
            self._lines.put(range(first, next_rid), lines)
            fresh = [n for n, line in enumerate(lines) if line is not None]
            self._unjudged.append((
                [first + n for n in fresh],
                list(map(payloads.__getitem__, fresh)),
                list(map(lines.__getitem__, fresh)),
            ))
        attribute_ids = tuple(
            self.attributes.intern(column.name, column.dtype)
            for column in self.schema.columns
        )
        self.versions.register(
            VersionMetadata(
                vid=vid,
                parents=tuple(parents),
                checkout_time=checkout_time,
                commit_time=telemetry.now(),
                message=message,
                author=author,
                attribute_ids=attribute_ids,
                record_count=len(membership),
            )
        )
        return vid

    def _rids_of_commit(
        self,
        records: dict[int, tuple],
        new_records: dict[int, tuple],
        versions: Sequence[int],
    ) -> array:
        """The committed version's rid array. Every reused rid is one of
        ``versions``' and every new one is above all stored rids, in
        ascending order: from one version, its rids the commit kept, in
        their order, then the new ones, so nothing is sorted."""
        if len(versions) > 1:
            return rid_array(sorted(records))
        kept = rid_array()
        if versions:
            kept = rids_within(self.membership(versions[0]), records)
        kept.extend(new_records)
        if len(kept) != len(records):  # never drop a rid silently
            return rid_array(sorted(records))
        return kept

    def _payload_candidates(
        self, rows: list[tuple], versions: Sequence[int]
    ) -> list[int | None]:
        """Each row's candidate from a payload -> rid map of ``versions``."""
        parent_payload_rids: dict[tuple, int] = {}
        for parent in versions:
            # Lowest rid first, so which of two equal payloads is reused
            # does not depend on how this process built the rid set.
            rids = self.membership(parent)
            payloads = self.payloads_of(rids, parent)
            if not self._full_width(payloads):
                # Pad stored payloads so records committed before a schema
                # change still match their (NULL-extended) reappearance.
                payloads = list(map(self._pad_row, payloads))
            # Built highest rid first, so the lowest one is what stays;
            # then the earlier parents' entries win.
            reused = dict(zip(reversed(payloads), reversed(rids)))
            reused.update(parent_payload_rids)
            parent_payload_rids = reused
        if versions:
            telemetry.count("cvd.commit.payloads_compared", len(rows))
        return list(map(parent_payload_rids.get, rows))

    def _matched_candidates(
        self, rows: list[tuple], matched: Sequence[int | None], parent: int
    ) -> tuple[list[int | None], dict[tuple, str]] | None:
        """Each row's candidate from the rids the known-lines reader
        matched, and payload -> line for the other rows: those are
        rendered and looked up among the parent's lines. Exact while
        every record of ``parent`` has a judged line, for judged lines
        and parsed payloads are equal exactly when their lines are (but
        for -0.0, never judged). None where it is not: the parent holds
        a record not judged, or a line looked up is -0.0's or several
        records', the lowest of them not the parent's."""
        rids, judged = self.membership(parent), self._judged
        if rids and rids[-1] >= len(judged):  # rids ascend
            return None
        if not all(map(judged.__getitem__, rids)):
            return None
        members = set(rids)  # probed per row
        candidates = list(matched)
        missed = [n for n, rid in enumerate(matched) if rid not in members]
        rendered = csvio.render_lines([rows[n] for n in missed])
        rendered = list(map(_LESS_LINE_END, rendered))
        for n, line in zip(missed, rendered):
            rid = self._line_rids.get(line)
            if rid not in members:
                if line in self._shared or "-0.0" in line.split(","):
                    return None
                rid = None
            candidates[n] = rid
        telemetry.count("cvd.commit.payloads_compared", len(missed))
        return candidates, dict(zip(map(rows.__getitem__, missed), rendered))

    def _schema_changed(
        self, columns: list[str], column_types: dict[str, DataType]
    ) -> bool:
        if columns != self.schema.column_names:
            return True
        for name, dtype in column_types.items():
            if (
                self.schema.has_column(name)
                and self.schema.dtype_of(name) is not dtype
            ):
                return True
        return False

    def _pad_row(self, row: tuple) -> tuple:
        """Extend old-arity rows with NULLs after schema evolution."""
        width = len(self.schema.columns)
        if len(row) == width:
            return row
        if len(row) < width:
            return row + (None,) * (width - len(row))
        raise ValueError(
            f"row arity {len(row)} exceeds schema arity {width}"
        )

    def _full_width(self, rows: list[tuple]) -> bool:
        """Whether every row has exactly the schema's arity."""
        return set(map(len, rows)) <= {len(self.schema.columns)}

    def _check_primary_key(self, rows: list[tuple], full_width: bool) -> None:
        if not self.schema.primary_key:
            return
        positions = self.schema.key_positions()
        if full_width and len(set(map(itemgetter(*positions), rows))) == len(rows):
            return
        # Short rows key on the columns they have; a duplicate is found,
        # and named, one row at a time.
        seen: set[tuple] = set()
        for row in rows:
            key = tuple(row[i] for i in positions if i < len(row))
            if key in seen:
                raise PrimaryKeyViolationError(
                    f"duplicate primary key {key!r} in committed table"
                )
            seen.add(key)

    def _evolve_schema(
        self,
        rows: Iterable[tuple],
        columns: list[str],
        column_types: dict[str, DataType],
    ) -> list[tuple]:
        """Apply the single-pool schema-change mechanism of Section 4.3.

        New attributes are appended to the CVD schema (old versions read
        NULL for them); type conflicts widen via
        :func:`~repro.relational.types.generalize_types`; attribute
        deletions only affect version metadata — the column remains in
        the pool. Returns rows re-ordered to the evolved schema.
        """
        current = {c.name: c for c in self.schema.columns}
        for name in columns:
            incoming_type = column_types.get(name)
            if name in current:
                if (
                    incoming_type is not None
                    and incoming_type is not current[name].dtype
                ):
                    widened = generalize_types(current[name].dtype, incoming_type)
                    self.schema = self.schema.with_widened_column(name, widened)
                    self.attributes.intern(name, widened)
                    current[name] = ColumnDef(name, widened)
            else:
                if incoming_type is None:
                    raise ValueError(
                        f"type required for new column {name!r}"
                    )
                self.schema = self.schema.with_column(
                    ColumnDef(name, incoming_type)
                )
                self.attributes.intern(name, incoming_type)
                current[name] = ColumnDef(name, incoming_type)
        # ALTER the physical tables to match (Section 4.3); with
        # partitioning this touches each small partition, not one giant
        # CVD table.
        self.model.alter_schema(self.schema)
        # The tables now hold every record NULL-extended and coerced to
        # the evolved types; what the record store holds is stale.
        self._reset_records()
        # Re-order incoming rows into full-schema order.
        order = {name: i for i, name in enumerate(columns)}
        remapped: list[tuple] = []
        for row in rows:
            out = []
            for column in self.schema.columns:
                source = order.get(column.name)
                value = row[source] if source is not None else None
                if value is not None:
                    value = column.dtype.coerce(value)
                out.append(value)
            remapped.append(tuple(out))
        return remapped

    # ------------------------------------------------------------------
    # Checkout
    # ------------------------------------------------------------------
    def checkout(self, vids: int | Sequence[int]) -> CheckoutResult:
        """Materialize one or more versions.

        With several vids, records are merged in precedence order: a
        record whose primary key was already produced by an earlier
        version in the list is omitted (Section 3.3.1). Without a primary
        key, the rid itself deduplicates. One version's keys are unique
        (a commit checks them), so its columns are returned as the model
        built them.
        """
        if isinstance(vids, int):
            vids = (vids,)
        if not vids:
            raise ValueError("checkout requires at least one version id")
        started = telemetry.monotonic()
        with telemetry.span(
            "cvd.checkout", dataset=self.name, versions=len(vids)
        ) as checkout_span:
            versions = []
            for vid in vids:
                self.versions.get(vid)
                with telemetry.span(
                    "model.checkout", model=self.model.model_name, vid=vid
                ) as model_span:
                    versions.append(self.model.checkout_columns(vid))
                    if model_span is not None:
                        model_span.set_attr("rows", len(versions[-1][0]))
            if len(versions) == 1:
                ((rids, rows),) = versions
            else:
                rids, rows = self._precedence_merge(versions)
            scanned = sum(len(version_rids) for version_rids, _ in versions)
            telemetry.count("cvd.checkout.rows_materialized", len(rows))
            telemetry.count("cvd.checkout.rows_deduplicated", scanned - len(rows))
            if checkout_span is not None:
                checkout_span.set_attr("rows", len(rows))
        telemetry.observe(
            "cvd.checkout.latency_seconds", telemetry.monotonic() - started
        )
        return CheckoutResult(
            rows=rows,
            rids=rids,
            parents=tuple(vids),
            columns=self.schema.column_names,
        )

    def _precedence_merge(
        self, versions: Sequence[tuple[list[int], list[tuple]]]
    ) -> tuple[list[int], list[tuple]]:
        """Concatenate the versions' columns, keeping a row only if no
        earlier one had its primary key (its rid, without a key)."""
        key_positions = self.schema.key_positions()
        key_of = itemgetter(*key_positions) if key_positions else None
        seen: set = set()
        rids: list[int] = []
        rows: list[tuple] = []
        for version_rids, payloads in versions:
            keys = map(key_of, payloads) if key_of else version_rids
            for rid, payload, key in zip(version_rids, payloads, keys):
                if key not in seen:
                    seen.add(key)
                    rids.append(rid)
                    rows.append(payload)
        return rids, rows

    # ------------------------------------------------------------------
    # Versioned set operations (Section 3.3.2 functional primitives)
    # ------------------------------------------------------------------
    def diff(self, vid_a: int, vid_b: int) -> tuple[list[tuple], list[tuple]]:
        """Records in a but not b, and in b but not a (by rid), each in
        ascending rid order."""
        a = self.membership(vid_a)
        b = self.membership(vid_b)
        return (
            self.payloads_of(rids_without(a, set(b)), vid_a),
            self.payloads_of(rids_without(b, set(a)), vid_b),
        )

    def v_diff(
        self, first: int | Sequence[int], second: int | Sequence[int]
    ) -> list[tuple]:
        """Records present in any of ``first`` but none of ``second``."""
        excluded = set(self._union_membership(second))
        first_rids = self._union_membership(first)
        return self.payloads_of(rids_without(first_rids, excluded))

    def v_intersect(self, vids: Sequence[int]) -> list[tuple]:
        """Records present in *all* of ``vids``."""
        if not vids:
            return []
        common = self.membership(vids[0])
        for vid in vids[1:]:
            common = rids_within(common, set(self.membership(vid)))
        return self.payloads_of(common, vids[0])

    def _union_membership(self, vids: int | Sequence[int]) -> array:
        """The rids of any of ``vids``, ascending."""
        if isinstance(vids, int):
            return self.membership(vids)
        union = set().union(*map(self.membership, vids))
        return rid_array(sorted(union))

    # ------------------------------------------------------------------
    # EXPLAIN plan trees (repro.observe.explain)
    # ------------------------------------------------------------------
    def explain_checkout(self, vids: int | Sequence[int]):
        """The plan tree for ``checkout(vids)``: model dispatch per vid
        plus the primary-key precedence merge for multi-version cases."""
        from repro.observe.explain import ExplainNode

        if isinstance(vids, int):
            vids = (vids,)
        total_rows = 0
        for vid in vids:
            total_rows += self.versions.get(vid).record_count
        node = ExplainNode(
            op="cvd.checkout",
            detail={
                "dataset": self.name,
                "versions": list(vids),
                "model": self.model.model_name,
            },
            estimated_rows=total_rows,
            span_match=("cvd.checkout", {"dataset": self.name}),
        )
        for vid in vids:
            node.add(self.model.explain_checkout(vid))
        if len(vids) > 1:
            node.add(
                ExplainNode(
                    op="merge.precedence",
                    detail={
                        "key": list(self.schema.primary_key or ("rid",)),
                        "order": list(vids),
                    },
                    estimated_rows=total_rows,
                )
            )
        return node

    def explain_commit(self, rows: int, parents: Sequence[int] = ()):
        """The plan tree for committing ``rows`` rows against ``parents``."""
        from repro.observe.explain import ExplainNode, io_cost

        parent_sizes = {
            parent: self.versions.get(parent).record_count
            for parent in parents
            if parent in self.versions
        }
        parent_rows = sum(parent_sizes.values())
        node = ExplainNode(
            op="cvd.commit",
            detail={
                "dataset": self.name,
                "parents": list(parents),
                "model": self.model.model_name,
            },
            estimated_rows=rows,
            span_match=("cvd.commit", {"dataset": self.name}),
        )
        node.add(
            ExplainNode(
                op="parent.diff",
                detail={
                    "note": "no-cross-version-diff: compare against "
                    "parents only"
                },
                estimated_rows=parent_rows,
                estimated_cost=io_cost(seq_rows=parent_rows + rows),
            )
        )
        if self.schema.primary_key:
            node.add(
                ExplainNode(
                    op="pk.check",
                    detail={"key": list(self.schema.primary_key)},
                    estimated_rows=rows,
                    estimated_cost=io_cost(seq_rows=rows),
                )
            )
        node.add(self.model.explain_commit(rows, parent_sizes))
        return node

    def explain_diff(self, vid_a: int, vid_b: int):
        """The plan tree for ``diff(a, b)``: two membership fetches and
        two rid-set differences."""
        from repro.observe.explain import ExplainNode, io_cost

        size_a = self.versions.get(vid_a).record_count
        size_b = self.versions.get(vid_b).record_count
        node = ExplainNode(
            op="cvd.diff",
            detail={"dataset": self.name, "a": vid_a, "b": vid_b},
            estimated_rows=size_a + size_b,
            span_match=("command.diff", {"dataset": self.name}),
        )
        for vid, size in ((vid_a, size_a), (vid_b, size_b)):
            node.add(
                ExplainNode(
                    op="membership.fetch",
                    detail={"vid": vid},
                    estimated_rows=size,
                    estimated_cost=io_cost(random_rows=1),
                )
            )
        node.add(
            ExplainNode(
                op="rid_set.difference",
                detail={"directions": 2},
                estimated_rows=size_a + size_b,
                estimated_cost=io_cost(seq_rows=size_a + size_b),
            )
        )
        return node

    # ------------------------------------------------------------------
    # Bulk load from a generated history
    # ------------------------------------------------------------------
    @classmethod
    def from_history(
        cls,
        database: Database,
        history,
        name: str | None = None,
        model: str | DataModel = "split_by_rlist",
        schema: Schema | None = None,
    ) -> "CVD":
        """Replay a :class:`~repro.datasets.history.VersionedHistory`.

        The history's rids and vids are preserved so tests can compare
        CVD state against generator ground truth directly.
        """
        from repro.relational.types import INT

        if schema is None:
            columns = [
                ColumnDef(f"a{i}", INT)
                for i in range(history.num_attributes)
            ]
            schema = Schema(columns)
        cvd = cls(database, name or history.name, schema, model=model)
        for commit in history.commits:
            rids = rid_array(sorted(commit.rids))
            new_rids = set(commit.rids)
            for parent in commit.parents:
                new_rids -= history.records_of(parent)
            new_records = {
                rid: history.payloads[rid] for rid in new_rids
                if cvd._payloads.get(rid) is None
            }
            parent_membership = {
                p: cvd._membership[p] for p in commit.parents
            }
            cvd.model.commit_version(
                commit.vid,
                commit.parents,
                rids,
                new_records,
                parent_membership,
                history.payloads,
            )
            cvd._num_records += len(new_records)
            cvd._payloads.update(new_records)
            cvd._membership[commit.vid] = rids
            cvd.versions.register(
                VersionMetadata(
                    vid=commit.vid,
                    parents=commit.parents,
                    commit_time=telemetry.now(),
                    message=f"generated on branch {commit.branch}",
                    record_count=len(commit.rids),
                    attribute_ids=tuple(
                        cvd.attributes.intern(c.name, c.dtype)
                        for c in schema.columns
                    ),
                )
            )
            cvd._next_rid = max(cvd._next_rid, max(commit.rids, default=0) + 1)
        return cvd
