"""The common interface all physical data models implement.

Responsibility split: the CVD layer owns rid assignment (applying the
no-cross-version-diff rule of Section 3.3.1), the version graph, and
primary-key precedence during multi-version checkout. A data model only
answers *where bytes live*: given a version's full rid membership and the
payloads of records that are new to the CVD, persist them; given a vid,
produce that version's rids and payloads.
"""

from __future__ import annotations

import abc
from array import array
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from repro.relational.arrays import ascending, rid_array
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.table import Row, Table
from repro.relational.types import INT, INT_ARRAY

class DataModel(abc.ABC):
    """Abstract physical design for storing a CVD's versions."""

    #: Registry name, e.g. ``split_by_rlist``.
    model_name: str = ""

    #: Never saved: the tables are the one stored copy of version -> rids
    #: and rid -> payload. A model that keeps payloads (the partitioned
    #: store) keeps them as a per-process memo over its tables; states
    #: written while these were stored shed them at their next save.
    _UNSAVED = frozenset({"_payloads", "_membership", "rids_memo"})

    #: The CVD's memo of version -> rids, lent by the CVD (None: a model
    #: used on its own). A model storing rid lists as deltas rebuilds
    #: versions into it; it holds no memo of its own.
    rids_memo: dict[int, array] | None = None

    def __init__(
        self, database: Database, cvd_name: str, data_schema: Schema
    ) -> None:
        """Args:
        database: Backend database the model creates its tables in.
        cvd_name: Name prefix for the model's physical tables.
        data_schema: Logical schema of the relation (data attributes
            only, with the relation primary key; no rid/vlist).
        """
        self.database = database
        self.cvd_name = cvd_name
        self.data_schema = data_schema

    def __getstate__(self) -> dict:
        return {
            name: value
            for name, value in self.__dict__.items()
            if name not in self._UNSAVED
        }

    @property
    def _arity(self) -> int:
        return len(self.data_schema.columns)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def commit_version(
        self,
        vid: int,
        parents: Sequence[int],
        membership: array,
        new_records: Mapping[int, tuple],
        parent_membership: Mapping[int, array],
        records: Mapping[int, tuple],
    ) -> None:
        """Persist version ``vid``.

        Args:
            vid: The new version id.
            parents: Parent version ids (empty for the root).
            membership: All rids contained in the version, as the
                ascending rid array the CVD memoizes: a model may store
                it as it is, and never modifies it.
            new_records: rid -> payload for rids never stored before.
            parent_membership: rid array of each parent version —
                supplied so delta-style models can compute differences
                without asking the CVD back.
            records: rid -> payload for (at least) every rid of the
                version, so a model that writes reused records again
                needs no payload map of its own.
        """

    @abc.abstractmethod
    def checkout_columns(self, vid: int) -> tuple[list[int], list[tuple]]:
        """Version ``vid`` as two parallel lists: its rids in ascending
        order, and each rid's payload (the tuple of data-attribute
        values), both built from the access path's rows with no pair
        per row. The lists are the caller's own."""

    def _columns_of(
        self, rows: Sequence[Row], offset: int = 1
    ) -> tuple[list[int], list[tuple]]:
        """Checkout columns of table ``rows`` whose rid is column 0 and
        whose data attributes start at ``offset``. A heap holds its rows
        in insertion order, which a reused partition or a re-inserted
        row takes out of rid order; only then are they sorted."""
        rids = list(map(itemgetter(0), rows))
        if not ascending(rids):
            rows = sorted(rows, key=itemgetter(0))
            rids.sort()
        payload = itemgetter(slice(offset, offset + self._arity))
        return rids, list(map(payload, rows))

    def rids_of(self, vid: int) -> array:
        """The rids of version ``vid`` as an ascending rid array, read
        from the tables. Models that store rid lists override this with
        something cheaper than a checkout."""
        return rid_array(self.checkout_columns(vid)[0])

    def payloads_of(
        self, rids: Iterable[int], vid: int | None = None
    ) -> dict[int, tuple]:
        """rid -> payload for those of ``rids`` the tables hold, by
        keyed lookup. ``vid`` names a version known to contain them,
        for models that can go straight to the table that serves it."""
        return self._lookup_payloads(self._record_tables(vid), rids)

    @abc.abstractmethod
    def stored_versions(self) -> set[int]:
        """The vids the tables can serve (read without charging I/O:
        this is the doctor's cross-check against the version graph)."""

    def _record_tables(self, vid: int | None = None) -> Iterable[Table]:
        """The rid-keyed tables that embed the data attributes."""
        for name in self.table_names():
            table = self.database.table(name)
            if table.schema.has_column("rid") and all(
                table.schema.has_column(c.name)
                for c in self.data_schema.columns
            ):
                yield table

    def _lookup_payloads(
        self,
        tables: Iterable[Table],
        rids: Iterable[int],
        is_record: Callable[[Row], object] | None = None,
    ) -> dict[int, tuple]:
        """Probe ``tables`` in turn for the rids still missing. The data
        attributes are the trailing columns of every record table."""
        width = len(self.data_schema.columns)
        found: dict[int, tuple] = {}
        missing = list(rids)
        for table in tables:
            if found:
                missing = [rid for rid in missing if rid not in found]
            if not missing:
                break
            for row in table.lookup_many("rid", missing):
                if is_record is None or is_record(row):
                    found[row[0]] = row[len(row) - width :]
        return found

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Approximate bytes used, including indexes."""

    def drop(self) -> None:
        """Drop all physical tables owned by this model."""
        for name in self.table_names():
            self.database.drop_table(name, missing_ok=True)

    @abc.abstractmethod
    def table_names(self) -> list[str]:
        """Physical table names owned by this model."""

    # ------------------------------------------------------------------
    # EXPLAIN contributions (repro.observe.explain)
    # ------------------------------------------------------------------
    def explain_checkout(self, vid: int):
        """The plan subtree describing how this model materializes
        ``vid``. The default is a bare dispatch node; every concrete
        model overrides with its physical access path."""
        from repro.observe.explain import ExplainNode

        return ExplainNode(
            op=f"model.{self.model_name}.checkout",
            detail={"vid": vid},
            span_match=("model.checkout", {"vid": vid}),
        )

    def explain_commit(
        self, estimated_rows: int, parent_sizes: Mapping[int, int]
    ):
        """The plan subtree for persisting a new version of
        ``estimated_rows`` rows whose parents hold ``parent_sizes``
        records each."""
        from repro.observe.explain import ExplainNode, io_cost

        return ExplainNode(
            op=f"model.{self.model_name}.commit",
            detail={"parents": sorted(parent_sizes)},
            estimated_rows=estimated_rows,
            estimated_cost=io_cost(seq_rows=estimated_rows),
            span_match=("model.commit", {}),
        )

    def alter_schema(self, new_schema: Schema) -> None:
        """Propagate a CVD schema change to the physical tables.

        The default implementation ALTERs every table that embeds the
        data attributes: new columns are appended (NULL for old rows) and
        widened columns are coerced. Partitioned models inherit this and
        only pay the ALTER on each (smaller) partition, which is the
        mitigation Section 4.3 mentions.
        """
        old_names = {c.name for c in self.data_schema.columns}
        for table in list(self._record_tables()):
            for column in new_schema.columns:
                if column.name not in old_names:
                    table.add_column(column)
                elif (
                    table.schema.has_column(column.name)
                    and table.schema.dtype_of(column.name) is not column.dtype
                ):
                    table.widen_column(column.name, column.dtype)
        self.data_schema = new_schema

    # ------------------------------------------------------------------
    # Shared schema builders
    # ------------------------------------------------------------------
    def _rid_data_schema(self) -> Schema:
        """rid + data attributes, keyed on rid (records are immutable, so
        the relation PK cannot be the physical key across versions)."""
        return Schema(
            [ColumnDef("rid", INT)] + list(self.data_schema.columns),
            primary_key=("rid",),
        )

    def _rid_vlist_schema(self) -> Schema:
        return Schema(
            [ColumnDef("rid", INT), ColumnDef("vlist", INT_ARRAY)],
            primary_key=("rid",),
        )

    def _vid_rlist_schema(self) -> Schema:
        return Schema(
            [ColumnDef("vid", INT), ColumnDef("rlist", INT_ARRAY)],
            primary_key=("vid",),
        )

    def _combined_schema(self) -> Schema:
        # vlist precedes the data attributes so ALTER TABLE ADD COLUMN
        # (which appends) keeps the data attributes contiguous at the end.
        return Schema(
            [ColumnDef("rid", INT), ColumnDef("vlist", INT_ARRAY)]
            + list(self.data_schema.columns),
            primary_key=("rid",),
        )
