"""The temporary staging area of materialized tables.

A checkout materializes a version into a regular table the user can edit
with ordinary SQL (or export to CSV); OrpheusDB remembers which versions
the table was derived from so a later commit knows its parents. Only the
user who performed the checkout may touch the staged table — that is the
access-controller rule from Section 3.3.1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro import telemetry
from repro.core.errors import StagingError
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.relational.table import Table


@dataclass
class StagedTable:
    """Provenance-manager metadata for one uncommitted table.

    This is the "provenance manager" module of the OrpheusDB architecture
    (Figure 3.1): it tracks the parent version(s) and creation time of
    every staged (not yet committed) table or file.
    """

    table_name: str
    cvd_name: str
    parents: tuple[int, ...]
    owner: str
    #: Stamped by the injectable telemetry clock so tests can freeze it
    #: and so it never runs ahead of a later commit_time.
    checkout_time: float = field(default_factory=telemetry.now)


class StagingArea:
    """Materialized working tables plus their derivation metadata."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._staged: dict[str, StagedTable] = {}

    def materialize(
        self,
        table_name: str,
        schema: Schema,
        rows: list[tuple],
        cvd_name: str,
        parents: tuple[int, ...],
        owner: str,
    ) -> Table:
        """Create a staged table holding a checkout's rows."""
        if table_name in self._staged or self.database.has_table(table_name):
            raise StagingError(f"table {table_name!r} already exists")
        table = self.database.create_table(table_name, schema)
        try:
            table.insert_many(rows)
        except BaseException:
            # A refused row must not leave an orphaned table the staging
            # area does not track.
            self.database.drop_table(table_name, missing_ok=True)
            raise
        telemetry.count("staging.rows_materialized", len(rows))
        self._staged[table_name] = StagedTable(
            table_name=table_name,
            cvd_name=cvd_name,
            parents=parents,
            owner=owner,
        )
        return table

    def metadata(self, table_name: str) -> StagedTable:
        try:
            return self._staged[table_name]
        except KeyError:
            raise StagingError(
                f"table {table_name!r} is not a staged checkout"
            ) from None

    def table(self, table_name: str, user: str | None = None) -> Table:
        info = self.metadata(table_name)
        if user is not None and info.owner != user:
            raise StagingError(
                f"table {table_name!r} belongs to {info.owner!r}, "
                f"not {user!r}"
            )
        return self.database.table(table_name)

    def release(self, table_name: str) -> None:
        """Drop the staged table after a successful commit."""
        self.metadata(table_name)
        self.database.drop_table(table_name, missing_ok=True)
        del self._staged[table_name]

    def pin(
        self, path: str, cvd_name: str, parents: tuple[int, ...], owner: str
    ) -> None:
        """Remember that a checkout wrote the file ``path`` from
        ``parents``: the provenance a later commit of that file uses.
        The pin is keyed by the absolute path, so a process in another
        directory (recovery, the doctor, orpheusd) tests the file that
        was actually written."""
        key = os.path.abspath(path)
        self._staged[key] = StagedTable(
            table_name=key, cvd_name=cvd_name, parents=tuple(parents), owner=owner
        )

    def pinned(self, path: str) -> StagedTable | None:
        # A pin written before pins were absolute is keyed as typed.
        return self._staged.get(os.path.abspath(path)) or self._staged.get(path)

    def unpin(self, path: str) -> None:
        self._staged.pop(os.path.abspath(path), None)
        self._staged.pop(path, None)

    def vanished(self) -> list[str]:
        """Checkouts pinned to a file that no longer exists on disk. A
        pin keyed by a relative path names no directory, so it is never
        reported: its file may exist where the checkout ran."""
        return [
            name
            for name in self._staged
            if os.path.isabs(name) and not os.path.exists(name)
        ]

    def staged_names(self) -> list[str]:
        return sorted(self._staged)
