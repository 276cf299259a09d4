"""The OrpheusDB command facade: git-style version control over CVDs.

Implements the command set of Section 3.3.1 — ``init``, ``checkout``
(to a staged table or a CSV file), ``commit``, ``diff``, ``ls``, ``drop``,
``optimize``, plus user management (``create_user``, ``config``/login,
``whoami``). The flow per command matches Figure 3.1: the record manager
materializes rows into the staging area, the provenance manager logs the
derivation metadata, the access controller gates who may touch what, and
the version manager updates the metadata on commit.

Each command the CLI and orpheusd serve is one ``cmd_<name>`` method run
through :meth:`Orpheus.execute`: it takes the request parameters (what
orpheusd receives; the CLI builds the same dict from its arguments) and
the acting user, and returns the response dict orpheusd sends. Both
front ends render that dict with one renderer and journal it with one
rule (:func:`repro.observe.journal.op_fields`).
"""

from __future__ import annotations

import os
from typing import Sequence

from repro import telemetry
from repro.core.access import AccessController
from repro.core.cvd import CVD
from repro.core.errors import CVDError
from repro.core.csvio import read_csv, read_schema_file, write_csv, write_schema_file
from repro.core.staging import StagingArea
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.relational.table import Table


class Orpheus:
    """One OrpheusDB instance: a database plus CVDs, staging, and users."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database or Database()
        self.staging = StagingArea(self.database)
        self.access = AccessController()
        self._cvds: dict[str, CVD] = {}

    # ------------------------------------------------------------------
    # User management
    # ------------------------------------------------------------------
    def create_user(self, name: str, email: str = "") -> None:
        self.access.create_user(name, email)

    def config(self, user: str) -> None:
        """Log in as ``user`` (the ``config`` command)."""
        self.access.login(user)

    def whoami(self) -> str:
        return self.access.whoami()

    # ------------------------------------------------------------------
    # CVD lifecycle
    # ------------------------------------------------------------------
    def init(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[tuple] = (),
        model: str = "split_by_rlist",
        message: str = "initial version",
        author: str | None = None,
    ) -> int:
        """Initialize a new CVD from rows (or an empty relation).

        Returns the vid of the initial version (created only when rows
        are provided). ``author`` defaults to the logged-in user.
        """
        with telemetry.span("command.init", dataset=name, model=str(model)):
            if name in self._cvds:
                raise CVDError(f"CVD {name!r} already exists")
            cvd = CVD(self.database, name, schema, model=model)
            self._cvds[name] = cvd
            if rows:
                return cvd.commit(
                    rows,
                    parents=(),
                    message=message,
                    author=(
                        self.access.current_user or ""
                        if author is None
                        else author
                    ),
                )
            return 0

    def init_from_csv(
        self,
        name: str,
        csv_path: str,
        schema_path: str,
        model: str = "split_by_rlist",
        author: str | None = None,
    ) -> int:
        """``init -f file.csv -s schema``: register a CSV as a new CVD."""
        schema = read_schema_file(schema_path)
        rows = read_csv(csv_path, schema)
        return self.init(name, schema, rows, model=model, author=author)

    def init_from_table(
        self,
        name: str,
        table_name: str,
        model: str = "split_by_rlist",
        drop_source: bool = False,
    ) -> int:
        """``init -t table``: register an existing database table as a
        new CVD (the paper's other init path). The source table's schema
        and rows become version 1; optionally drop the source after."""
        table = self.database.table(table_name)
        vid = self.init(
            name,
            table.schema,
            table.rows_snapshot(),
            model=model,
            message=f"initialized from table {table_name!r}",
        )
        if drop_source:
            self.database.drop_table(table_name)
        return vid

    def cvd(self, name: str) -> CVD:
        try:
            return self._cvds[name]
        except KeyError:
            raise CVDError(f"no CVD named {name!r}") from None

    def ls(self) -> list[str]:
        """List all CVDs."""
        return sorted(self._cvds)

    def drop(self, name: str) -> None:
        cvd = self.cvd(name)
        cvd.model.drop()
        del self._cvds[name]

    # ------------------------------------------------------------------
    # checkout / commit
    # ------------------------------------------------------------------
    def checkout(
        self,
        cvd_name: str,
        vids: int | Sequence[int],
        table_name: str,
        merge_strategy: str = "precedence",
    ) -> Table:
        """``checkout [cvd] -v vids -t table``: materialize into a table.

        Args:
            merge_strategy: How multi-version conflicts resolve —
                ``precedence`` (the paper's default: first listed wins),
                ``latest`` (newest commit wins), or ``strict`` (raise on
                any conflict). For manual resolution use
                :func:`repro.core.merge.merge_manual` directly.
        """
        with telemetry.span(
            "command.checkout", dataset=cvd_name, strategy=merge_strategy
        ):
            return self._checkout(cvd_name, vids, table_name, merge_strategy)

    def _checkout(
        self,
        cvd_name: str,
        vids: int | Sequence[int],
        table_name: str,
        merge_strategy: str,
    ) -> Table:
        self.access.check_cvd_access(cvd_name)
        cvd = self.cvd(cvd_name)
        if merge_strategy == "precedence":
            result = cvd.checkout(vids)
            rows, parents = result.rows, result.parents
        else:
            from repro.core.merge import merge_latest, merge_strict

            if isinstance(vids, int):
                vids = (vids,)
            strategies = {"latest": merge_latest, "strict": merge_strict}
            try:
                merge = strategies[merge_strategy]
            except KeyError:
                raise CVDError(
                    f"unknown merge strategy {merge_strategy!r}; have "
                    f"precedence, latest, strict"
                ) from None
            rows, parents = merge(cvd, vids).rows, tuple(vids)
        table = self.staging.materialize(
            table_name,
            cvd.schema,
            rows,
            cvd_name,
            parents,
            owner=self.access.current_user or "",
        )
        telemetry.count("command.checkout.rows_materialized", len(rows))
        for parent in parents:
            cvd.versions.get(parent).checkout_time = telemetry.now()
        return table

    def commit(
        self,
        table_name: str,
        message: str = "",
    ) -> int:
        """``commit -t table -m message``: add the staged table as a new
        version of the CVD it was checked out from."""
        info = self.staging.metadata(table_name)
        with telemetry.span("command.commit", dataset=info.cvd_name) as current:
            user = self.access.current_user or ""
            table = self.staging.table(table_name, user=user or None)
            cvd = self.cvd(info.cvd_name)
            telemetry.count("command.commit.bytes_staged", table.storage_bytes())
            columns = table.schema.column_names
            column_types = {c.name: c.dtype for c in table.schema.columns}
            vid = cvd.commit(
                table.rows_snapshot(),
                parents=info.parents,
                message=message,
                author=user,
                columns=columns,
                column_types=column_types,
                checkout_time=info.checkout_time,
            )
            if current is not None:
                current.set_attr("vid", vid)
            self.staging.release(table_name)
            return vid

    # ------------------------------------------------------------------
    # run: version-aware SQL (Section 3.3.2)
    # ------------------------------------------------------------------
    def run(self, sql: str):
        """Execute a version-aware SELECT (``run`` command).

        Instrumented like ``checkout``/``commit``: the command span
        carries the result cardinality, and the CLI/daemon layers
        journal the invocation, so local and remote queries are
        uniformly observable.
        """
        from repro.core.sql import run_sql

        with telemetry.span("command.run") as current:
            result = run_sql(self._cvds, sql)
            telemetry.count("command.run.rows_returned", len(result.rows))
            if current is not None:
                current.set_attr("rows", len(result.rows))
            return result

    # ------------------------------------------------------------------
    # diff and optimize
    # ------------------------------------------------------------------
    def diff(self, cvd_name: str, vid_a: int, vid_b: int):
        """Records in one version but not the other, both directions."""
        with telemetry.span("command.diff", dataset=cvd_name, a=vid_a, b=vid_b):
            only_a, only_b = self.cvd(cvd_name).diff(vid_a, vid_b)
            telemetry.count("command.diff.rows_compared", len(only_a) + len(only_b))
            return only_a, only_b

    def optimize(self, cvd_name: str, storage_threshold_factor: float = 2.0):
        """Run the partition optimizer over a CVD (Chapter 5).

        Requires the CVD to use the partitioned split-by-rlist store; see
        :mod:`repro.partition.partitioned_store`. Returns the new
        partitioning.
        """
        from repro.partition.partitioned_store import PartitionedRlistStore

        with telemetry.span("command.optimize", dataset=cvd_name) as current:
            cvd = self.cvd(cvd_name)
            if not isinstance(cvd.model, PartitionedRlistStore):
                raise CVDError(
                    "optimize requires a CVD backed by PartitionedRlistStore"
                )
            partitioning = cvd.model.optimize(storage_threshold_factor)
            if current is not None:
                current.set_attr("partitions", partitioning.num_partitions)
            return partitioning

    # ------------------------------------------------------------------
    # The command set: one method per command, shared by the CLI and
    # orpheusd. Each takes the request parameters and the acting user
    # and returns the response dict orpheusd sends.
    # ------------------------------------------------------------------
    def execute(
        self,
        op: str,
        params: dict,
        user: str = "",
        root: str | None = None,
        read_csv=read_csv,
    ) -> dict:
        """Run command ``op``. ``root`` locates the operation journal
        ``log`` reads with ``ops``; ``read_csv`` parses the file a
        ``commit`` stores (the CLI passes its own name for it, which
        the e2e harness times)."""
        if op not in COMMANDS:
            raise ValueError(f"unknown command {op!r}")
        if op == "log":
            return self.cmd_log(params, user, root)
        if op == "commit":
            return self.cmd_commit(params, user, read_csv)
        return getattr(self, f"cmd_{op}")(params, user)

    def cmd_init(self, params: dict, user: str = "") -> dict:
        dataset = params.get("dataset")
        vid = self.init_from_csv(
            dataset,
            params.get("file"),
            params.get("schema"),
            model=params.get("model") or "split_by_rlist",
            author=user,
        )
        rows = self.cvd(dataset).versions.get(vid).record_count if vid else 0
        return {"dataset": dataset, "version": vid, "rows": rows}

    def cmd_checkout(self, params: dict, user: str = "", materialize=None) -> dict:
        """Materialize version(s); with ``file``, write them there as
        CSV (and the schema to ``schema``) and pin the file's parents
        for its commit. ``materialize(cvd, vids)`` returns anything with
        ``columns``/``rows``/``parents``/``rids`` — orpheusd's version
        cache, whose entries keep no rows (``rows`` is None, ``count``
        their number; a file's lines come from the CVD by rid) and no
        ``rids`` for one version (its ascending rids)."""
        dataset = params.get("dataset")
        vids = [int(v) for v in params.get("versions") or ()]
        if not dataset or not vids:
            raise ValueError("checkout requires 'dataset' and 'versions'")
        self.access.check_cvd_access(dataset, user=user or None)
        cvd = self.cvd(dataset)
        result = materialize(cvd, vids) if materialize else cvd.checkout(vids)
        rows = result.rows
        count = result.count if rows is None else len(rows)
        telemetry.count("command.checkout.rows_materialized", count)
        data = {
            "rows": count,
            "columns": list(result.columns),
            "parents": list(result.parents),
        }
        path = params.get("file")
        if path:
            rids = result.rids
            if rids is None:
                rids = cvd.membership(vids[0])
            write_csv(path, result.columns, cvd.lines_of(rids, rows))
            if params.get("schema"):
                write_schema_file(params["schema"], cvd.schema)
            self.staging.pin(path, dataset, result.parents, user)
            data["file"] = path
        return data

    def cmd_commit(self, params: dict, user: str = "", read_csv=read_csv) -> dict:
        """Commit a CSV file as a new version. Parents: the explicit
        ``parents``, else the checkout pin of the file, else none (a new
        root); the pin also supplies the version's checkout time. Under
        the CVD's own schema, a line a checkout rendered is taken for
        its record unparsed, and hands the commit that record's rid."""
        dataset, path = params.get("dataset"), params.get("file")
        if not dataset or not path:
            raise ValueError("commit requires 'dataset' and 'file'")
        cvd = self.cvd(dataset)
        schema = (
            read_schema_file(params["schema"])
            if params.get("schema")
            else cvd.schema
        )
        if schema.columns == cvd.schema.columns:
            rows, matched = read_csv(path, schema, *cvd.parsed_lines())
        else:
            rows, matched = read_csv(path, schema), None
        pin = self.staging.pinned(path)
        explicit = params.get("parents")
        if explicit is not None:
            parents = tuple(int(p) for p in explicit)
        else:
            parents = pin.parents if pin is not None else ()
        try:
            telemetry.count("command.commit.bytes_staged", os.path.getsize(path))
        except OSError:
            pass
        vid = cvd.commit(
            rows,
            parents=parents,
            message=params.get("message") or "",
            author=user,
            columns=schema.column_names,
            column_types={c.name: c.dtype for c in schema.columns},
            checkout_time=pin.checkout_time if pin is not None else None,
            matched=matched,
        )
        self.staging.unpin(path)
        return {
            "dataset": dataset,
            "version": vid,
            "rows": len(rows),
            "parents": list(parents),
        }

    def cmd_log(self, params: dict, user: str = "", root: str | None = None) -> dict:
        """The version graph of one CVD, or with ``ops`` the operation
        journal of the repository at ``root``."""
        if params.get("ops"):
            from repro.observe.journal import Journal

            return {"records": Journal(root).read()}
        dataset = params.get("dataset")
        if not dataset:
            raise ValueError("log requires 'dataset' (or ops=true)")
        cvd = self.cvd(dataset)
        versions = []
        for vid in cvd.versions.vids():
            metadata = cvd.versions.get(vid)
            versions.append(
                {
                    "vid": vid,
                    "parents": list(metadata.parents),
                    "children": list(metadata.children),
                    "records": metadata.record_count,
                    "author": metadata.author or "",
                    "message": metadata.message,
                    "commit_time": metadata.commit_time,
                    "checkout_time": metadata.checkout_time,
                }
            )
        return {"dataset": dataset, "versions": versions}

    def cmd_diff(self, params: dict, user: str = "") -> dict:
        """Record counts only in ``a`` / only in ``b``, with the first
        ``limit`` (default 20) records of each side."""
        vid_a, vid_b = int(params.get("a")), int(params.get("b"))
        only_a, only_b = self.diff(params.get("dataset"), vid_a, vid_b)
        limit = params.get("limit", 20)
        return {
            "a": vid_a,
            "b": vid_b,
            "only_a_count": len(only_a),
            "only_b_count": len(only_b),
            "only_a": [list(row) for row in only_a[:limit]],
            "only_b": [list(row) for row in only_b[:limit]],
        }

    def cmd_run(self, params: dict, user: str = "") -> dict:
        sql = params.get("sql")
        if not sql:
            raise ValueError("run requires 'sql'")
        result = self.run(sql)
        return {
            "columns": list(result.columns),
            "data": [list(row) for row in result.rows],
            "row_count": len(result.rows),
        }

    def cmd_ls(self, params: dict, user: str = "") -> dict:
        return {
            "datasets": [
                {
                    "dataset": name,
                    "versions": cvd.num_versions,
                    "records": cvd.num_records,
                    "model": type(cvd.model).__name__,
                }
                for name, cvd in sorted(self._cvds.items())
            ]
        }

    def cmd_drop(self, params: dict, user: str = "") -> dict:
        dataset = params.get("dataset")
        self.drop(dataset)
        return {"dataset": dataset, "dropped": True}

    def cmd_optimize(self, params: dict, user: str = "") -> dict:
        dataset = params.get("dataset")
        partitioning = self.optimize(dataset, params.get("gamma", 2.0))
        return {"dataset": dataset, "partitions": partitioning.num_partitions}

    def cmd_create_user(self, params: dict, user: str = "") -> dict:
        name = params.get("name")
        if not name:
            raise ValueError("create_user requires 'name'")
        self.create_user(name, params.get("email") or "")
        return {"user": name}

    def cmd_whoami(self, params: dict, user: str = "") -> dict:
        return {"user": user or "", "anonymous": not user}


#: The commands :meth:`Orpheus.execute` runs.
COMMANDS = frozenset(
    {
        "init", "checkout", "commit", "log", "diff", "run", "ls", "drop",
        "optimize", "create_user", "whoami",
    }
)
