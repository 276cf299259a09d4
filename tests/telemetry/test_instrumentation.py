"""End-to-end instrumentation: drive the real system with telemetry on
and assert the snapshot reflects what happened, then round-trip the same
story through the ``orpheus`` CLI (``stats --json``, ``--timings``)."""

from __future__ import annotations

import json
import re

import pytest

from repro import telemetry
from repro.cli import COMMAND_TABLE, main
from repro.core.commands import Orpheus
from repro.core.cvd import CVD
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT


@pytest.fixture
def orpheus():
    """An Orpheus stack over the partitioned store, so the full
    init → checkout → commit → optimize cycle is exercisable."""
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    schema = Schema(
        [ColumnDef("key", TEXT), ColumnDef("value", INT)],
        primary_key=("key",),
    )
    store = PartitionedRlistStore(
        orpheus.database, "data", schema, storage_threshold_factor=2.0
    )
    orpheus._cvds["data"] = CVD(
        orpheus.database, "data", schema, model=store
    )
    return orpheus


class TestLibraryFlow:
    def test_full_cycle_populates_the_snapshot(self, orpheus):
        telemetry.enable()
        cvd = orpheus.cvd("data")
        vid = cvd.commit(
            [(f"k{i}", i) for i in range(50)], message="init", author="alice"
        )
        for round_number in range(3):
            table = orpheus.checkout("data", vid, f"w{round_number}")
            table.insert((f"new{round_number}", 1000 + round_number))
            vid = orpheus.commit(f"w{round_number}", message="edit")
        orpheus.optimize("data", storage_threshold_factor=2.0)

        snap = telemetry.snapshot()
        # Command spans fired with the right multiplicities.
        assert snap.spans["command.checkout"]["count"] == 3
        assert snap.spans["command.commit"]["count"] == 3
        assert snap.spans["command.optimize"]["count"] == 1
        assert snap.spans["cvd.commit"]["count"] == 4  # init + 3 edits
        # Work volumes flowed into counters.
        assert snap.counters["command.checkout.rows_materialized"] >= 150
        assert snap.counters["command.commit.bytes_staged"] > 0
        assert snap.counters["cvd.commit.rows_in"] >= 200
        # Latency histograms carry every observation.
        assert snap.histograms["cvd.checkout.latency_seconds"]["count"] == 3
        assert snap.histograms["cvd.commit.latency_seconds"]["count"] == 4
        # The optimizer left its trail.
        assert snap.spans["partition.optimize"]["count"] == 1
        assert "lyresplit.run" in snap.spans

    def test_disabled_flow_records_nothing(self, orpheus):
        telemetry.disable()
        cvd = orpheus.cvd("data")
        vid = cvd.commit([(f"k{i}", i) for i in range(10)])
        orpheus.checkout("data", vid, "w")
        assert telemetry.snapshot().is_empty()


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.csv").write_text(
        "key,value\n" + "".join(f"k{i},{i}\n" for i in range(20))
    )
    (tmp_path / "schema.csv").write_text(
        "key,text\nvalue,integer\nprimary_key,key\n"
    )
    return tmp_path


def run(workspace, *args) -> int:
    return main(["--root", str(workspace), *args])


class TestCliStats:
    def _drive(self, workspace):
        assert run(
            workspace,
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        work = workspace / "work.csv"
        assert run(
            workspace, "checkout", "-d", "d", "-v", "1", "-f", str(work)
        ) == 0
        with open(work, "a", newline="") as handle:
            handle.write("k99,99\r\n")
        assert run(
            workspace, "commit", "-d", "d", "-f", str(work), "-m", "edit"
        ) == 0

    def test_stats_json_reflects_the_session(self, workspace, capsys):
        self._drive(workspace)
        capsys.readouterr()
        assert run(workspace, "stats", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        # One span per journaled command, mined from the ops journal;
        # the spans inside a command are --timings' view, not stats'.
        assert {name: s["count"] for name, s in data["spans"].items()} == {
            "cli.init": 1, "cli.checkout": 1, "cli.commit": 1,
        }
        assert data["spans"]["cli.commit"]["seconds"]["count"] == 1
        # The summed scan stamps: the checkout read 20 rows, the commit
        # wrote its new row.
        assert data["counters"]["io.rows_scanned"] >= 20
        assert data["counters"]["io.rows_written"] >= 1

    def test_stats_accumulates_across_invocations(self, workspace, capsys):
        self._drive(workspace)
        assert run(workspace, "log", "-d", "d") == 0
        assert run(workspace, "diff", "-d", "d", "-a", "1", "-b", "2") == 0
        capsys.readouterr()
        assert run(workspace, "stats", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spans"]["cli.diff"]["count"] == 1
        # `log` journals nothing, so stats does not see it.
        assert "cli.log" not in data["spans"]
        # Four successful journaled invocations in one history.
        assert sum(
            s["count"] for n, s in data["spans"].items()
            if n.startswith("cli.")
        ) == 4

    def test_stats_prometheus_and_reset(self, workspace, capsys):
        assert run(workspace, "stats") == 0
        assert "no telemetry recorded" in capsys.readouterr().out
        self._drive(workspace)
        capsys.readouterr()
        assert run(workspace, "stats", "--prometheus") == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_span_cli_init_seconds summary" in text
        # There is nothing to reset: the history is the journal.
        with pytest.raises(SystemExit):
            run(workspace, "stats", "--reset")

    def test_timings_prints_the_span_tree(self, workspace, capsys):
        assert run(
            workspace,
            "--timings",
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        err = capsys.readouterr().err
        assert "cli.init" in err
        assert "command.init" in err
        assert "cvd.commit" in err
        # ... and, under it, the invocation's non-zero counters.
        assert "\ncounters\n" in err
        assert "resilience.lock.acquired" in err

    def test_failed_command_is_folded_and_tagged(self, workspace, capsys):
        out = str(workspace / "out.csv")
        assert run(workspace, "checkout", "-d", "missing", "-v", "1", "-f", out) == 1
        capsys.readouterr()
        assert run(workspace, "stats", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        # The failure is recorded, counted, and typed ...
        assert data["counters"]["commands.failed"] == 1
        assert data["counters"]["commands.failed.CVDError"] == 1
        span = data["spans"]["cli.checkout"]
        assert span["count"] == 1
        assert span["errors"] == 1
        # ... while the success-latency histogram stays clean: the failed
        # duration lands in failed_seconds instead.
        assert span["seconds"]["count"] == 0
        assert span["failed_seconds"]["count"] == 1

    def test_cli_restores_disabled_state(self, workspace):
        telemetry.disable()
        self._drive(workspace)
        assert not telemetry.is_enabled()


#: One command line per local command that runs over the repository
#: (``serve``, ``remote`` and ``top`` talk to a daemon), after ``_seed``.
TIMED = {
    "init": ["init", "-d", "e", "-f", "{data}", "-s", "{schema}"],
    "checkout": ["checkout", "-d", "d", "-v", "1", "-f", "{out}"],
    "commit": ["commit", "-d", "d", "-f", "{work}", "-m", "edit"],
    "log": ["log", "-d", "d"],
    "diff": ["diff", "-d", "d", "-a", "1", "-b", "1"],
    "ls": ["ls"],
    "run": ["run", "SELECT key FROM VERSION 1 OF CVD d"],
    "drop": ["drop", "-d", "d"],
    "optimize": ["optimize", "-d", "d"],
    "create_user": ["create_user", "bob"],
    "config": ["config", "alice"],
    "whoami": ["whoami"],
    "doctor": ["doctor"],
    "recover": ["recover", "--dry-run"],
    "migrate-state": ["migrate-state", "--dry-run"],
    "stats": ["stats"],
    "heat": ["heat"],
}

#: Commands that only read: ``--timings`` must not make them write.
READERS = {"ls", "log", "doctor", "stats", "heat"}


def _seed(workspace) -> dict:
    """A partitioned dataset ``d`` with v1 checked out to ``work.csv``
    and edited; returns the paths ``TIMED`` names."""
    paths = {
        "data": str(workspace / "data.csv"),
        "schema": str(workspace / "schema.csv"),
        "work": str(workspace / "work.csv"),
        "out": str(workspace / "out.csv"),
    }
    assert run(workspace, "create_user", "alice") == 0
    assert run(workspace, "config", "alice") == 0
    assert run(
        workspace, "init", "-d", "d", "-f", paths["data"],
        "-s", paths["schema"], "--model", "partitioned_rlist",
    ) == 0
    assert run(workspace, "checkout", "-d", "d", "-v", "1", "-f", paths["work"]) == 0
    with open(paths["work"], "a", newline="") as handle:
        handle.write("k99,99\r\n")
    return paths


def _files(root) -> dict:
    return {
        path.relative_to(root).as_posix(): path.stat().st_mtime_ns
        for path in sorted((root / ".orpheus").rglob("*"))
        if path.is_file() and path.name != "repo.lock"
    }


@pytest.mark.parametrize(
    "command",
    [
        name for name, entry in COMMAND_TABLE.items()
        if entry.local and name not in ("serve", "remote", "top")
    ],
)
def test_timings_prints_a_tree_rooted_at_the_command(workspace, capsys, command):
    paths = _seed(workspace)
    before = _files(workspace)
    capsys.readouterr()
    argv = [token.format(**paths) for token in TIMED[command]]
    run(workspace, "--timings", *argv)
    err = capsys.readouterr().err
    assert re.search(rf"^cli\.{re.escape(command)}  \d+\.\d{{6}}s", err, re.M), err
    assert "\ncounters\n" in err
    if command in READERS:
        assert _files(workspace) == before
