"""Torn-operation recovery: rollback, forward-reconciliation, dry runs,
and the journal's ``begin`` lines that drive it all."""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.cli import load_state
from repro.core.staging import StagedTable
from repro.observe.journal import Journal, close_line
from repro.resilience.lock import RepositoryLock
from repro.resilience.recovery import LEGACY_INTENTS, needs_recovery, run_recovery
from repro.resilience.statestore import StateStore

from tests.resilience.conftest import run_cli, run_inproc


def ops_path(root):
    return root / ".orpheus" / "journal" / "ops.jsonl"


def pending_traces(root):
    return [r["trace_id"] for r in Journal(root).pending()]


def build_repo(workspace):
    rc = run_inproc(
        workspace,
        "init",
        "-d", "ds",
        "-f", str(workspace / "data.csv"),
        "-s", str(workspace / "schema.csv"),
    )
    assert rc == 0


def drop_last_line(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines[:-1]))
    return lines[-1]


def commit_new_version(workspace, name="co.csv"):
    target = workspace / name
    assert run_inproc(
        workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target)
    ) == 0
    with open(target, "a") as handle:
        handle.write("k9,9\n")
    assert run_inproc(
        workspace, "commit", "-d", "ds", "-f", str(target)
    ) == 0


class TestNothingToDo:
    def test_clean_repo(self, workspace):
        build_repo(workspace)
        report = run_recovery(workspace)
        assert report.clean
        assert report.actions == []
        assert "nothing to recover" in report.render_text()

    def test_uninitialized_directory(self, tmp_path):
        report = run_recovery(tmp_path)
        assert report.clean and report.actions == []


class TestStrayTemps:
    #: One interrupted-write temp per file that is replaced atomically.
    TARGETS = (
        "state.pkl",
        "telemetry.json",
        "service.json",
        "pages/0123abcd.pg",
    )

    def plant(self, workspace):
        temps = []
        for target in self.TARGETS:
            temp = workspace / ".orpheus" / (target + ".k3x9.tmp")
            temp.parent.mkdir(parents=True, exist_ok=True)
            temp.write_bytes(b"partial")
            temps.append(temp)
        return temps

    def test_dry_run_lists_every_temp_and_removes_none(self, workspace):
        build_repo(workspace)
        temps = self.plant(workspace)
        report = run_recovery(workspace, dry_run=True)
        cleaned = [a.detail for a in report.actions if a.kind == "clean-temp"]
        assert len(cleaned) == len(temps)
        for target in self.TARGETS:
            assert any(f"{target}.k3x9.tmp" in d for d in cleaned), target
        assert all(temp.exists() for temp in temps)

    def test_real_run_removes_every_temp(self, workspace):
        build_repo(workspace)
        temps = self.plant(workspace)
        report = run_recovery(workspace)
        assert report.clean
        assert not any(temp.exists() for temp in temps)
        assert run_recovery(workspace).actions == []


class TestGarbageBytes:
    """A non-UTF-8 byte in either log must not brick the repository: the
    pending check reads the journal's tail before *every* command, and
    the first one upgrades a legacy intent log."""

    def test_commands_survive_garbage_in_both_logs(self, workspace):
        build_repo(workspace)
        ops_before = Journal(workspace).read()
        assert ops_before
        legacy = workspace / ".orpheus" / "journal" / LEGACY_INTENTS
        legacy.write_text(
            '{"phase": "begin", "trace_id": "t-opt", "command": "optimize"}\n'
        )
        for path in (ops_path(workspace), legacy):
            with open(path, "ab") as handle:
                handle.write(b"\xff\xfe")

        assert Journal(workspace).read() == ops_before
        assert run_inproc(workspace, "ls") == 0
        assert not legacy.exists() and not needs_recovery(workspace)
        commit_new_version(workspace)
        assert run_inproc(workspace, "recover") == 0
        assert run_recovery(workspace).clean
        # ...and what is appended after the garbage is not glued to it.
        assert Journal(workspace).read()[-1]["command"] == "commit"
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0


class TestSynthesizeCommit:
    """Crash window: state saved, journal append never landed."""

    def simulate(self, workspace):
        build_repo(workspace)
        commit_new_version(workspace)
        # Un-land the post-state effect: the op record that closes the
        # commit's `begin`.
        dropped_op = json.loads(drop_last_line(ops_path(workspace)))
        assert dropped_op["command"] == "commit"
        assert "phase" not in dropped_op
        return dropped_op

    def test_dry_run_plans_without_mutating(self, workspace):
        self.simulate(workspace)
        ops_before = ops_path(workspace).read_text()
        report = run_recovery(workspace, dry_run=True)
        assert any(a.kind == "synthesize-journal" for a in report.actions)
        assert "would synthesize-journal" in report.render_text()
        assert ops_path(workspace).read_text() == ops_before
        assert needs_recovery(workspace)  # the begin is still open

    def test_real_run_reconciles_forward(self, workspace):
        dropped = self.simulate(workspace)
        telemetry.enable()  # after simulate: each CLI run resets telemetry
        report = run_recovery(workspace)
        registry = telemetry.get_registry()
        assert registry.counter_value("resilience.recover.torn_ops") == 1
        assert (
            registry.counter_value(
                "resilience.recover.journal_records_synthesized"
            )
            == 1
        )
        assert report.clean, report.problems
        synthesized = [
            json.loads(line)
            for line in ops_path(workspace).read_text().splitlines()
        ][-1]
        assert synthesized["command"] == "commit"
        assert synthesized["output_version"] == dropped["output_version"]
        assert synthesized["recovered"] is True
        assert not needs_recovery(workspace)
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0


class TestCheckoutRollback:
    """Crash window: checkout wrote the CSV but died before the state
    save — the artifact must be rolled back."""

    def test_torn_artifact_removed(self, workspace):
        build_repo(workspace)
        target = workspace / "torn.csv"
        Journal(workspace).begin(
            "t-torn", "checkout", dataset="ds", file=str(target)
        )
        target.write_text("key,value\nk1,1\n")  # written after the begin
        report = run_recovery(workspace)
        assert report.clean
        assert any(a.kind == "rollback-artifact" for a in report.actions)
        assert not target.exists()
        assert not needs_recovery(workspace)

    def test_preexisting_file_survives(self, workspace):
        """The mtime guard: a file older than the ``begin`` was not
        written by the torn operation and must not be deleted."""
        build_repo(workspace)
        target = workspace / "precious.csv"
        target.write_text("user data, not ours\n")
        old = os.stat(target).st_mtime - 60
        os.utime(target, (old, old))
        Journal(workspace).begin(
            "t-precious", "checkout", dataset="ds", file=str(target)
        )
        report = run_recovery(workspace)
        assert report.clean
        assert not any(a.kind == "rollback-artifact" for a in report.actions)
        assert target.exists()

    def test_staged_checkout_synthesizes_record(self, workspace):
        """Crash window: state saved (file staged) but journal append
        lost — reconcile forward instead of rolling back."""
        build_repo(workspace)
        target = workspace / "co.csv"
        assert run_inproc(
            workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target)
        ) == 0
        drop_last_line(ops_path(workspace))  # lose the checkout op record
        report = run_recovery(workspace)
        assert report.clean
        assert any(a.kind == "synthesize-journal" for a in report.actions)
        last = json.loads(ops_path(workspace).read_text().splitlines()[-1])
        assert last["command"] == "checkout"
        assert last["recovered"] is True
        assert target.exists()  # forward reconciliation keeps the file


class TestDropReconciliation:
    def test_unjournaled_drop_synthesized(self, workspace):
        build_repo(workspace)
        assert run_inproc(workspace, "drop", "-d", "ds") == 0
        drop_last_line(ops_path(workspace))
        report = run_recovery(workspace)
        assert report.clean
        last = json.loads(ops_path(workspace).read_text().splitlines()[-1])
        assert last["command"] == "drop"
        assert last["recovered"] is True
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0


class TestRelativeCheckouts:
    """A checkout pin is keyed by the file's absolute path, so recovery
    run from another directory tests the file that was written."""

    def checkout_relative(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace)
        assert run_inproc(
            workspace, "checkout", "-d", "ds", "-v", "1", "-f", "rel.csv"
        ) == 0
        elsewhere = workspace / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)

    def commit_relative(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace)
        with open("rel.csv", "a") as handle:
            handle.write("k9,9\n")
        assert run_inproc(workspace, "commit", "-d", "ds", "-f", "rel.csv") == 0
        return load_state(str(workspace)).cvd("ds").versions.get(2).parents

    def test_recover_elsewhere_keeps_the_pin(self, workspace, monkeypatch):
        build_repo(workspace)
        self.checkout_relative(workspace, monkeypatch)
        report = run_recovery(workspace)
        assert not any(a.kind == "release-staging" for a in report.actions)
        assert self.commit_relative(workspace, monkeypatch) == (1,)

    def test_auto_recover_elsewhere_keeps_the_pin(self, workspace, monkeypatch):
        build_repo(workspace)
        self.checkout_relative(workspace, monkeypatch)
        Journal(workspace).begin("t-opt", "optimize", dataset="ds")
        assert run_inproc(workspace, "ls") == 0  # auto-recovers first
        assert not needs_recovery(workspace)
        assert self.commit_relative(workspace, monkeypatch) == (1,)

    def test_recover_elsewhere_releases_a_gone_file(self, workspace, monkeypatch):
        build_repo(workspace)
        self.checkout_relative(workspace, monkeypatch)
        (workspace / "rel.csv").unlink()
        report = run_recovery(workspace)
        released = [a for a in report.actions if a.kind == "release-staging"]
        assert [a.detail for a in released] == [
            f"{workspace / 'rel.csv'} no longer exists"
        ]
        assert load_state(str(workspace)).staging.pinned(
            str(workspace / "rel.csv")
        ) is None

    def test_torn_checkout_reconciles_from_elsewhere(
        self, workspace, monkeypatch
    ):
        build_repo(workspace)
        self.checkout_relative(workspace, monkeypatch)
        drop_last_line(ops_path(workspace))
        report = run_recovery(workspace)
        assert any(a.kind == "synthesize-journal" for a in report.actions)
        assert (workspace / "rel.csv").exists()

    def test_a_pin_keyed_as_typed_is_found_and_never_released(
        self, workspace, monkeypatch
    ):
        """A pin written before pins were absolute names no directory."""
        build_repo(workspace)
        orpheus = load_state(str(workspace))
        orpheus.staging._staged["old.csv"] = StagedTable(
            table_name="old.csv", cvd_name="ds", parents=(1,), owner=""
        )
        StateStore(workspace).save(orpheus)
        monkeypatch.chdir(workspace)
        report = run_recovery(workspace)
        assert not any(a.kind == "release-staging" for a in report.actions)
        assert load_state(str(workspace)).staging.pinned("old.csv").parents == (1,)


class TestResolveOnly:
    def test_already_journaled_intent_closed(self, workspace):
        """A command's op record closes its ``begin``: nothing is left
        for recovery to resolve."""
        build_repo(workspace)
        commit_new_version(workspace)
        lines = Journal(workspace).read()
        assert lines[-1]["command"] == "commit"
        assert not needs_recovery(workspace)
        report = run_recovery(workspace)
        assert report.clean and report.actions == []
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0

    def test_optimize_intent_resolves(self, workspace):
        build_repo(workspace)
        Journal(workspace).begin("t-opt", "optimize", dataset="ds")
        report = run_recovery(workspace)
        assert report.clean
        assert not needs_recovery(workspace)
        # No op record: a `done` line closes the rolled-back begin.
        closing = json.loads(ops_path(workspace).read_text().splitlines()[-1])
        assert closing["phase"] == "done"
        assert closing["trace_id"] == "t-opt"
        assert closing["status"] == "recovered"


class TestIntentLog:
    """The journal's ``begin`` lines are the intent log."""

    def test_pending_pairs(self, tmp_path):
        log = Journal(tmp_path)
        log.begin("t1", "commit", dataset="ds")
        log.begin("t2", "checkout", dataset="ds", file="f.csv")
        log.append({"trace_id": "t1", "command": "commit", "status": "ok"})
        assert pending_traces(tmp_path) == ["t2"]
        assert needs_recovery(tmp_path)
        log.append(close_line("t2", "error"))
        assert not needs_recovery(tmp_path)
        # Op records are the journal; begin and done lines are not.
        assert [r["trace_id"] for r in log.read()] == ["t1"]

    def test_none_details_dropped(self, tmp_path):
        log = Journal(tmp_path)
        log.begin("t1", "commit", dataset="ds", file=None)
        assert "file" not in log.pending()[0]

    def test_torn_tail_line_skipped(self, tmp_path):
        log = Journal(tmp_path)
        log.begin("t1", "commit")
        with open(log.path, "a") as handle:
            handle.write('{"status": "ok", "trace')  # torn mid-write
        assert pending_traces(tmp_path) == ["t1"]

    def test_open_begins_after_the_newest_closed_one(self, tmp_path):
        """Every open ``begin`` is newer than the newest closed one (a
        legacy upgrade can append several): the walk back stops there."""
        log = Journal(tmp_path)
        log.begin("t0", "commit")  # open, but older than a closed one
        for trace in ("t1", "t2", "t3"):
            log.begin(trace, "commit")
        log.append({"trace_id": "t1", "command": "commit", "status": "ok"})
        assert pending_traces(tmp_path) == ["t2", "t3"]

    def test_missing_file_means_no_pending(self, tmp_path):
        assert not needs_recovery(tmp_path)


class TestLegacyUpgrade:
    """Repositories written before the journal carried ``begin`` lines
    kept them in a separate intent log; the first recovery pass moves
    its open intents into the journal and deletes it."""

    def plant(self, workspace, target):
        legacy = workspace / ".orpheus" / "journal" / LEGACY_INTENTS
        lines = [
            {"phase": "begin", "trace_id": "t-old", "command": "commit",
             "dataset": "ds", "ts": 1.0},
            {"phase": "done", "trace_id": "t-old", "status": "ok", "ts": 2.0},
            {"phase": "begin", "trace_id": "t-torn", "command": "checkout",
             "dataset": "ds", "file": str(target), "ts": telemetry.now()},
        ]
        legacy.write_text("".join(json.dumps(line) + "\n" for line in lines))
        target.write_text("key,value\nk1,1\n")  # the torn checkout's file
        return legacy

    def test_a_torn_legacy_checkout_is_rolled_back_by_the_next_ls(
        self, workspace
    ):
        build_repo(workspace)
        target = workspace / "torn.csv"
        legacy = self.plant(workspace, target)
        assert run_inproc(workspace, "ls") == 0
        assert not target.exists()
        assert not legacy.exists()
        assert not needs_recovery(workspace)
        closed = [
            json.loads(line)
            for line in ops_path(workspace).read_text().splitlines()
            if "t-torn" in line
        ]
        assert [line["phase"] for line in closed] == ["begin", "done"]
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0

    def test_dry_run_moves_nothing(self, workspace):
        build_repo(workspace)
        target = workspace / "torn.csv"
        legacy = self.plant(workspace, target)
        report = run_recovery(workspace, dry_run=True)
        kinds = [a.kind for a in report.actions]
        assert kinds == ["upgrade-intents", "rollback-artifact"]
        assert legacy.exists() and target.exists()
        assert Journal(workspace).pending() == []

    def test_a_closed_legacy_log_is_just_deleted(self, workspace):
        build_repo(workspace)
        legacy = workspace / ".orpheus" / "journal" / LEGACY_INTENTS
        legacy.write_text(
            '{"phase": "begin", "trace_id": "t1", "command": "drop"}\n'
            '{"phase": "done", "trace_id": "t1", "status": "ok"}\n'
        )
        assert needs_recovery(workspace)
        assert run_recovery(workspace).actions == []
        assert not legacy.exists()


class TestTailRace:
    """Only the newest ``begin``s can be open because a writer checks
    for one under the exclusive lock, before it appends its own."""

    @pytest.mark.parametrize("command", ["ls", "checkout"])
    def test_a_crash_while_a_command_waits_for_the_lock_is_recovered(
        self, workspace, monkeypatch, command
    ):
        """Process B dies holding a torn checkout after process A's
        lock-free check, before A takes the lock."""
        build_repo(workspace)
        torn = workspace / "torn.csv"
        acquire = RepositoryLock.acquire
        crashed = []

        def b_crashes_first(lock):
            if not crashed:
                crashed.append(run_cli(
                    workspace, "checkout", "-d", "ds", "-v", "1",
                    "-f", str(torn), failpoints_spec="csv.mid_write=crash",
                ))
            return acquire(lock)

        monkeypatch.setattr(RepositoryLock, "acquire", b_crashes_first)
        argv = {"ls": ["ls"], "checkout": [
            "checkout", "-d", "ds", "-v", "1", "-f", str(workspace / "a.csv"),
        ]}[command]
        assert run_inproc(workspace, *argv) == 0
        assert crashed[0].returncode == 86, crashed[0].stderr
        monkeypatch.undo()

        assert run_inproc(workspace, "ls") == 0  # the next command
        assert not torn.exists()
        assert not needs_recovery(workspace)
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0
