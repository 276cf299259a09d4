"""Torn-operation recovery: rollback, forward-reconciliation, dry runs,
and the intent log that drives it all."""

from __future__ import annotations

import json
import os

from repro import telemetry
from repro.cli import load_state
from repro.core.staging import StagedTable
from repro.observe.journal import Journal
from repro.resilience.intents import IntentLog, has_pending_intents
from repro.resilience.recovery import run_recovery
from repro.resilience.statestore import StateStore

from tests.resilience.conftest import run_inproc


def ops_path(root):
    return root / ".orpheus" / "journal" / "ops.jsonl"


def intents_path(root):
    return root / ".orpheus" / "journal" / "intents.jsonl"


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
        "journal/intents.jsonl",
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
    """A non-UTF-8 byte in either log must not brick the repository:
    the pending-intent check reads both before *every* command."""

    def test_commands_survive_garbage_in_both_logs(self, workspace):
        build_repo(workspace)
        ops_before = Journal(workspace).read()
        intents_before = IntentLog(workspace).read()
        assert ops_before and intents_before
        for path in (ops_path(workspace), intents_path(workspace)):
            with open(path, "ab") as handle:
                handle.write(b"\xff\xfe")

        assert Journal(workspace).read() == ops_before
        assert IntentLog(workspace).read() == intents_before
        assert run_inproc(workspace, "ls") == 0
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
        # Un-land the two post-state effects: the ops record and the
        # closing intent record.
        dropped_op = json.loads(drop_last_line(ops_path(workspace)))
        assert dropped_op["command"] == "commit"
        dropped_intent = json.loads(drop_last_line(intents_path(workspace)))
        assert dropped_intent["phase"] == "done"
        return dropped_op

    def test_dry_run_plans_without_mutating(self, workspace):
        self.simulate(workspace)
        ops_before = ops_path(workspace).read_text()
        report = run_recovery(workspace, dry_run=True)
        assert any(a.kind == "synthesize-journal" for a in report.actions)
        assert "would synthesize-journal" in report.render_text()
        assert ops_path(workspace).read_text() == ops_before
        assert has_pending_intents(workspace)  # intent still open

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
        assert not has_pending_intents(workspace)
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0


class TestCheckoutRollback:
    """Crash window: checkout wrote the CSV but died before the state
    save — the artifact must be rolled back."""

    def test_torn_artifact_removed(self, workspace):
        build_repo(workspace)
        target = workspace / "torn.csv"
        IntentLog(workspace).begin(
            "t-torn", "checkout", dataset="ds", file=str(target)
        )
        target.write_text("key,value\nk1,1\n")  # written after the intent
        report = run_recovery(workspace)
        assert report.clean
        assert any(a.kind == "rollback-artifact" for a in report.actions)
        assert not target.exists()
        assert not has_pending_intents(workspace)

    def test_preexisting_file_survives(self, workspace):
        """The mtime guard: a file older than the intent was not written
        by the torn operation and must not be deleted."""
        build_repo(workspace)
        target = workspace / "precious.csv"
        target.write_text("user data, not ours\n")
        old = os.stat(target).st_mtime - 60
        os.utime(target, (old, old))
        IntentLog(workspace).begin(
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
        drop_last_line(intents_path(workspace))  # and the intent close
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
        drop_last_line(intents_path(workspace))
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
        IntentLog(workspace).begin("t-opt", "optimize", dataset="ds")
        assert run_inproc(workspace, "ls") == 0  # auto-recovers first
        assert not has_pending_intents(workspace)
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
        drop_last_line(intents_path(workspace))
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
        build_repo(workspace)
        commit_new_version(workspace)
        drop_last_line(intents_path(workspace))  # lost only the `done`
        report = run_recovery(workspace)
        assert report.clean
        assert any(a.kind == "resolve-intent" for a in report.actions)
        assert not has_pending_intents(workspace)
        assert run_inproc(workspace, "log", "--ops", "--verify") == 0

    def test_optimize_intent_resolves(self, workspace):
        build_repo(workspace)
        IntentLog(workspace).begin("t-opt", "optimize", dataset="ds")
        report = run_recovery(workspace)
        assert report.clean
        assert not has_pending_intents(workspace)


class TestIntentLog:
    def test_pending_pairs(self, tmp_path):
        log = IntentLog(tmp_path)
        log.begin("t1", "commit", dataset="ds")
        log.begin("t2", "checkout", dataset="ds", file="f.csv")
        log.done("t1")
        pending = log.pending()
        assert [p["trace_id"] for p in pending] == ["t2"]
        assert has_pending_intents(tmp_path)
        log.done("t2")
        assert not has_pending_intents(tmp_path)

    def test_none_details_dropped(self, tmp_path):
        log = IntentLog(tmp_path)
        log.begin("t1", "commit", dataset="ds", file=None)
        assert "file" not in log.read()[0]

    def test_torn_tail_line_skipped(self, tmp_path):
        log = IntentLog(tmp_path)
        log.begin("t1", "commit")
        with open(log.path, "a") as handle:
            handle.write('{"phase": "done", "trace')  # torn mid-write
        assert [r["trace_id"] for r in log.read()] == ["t1"]
        assert has_pending_intents(tmp_path)

    def test_compaction_keeps_only_pending(self, tmp_path):
        log = IntentLog(tmp_path)
        for index in range(20):
            log.begin(f"t{index}", "commit")
            log.done(f"t{index}")
        log.begin("t-open", "commit")
        assert log.compact_if_needed(threshold=10)
        records = log.read()
        assert len(records) == 1
        assert records[0]["trace_id"] == "t-open"

    def test_done_autocompacts_past_threshold(self, tmp_path):
        log = IntentLog(tmp_path)
        for index in range(140):  # 280 records, far past COMPACT_BYTES
            log.begin(f"t{index}", "commit")
            log.done(f"t{index}")
        assert len(log.read()) < 280

    def test_missing_file_means_no_pending(self, tmp_path):
        assert not has_pending_intents(tmp_path)
