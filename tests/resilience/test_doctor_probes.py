"""The resilience-facing doctor probes: state integrity, backup
freshness, and pending intents."""

from __future__ import annotations

import pickle

from repro.observe.doctor import FAIL, OK, WARN, Checkup, run_probe
from repro.observe.journal import Journal
from repro.resilience.statestore import MAGIC, StateStore

from tests.resilience.conftest import run_inproc


def build_repo(workspace, commits=0):
    rc = run_inproc(
        workspace,
        "init",
        "-d", "ds",
        "-f", str(workspace / "data.csv"),
        "-s", str(workspace / "schema.csv"),
    )
    assert rc == 0
    for index in range(commits):
        target = workspace / f"co{index}.csv"
        assert run_inproc(
            workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target)
        ) == 0
        with open(target, "a") as handle:
            handle.write(f"k-extra-{index},9\n")
        assert run_inproc(
            workspace, "commit", "-d", "ds", "-f", str(target)
        ) == 0


class TestStateIntegrity:
    def test_fresh_repo_ok(self, tmp_path):
        (result,) = run_probe("state_integrity", Checkup(root=str(tmp_path)))
        assert result.severity == OK
        assert "fresh" in result.summary

    def test_healthy_state_ok(self, workspace):
        build_repo(workspace)
        (result,) = run_probe("state_integrity", Checkup(root=str(workspace)))
        assert result.severity == OK

    def test_corrupt_with_backup_warns(self, workspace):
        build_repo(workspace, commits=1)
        (workspace / ".orpheus" / "state.pkl").write_bytes(MAGIC + b"\x00")
        (result,) = run_probe("state_integrity", Checkup(root=str(workspace)))
        assert result.severity == WARN
        assert "backup" in result.summary
        assert "recover" in result.remediation

    def test_corrupt_without_backup_fails(self, workspace):
        build_repo(workspace)
        store = StateStore(workspace)
        for backup in store.backup_paths:
            backup.unlink(missing_ok=True)
        store.path.write_bytes(MAGIC + b"\x00")
        (result,) = run_probe("state_integrity", Checkup(root=str(workspace)))
        assert result.severity == FAIL
        assert result.remediation

    def test_legacy_format_warns(self, tmp_path):
        store = StateStore(tmp_path)
        store.dir.mkdir(parents=True)
        store.path.write_bytes(pickle.dumps({"old": True}))
        (result,) = run_probe("state_integrity", Checkup(root=str(tmp_path)))
        assert result.severity == WARN
        assert "legacy" in result.summary

    def test_stray_temp_warns(self, workspace):
        build_repo(workspace)
        (workspace / ".orpheus" / "state.pkl.xyz.tmp").write_bytes(b"junk")
        (result,) = run_probe("state_integrity", Checkup(root=str(workspace)))
        assert result.severity == WARN


class TestBackupFreshness:
    def test_no_state_ok(self, tmp_path):
        (result,) = run_probe("backup_freshness", Checkup(root=str(tmp_path)))
        assert result.severity == OK

    def test_single_save_no_backup_ok(self, workspace):
        build_repo(workspace)
        (result,) = run_probe("backup_freshness", Checkup(root=str(workspace)))
        # init alone journals one op; a missing backup is expected.
        assert result.severity == OK

    def test_backups_present_ok(self, workspace):
        build_repo(workspace, commits=1)
        (result,) = run_probe("backup_freshness", Checkup(root=str(workspace)))
        assert result.severity == OK
        assert "backup generation" in result.summary


class TestPendingIntents:
    def test_no_log_ok(self, tmp_path):
        (result,) = run_probe("pending_intents", Checkup(root=str(tmp_path)))
        assert result.severity == OK

    def test_all_closed_ok(self, workspace):
        build_repo(workspace)
        (result,) = run_probe("pending_intents", Checkup(root=str(workspace)))
        assert result.severity == OK
        assert "none pending" in result.summary

    def test_pending_intent_fails_with_remediation(self, workspace):
        build_repo(workspace)
        Journal(workspace).begin("t-torn", "commit", dataset="ds")
        (result,) = run_probe("pending_intents", Checkup(root=str(workspace)))
        assert result.severity == FAIL
        assert "torn" in result.summary
        assert "orpheus recover" in result.remediation
        assert result.data["pending"][0]["trace_id"] == "t-torn"
