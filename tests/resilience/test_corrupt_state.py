"""Corrupt on-disk files must produce actionable messages (or silent
backup fallback), never raw tracebacks — exercised through the real CLI
as a user would hit them."""

from __future__ import annotations

import json

from tests.resilience.conftest import run_cli, run_inproc


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


def state_path(workspace):
    return workspace / ".orpheus" / "state.pkl"


class TestCorruptStateWithBackup:
    """With backup generations present, corruption degrades gracefully."""

    def corrupt(self, workspace, mutate):
        build_repo(workspace, commits=1)  # ≥2 saves → a .bak exists
        blob = state_path(workspace).read_bytes()
        state_path(workspace).write_bytes(mutate(blob))

    def check_falls_back(self, workspace):
        proc = run_cli(workspace, "ls")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "corrupt" in proc.stderr
        assert "backup" in proc.stderr
        assert "ds" in proc.stdout

    def test_truncated(self, workspace):
        self.corrupt(workspace, lambda blob: blob[: len(blob) // 2])
        self.check_falls_back(workspace)

    def test_bit_flipped(self, workspace):
        def flip(blob):
            mutable = bytearray(blob)
            mutable[len(mutable) // 2] ^= 0x40
            return bytes(mutable)

        self.corrupt(workspace, flip)
        self.check_falls_back(workspace)

    def test_empty(self, workspace):
        self.corrupt(workspace, lambda blob: b"")
        self.check_falls_back(workspace)


class TestCorruptStateNoBackup:
    """First save ever, then corruption: no generation to fall back to."""

    def test_actionable_error_not_traceback(self, workspace):
        build_repo(workspace)
        for backup in state_path(workspace).parent.glob("state.pkl.bak*"):
            backup.unlink()
        state_path(workspace).write_bytes(b"\xde\xad\xbe\xef" * 8)
        proc = run_cli(workspace, "ls")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr
        assert "orpheus recover" in proc.stderr

    def test_recover_reports_problem(self, workspace):
        build_repo(workspace)
        for backup in state_path(workspace).parent.glob("state.pkl.bak*"):
            backup.unlink()
        state_path(workspace).write_bytes(b"\x00" * 64)
        proc = run_cli(workspace, "recover")
        assert proc.returncode == 1  # problems remain → non-zero
        assert "Traceback" not in proc.stderr
        assert "UNRESOLVED" in proc.stdout or "corrupt" in proc.stdout


class TestCorruptTelemetry:
    """A ``telemetry.json`` left by an older release is never read nor
    rewritten: commands, ``stats`` and the doctor ignore it."""

    def test_commands_survive_corrupt_telemetry_json(self, workspace):
        build_repo(workspace)
        telemetry_file = workspace / ".orpheus" / "telemetry.json"
        telemetry_file.write_text("{not valid json!!")
        proc = run_cli(workspace, "ls")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_cli(workspace, "stats", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["spans"]["cli.init"]["count"] == 1
        assert telemetry_file.read_text() == "{not valid json!!"

    def test_truncated_telemetry_json(self, workspace):
        build_repo(workspace)
        telemetry_file = workspace / ".orpheus" / "telemetry.json"
        telemetry_file.write_text('{"spans": {"cli.init"')
        proc = run_cli(workspace, "doctor")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "telemetry" not in proc.stdout


class TestRecoverDryRunOutput:
    def test_dry_run_wording_and_idempotence(self, workspace):
        build_repo(workspace, commits=1)
        ops = workspace / ".orpheus" / "journal" / "ops.jsonl"
        lines = ops.read_text().splitlines()  # lose the commit's op record
        ops.write_text("".join(line + "\n" for line in lines[:-1]))

        dry = run_cli(workspace, "recover", "--dry-run")
        assert dry.returncode == 0, dry.stderr
        assert "would synthesize-journal" in dry.stdout
        assert "recovery plan" in dry.stdout

        # Dry run mutated nothing: a second dry run plans the same work.
        again = run_cli(workspace, "recover", "--dry-run")
        assert "would synthesize-journal" in again.stdout

        real = run_cli(workspace, "recover")
        assert real.returncode == 0, real.stderr
        assert "synthesize-journal" in real.stdout
        assert "recovery complete" in real.stdout

        done = run_cli(workspace, "recover")
        assert done.returncode == 0
        assert "nothing to recover" in done.stdout
