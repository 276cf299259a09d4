"""Repository locking: conflict semantics, timeouts, stale breaking, and
a real two-process contention smoke test through the CLI."""

from __future__ import annotations

import json
import os
import re
import threading
import time

import pytest

from repro import telemetry
from repro.resilience.lock import (
    LockTimeoutError,
    RepositoryLock,
    holder_info,
)

from tests.resilience.conftest import run_cli, run_inproc


class TestConflicts:
    def test_exclusive_blocks_exclusive(self, tmp_path):
        with RepositoryLock(tmp_path, command="first"):
            blocked = RepositoryLock(tmp_path, timeout=0.2, command="second")
            with pytest.raises(LockTimeoutError) as excinfo:
                blocked.acquire()
        message = str(excinfo.value)
        assert "repo.lock" in message
        assert str(os.getpid()) in message  # names the holder
        assert "first" in message

    def test_shared_allows_shared(self, tmp_path):
        with RepositoryLock(tmp_path, shared=True):
            with RepositoryLock(tmp_path, shared=True, timeout=0.5):
                pass  # both held simultaneously

    def test_shared_blocks_exclusive(self, tmp_path):
        with RepositoryLock(tmp_path, shared=True):
            with pytest.raises(LockTimeoutError):
                RepositoryLock(tmp_path, timeout=0.2).acquire()

    def test_release_unblocks(self, tmp_path):
        first = RepositoryLock(tmp_path).acquire()
        first.release()
        with RepositoryLock(tmp_path, timeout=0.5):
            pass

    def test_waiter_proceeds_once_holder_releases(self, tmp_path):
        """A waiter with a generous timeout acquires as soon as the
        holder lets go — the backoff loop retries, it doesn't give up."""
        holder = RepositoryLock(tmp_path).acquire()
        acquired_at = {}

        def waiter():
            with RepositoryLock(tmp_path, timeout=5.0):
                acquired_at["t"] = time.monotonic()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.15)
        released_at = time.monotonic()
        holder.release()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert acquired_at["t"] >= released_at


class TestTelemetry:
    def test_counters_and_wait_histogram(self, tmp_path):
        telemetry.enable()
        registry = telemetry.get_registry()
        with RepositoryLock(tmp_path):
            with pytest.raises(LockTimeoutError):
                RepositoryLock(tmp_path, timeout=0.2).acquire()
        assert registry.counter_value("resilience.lock.acquired") == 1
        assert registry.counter_value("resilience.lock.contention") == 1
        snapshot = telemetry.snapshot().to_dict()
        assert "resilience.lock.wait_seconds" in snapshot["histograms"]


class TestHolderMetadata:
    def test_exclusive_holder_recorded(self, tmp_path):
        with RepositoryLock(tmp_path, command="commit"):
            holder = holder_info(tmp_path)
            assert holder["pid"] == os.getpid()
            assert holder["command"] == "commit"

    def test_shared_does_not_overwrite(self, tmp_path):
        with RepositoryLock(tmp_path, command="commit"):
            pass
        with RepositoryLock(tmp_path, shared=True, command="log"):
            assert holder_info(tmp_path)["command"] == "commit"


class TestFallbackMode:
    """The O_EXCL path used where fcntl is unavailable."""

    def test_mutual_exclusion(self, tmp_path):
        with RepositoryLock(tmp_path, use_fcntl=False):
            with pytest.raises(LockTimeoutError):
                RepositoryLock(tmp_path, use_fcntl=False, timeout=0.2).acquire()

    def test_release_removes_lock_file(self, tmp_path):
        lock = RepositoryLock(tmp_path, use_fcntl=False).acquire()
        excl = tmp_path / ".orpheus" / "repo.lock.excl"
        assert excl.exists()
        lock.release()
        assert not excl.exists()

    def test_stale_dead_pid_is_broken(self, tmp_path, capsys):
        telemetry.enable()
        excl = tmp_path / ".orpheus" / "repo.lock.excl"
        excl.parent.mkdir(parents=True)
        # Large never-recycled pid: certainly dead.
        excl.write_text(json.dumps({"pid": 2**22 - 3, "ts": "t"}))
        with RepositoryLock(tmp_path, use_fcntl=False, timeout=2.0):
            pass
        registry = telemetry.get_registry()
        assert registry.counter_value("resilience.lock.stale_broken") == 1
        assert "stale" in capsys.readouterr().err

    def test_live_pid_not_broken(self, tmp_path):
        excl = tmp_path / ".orpheus" / "repo.lock.excl"
        excl.parent.mkdir(parents=True)
        excl.write_text(json.dumps({"pid": os.getpid(), "ts": "t"}))
        with pytest.raises(LockTimeoutError):
            RepositoryLock(tmp_path, use_fcntl=False, timeout=0.2).acquire()
        assert excl.exists()


class TestEnvTimeout:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ORPHEUS_LOCK_TIMEOUT", "0.125")
        assert RepositoryLock(tmp_path).timeout == 0.125


class TestTwoProcessSmoke:
    def test_two_process_commits_serialize(self, workspace):
        """Two real processes committing concurrently: the lock must
        serialize them so both succeed and the journal verifies."""
        rc = run_inproc(
            workspace,
            "init",
            "-d", "ds",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        )
        assert rc == 0
        for name in ("a.csv", "b.csv"):
            rc = run_inproc(
                workspace,
                "checkout",
                "-d", "ds",
                "-v", "1",
                "-f", str(workspace / name),
            )
            assert rc == 0
            with open(workspace / name, "a") as handle:
                handle.write(f"k-{name},9\n")

        env_spec = "statestore.before_replace=delay:1.0"
        results = {}

        def commit(name, spec):
            results[name] = run_cli(
                workspace,
                "--timings",
                "commit",
                "-d", "ds",
                "-f", str(workspace / name),
                failpoints_spec=spec,
            )

        slow = threading.Thread(target=commit, args=("a.csv", env_spec))
        fast = threading.Thread(target=commit, args=("b.csv", None))
        slow.start()
        time.sleep(0.3)  # let the slow writer take the lock first
        fast.start()
        slow.join()
        fast.join()

        for name, proc in results.items():
            assert proc.returncode == 0, (name, proc.stderr)
            # --timings prints the invocation's counters under its spans
            assert re.search(
                r"^  resilience\.lock\.acquired +1$", proc.stderr, re.M
            ), proc.stderr
        verify = run_cli(workspace, "log", "--ops", "--verify")
        assert verify.returncode == 0, verify.stderr
        stats = run_cli(workspace, "stats", "--json")
        assert stats.returncode == 0
        payload = json.loads(stats.stdout)  # mined from the ops journal
        assert payload["spans"]["cli.commit"]["count"] == 2
        assert "commands.failed" not in payload["counters"]


def test_pid_alive_reads_an_unexpected_kill_error_as_dead(monkeypatch):
    """ESRCH is dead and EPERM is alive (someone else's process); any
    other ``os.kill`` error is taken as dead, everywhere the pid of a
    lock holder or a daemon is judged."""
    import errno

    from repro.resilience import lock
    from repro.service import client

    def raising(error):
        def kill(pid, signal):
            raise error

        return kill

    for error, alive in (
        (ProcessLookupError(errno.ESRCH, "no such process"), False),
        (PermissionError(errno.EPERM, "not yours"), True),
        (OSError(errno.EINVAL, "invalid"), False),
    ):
        monkeypatch.setattr(lock.os, "kill", raising(error))
        assert lock.pid_alive(4242) is alive
    assert lock.pid_alive(0) is False
    assert client.pid_alive is lock.pid_alive
