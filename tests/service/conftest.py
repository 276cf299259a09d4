"""Shared fixtures for the service-daemon suite: a seeded workspace, an
in-process daemon factory with tunable config, and a subprocess daemon
runner for real-process crash tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.resilience import failpoints
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceDaemon

SRC = Path(__file__).resolve().parents[2] / "src"
SUBPROCESS_TIMEOUT = 60


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.csv").write_text(
        "key,value\nk1,1\nk2,2\nk3,3\n"
    )
    (tmp_path / "schema.csv").write_text(
        "key,text\nvalue,integer\nprimary_key,key\n"
    )
    return tmp_path


@pytest.fixture(autouse=True)
def clean_global_state():
    failpoints.clear()
    yield
    failpoints.clear()
    telemetry.reset()
    telemetry.disable()


def seed_dataset(root, name="inter") -> None:
    """Init one CVD from the workspace CSVs via the CLI."""
    from repro.cli import main

    assert (
        main(
            [
                "--root", str(root),
                "init",
                "-d", name,
                "-f", str(Path(root) / "data.csv"),
                "-s", str(Path(root) / "schema.csv"),
            ]
        )
        == 0
    )


def await_ledger(handle, until) -> None:
    """Wait for the daemon's request ledger. It counts a request once
    the response is on the wire, so a client can read the response (and
    ask for a report) before the count lands. ``until`` is an op name
    (wait until the ledger holds one such request) or a predicate of
    the daemon's :class:`~repro.service.metrics.ServiceMetrics`."""
    if isinstance(until, str):
        op = until
        until = lambda metrics: op in metrics.by_op  # noqa: E731
    deadline = time.monotonic() + 10
    while not until(handle.daemon.metrics):
        assert time.monotonic() < deadline, "the ledger never caught up"
        time.sleep(0.005)


def assert_healthy_on_disk(root) -> None:
    """What ``orpheus log --ops --verify`` and ``orpheus doctor`` check,
    run on the state a fresh process would load."""
    from repro.observe.doctor import run_doctor
    from repro.observe.journal import Journal, verify_journal
    from repro.resilience.statestore import StateStore

    orpheus, _info = StateStore(root).load(warn=None)
    assert verify_journal(orpheus, Journal(str(root)).read()) == []
    probes = {
        result.probe: result.severity
        for result in run_doctor(orpheus, str(root)).results
    }
    assert "fail" not in probes.values(), probes
    for probe in ("state_integrity", "page_store_health", "journal"):
        assert probes[probe] == "ok", probes


class DaemonHandle:
    """An in-process daemon plus its serve thread, for `with` use."""

    def __init__(self, root, **config_kwargs) -> None:
        self.daemon = ServiceDaemon(
            ServiceConfig(root=str(root), **config_kwargs)
        )
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "DaemonHandle":
        self.daemon.start()
        self._thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.daemon.request_shutdown()
        self.daemon.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def client(self, user: str = "", timeout: float = 15.0) -> ServiceClient:
        return ServiceClient(
            root=str(self.daemon.root), user=user, timeout=timeout
        )


@pytest.fixture
def daemon_factory(workspace):
    """Build (and reliably tear down) in-process daemons over the
    workspace repository."""
    handles: list[DaemonHandle] = []

    def make(**config_kwargs) -> DaemonHandle:
        handle = DaemonHandle(workspace, **config_kwargs)
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.daemon.request_shutdown()
        try:
            handle.daemon.shutdown()
        except Exception:
            pass


def spawn_daemon_subprocess(
    root,
    *extra_args,
    failpoints_spec: str | None = None,
) -> subprocess.Popen:
    """Start `orpheus serve` as a real subprocess and wait for its
    status file (the daemon's readiness signal)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("ORPHEUS_FAILPOINTS", None)
    if failpoints_spec:
        env["ORPHEUS_FAILPOINTS"] = failpoints_spec
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli",
            "--root", str(root),
            "serve", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    status_file = Path(root) / ".orpheus" / "service.json"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        # A crashed predecessor leaves a stale status file behind; only a
        # file naming *this* pid means the new daemon is listening.
        try:
            if json.loads(status_file.read_text()).get("pid") == proc.pid:
                return proc
        except (OSError, ValueError):
            pass
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited during startup "
                f"(code {proc.returncode}): {proc.stderr.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("daemon did not write its status file in time")
