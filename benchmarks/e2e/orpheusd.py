"""Run a real ``orpheus serve`` subprocess for a workload, and clean up.

Every daemon started here is tracked until it has been reaped; an
``atexit`` hook stops whatever a crashed run left behind, so the
benchmark never leaks a process or hangs on one.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import time

import repro
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)

#: Where the program under test was imported from: the daemon must run
#: the same sources.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BOOT_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 15.0
#: sun_path is 108 bytes on Linux.
MAX_SOCKET_PATH = 100

_live: list["Daemon"] = []


def scrubbed_env() -> dict[str, str]:
    """The daemon's environment: no ``ORPHEUS_*`` knob leaks in from the
    caller, hashing is fixed, and the program is importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ORPHEUS_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


class Daemon:
    """One orpheusd over ``root`` with stated (not defaulted) flags."""

    def __init__(self, root: str, cache_mb: float, workers: int = 2) -> None:
        self.root = root
        self.socket = os.path.join(root, "d.sock")
        if len(self.socket.encode()) > MAX_SOCKET_PATH:
            raise RuntimeError(
                f"socket path {self.socket!r} is too long for a Unix socket; "
                f"run the benchmark from the repository root"
            )
        self.log_path = os.path.join(root, "orpheusd.log")
        self.client: ServiceClient | None = None
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "--root", root, "serve",
                    "--socket", self.socket,
                    "--workers", str(workers),
                    "--cache-mb", str(cache_mb),
                ],
                env=scrubbed_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
            )
        _live.append(self)
        try:
            self._wait_for_ping()
        except BaseException:
            self.stop()
            raise

    def _wait_for_ping(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"orpheusd exited {self.process.returncode} before "
                    f"answering: {self._log_tail()}"
                )
            if os.path.exists(self.socket):
                client = ServiceClient(socket_path=self.socket, root=self.root)
                try:
                    client.connect()
                    client.ping()
                    self.client = client
                    return
                except ServiceUnavailableError:
                    client.close()
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"orpheusd did not answer a ping within "
                    f"{BOOT_TIMEOUT_S:.0f}s: {self._log_tail()}"
                )
            time.sleep(0.005)

    def _log_tail(self) -> str:
        try:
            with open(self.log_path) as log:
                return log.read()[-2000:].strip() or "(empty log)"
        except OSError:
            return "(no log)"

    # -- /proc readings -------------------------------------------------
    def cpu_s(self) -> float:
        """utime + stime of the daemon process so far."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            # comm may contain spaces; fields after the ')' are fixed.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    # -- teardown -------------------------------------------------------
    def stop(self) -> None:
        """``shutdown`` + reap; escalates to terminate/kill, never hangs."""
        client, self.client = self.client, None
        try:
            if client is not None:
                try:
                    if self.process.poll() is None:
                        client.shutdown()
                except (ServiceError, OSError):
                    pass  # the reap below escalates instead
                finally:
                    client.close()
            elif self.process.poll() is None:
                self.process.terminate()  # never answered: nothing to drain
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            if self in _live:
                _live.remove(self)


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@atexit.register
def _stop_leftovers() -> None:
    for daemon in list(_live):
        try:
            daemon.stop()
        except Exception:
            daemon.process.kill()
            daemon.process.wait()
