"""``.orpheus/service.json``: a running daemon's identity on disk.

orpheusd writes it when it starts serving and removes it when it
stops. The CLI and the client read it to find the daemon's socket; the
doctor reads it to tell a live daemon from a dead one's leftover file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.resilience.lock import pid_alive

#: Status/pid file the CLI, client, and doctor probe read.
STATUS_FILE = "service.json"


def status_file_path(root: str | None = None) -> Path:
    return Path(root or ".") / ".orpheus" / STATUS_FILE


def read_status_file(root: str | None = None) -> dict | None:
    """The daemon's ``.orpheus/service.json``, or None when absent."""
    try:
        payload = json.loads(status_file_path(root).read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def daemon_running(root: str | None = None) -> bool:
    """True when service.json names a live pid."""
    status = read_status_file(root)
    return status is not None and pid_alive(int(status.get("pid") or 0))
