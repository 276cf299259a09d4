"""How a file under ``.orpheus/`` becomes durable — the one place.

Two shapes cover every on-disk artifact the repository owns:

* **whole-file replace** (:func:`atomic_write`): write a temp file next
  to the target, optionally fsync it, ``os.replace`` it over the
  target. A crash leaves the old file or the new one, never a torn
  one, plus at worst one ``<name>.<random>.tmp`` that
  :func:`stray_temps` finds and recovery removes.
* **JSON-lines log** (:func:`append_jsonl` / :func:`read_jsonl` /
  :func:`jsonl_head` / :func:`jsonl_torn` / :func:`jsonl_reversed`):
  one ``\\n``-terminated JSON object per ``write`` call, so a crash
  tears at most the final line (and the next append starts a fresh one
  rather than gluing onto it); readers skip what does not parse —
  including non-UTF-8 garbage, which is decoded with
  ``errors="replace"`` rather than raised — and report whether the
  tail was torn. The last two read a file backward from its end, so
  their cost does not grow with the file.

Each caller says whether its file is worth an ``fsync`` (state, pages
and the operation journal are; the daemon status file and flight
segments are observability and are not). ``docs/resilience.md``
has the table.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path

#: Every temp this module creates is ``<target name>.<random>.tmp`` in
#: the target's directory (same filesystem, so the replace is atomic).
TEMP_SUFFIX = ".tmp"


def make_temp(path: Path) -> tuple[int, str]:
    """Create the temp file for replacing ``path``: ``(fd, name)``."""
    return tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=TEMP_SUFFIX
    )


def stray_temps(directory: Path, target: str | None = None) -> list[Path]:
    """Temps that interrupted writes left under ``directory``: all of
    them, recursively, or only those of the file named ``target``."""
    if target is None:
        return sorted(directory.rglob("*" + TEMP_SUFFIX))
    return sorted(directory.glob(f"{target}.*{TEMP_SUFFIX}"))


def fsync_dir(directory: Path) -> None:
    """Make a rename in ``directory`` durable; best effort, because not
    every filesystem lets a directory be opened or synced."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write(path: Path, data: bytes, *, fsync: bool) -> None:
    """Replace ``path`` with ``data``; the temp is removed on failure."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = make_temp(path)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def jsonl_line(record: dict) -> bytes:
    """One record as one ``\\n``-terminated, key-sorted JSON line."""
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode(
        "utf-8"
    )


def append_jsonl(path: Path, record: dict, *, fsync: bool) -> None:
    """Append one record as a single ``write`` of one whole line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = jsonl_line(record)
    with open(path, "ab+") as handle:
        size = handle.tell()
        if size and os.pread(handle.fileno(), 1, size - 1) != b"\n":
            # A torn or garbage tail would swallow this record too.
            line = b"\n" + line
        handle.write(line)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def read_jsonl(
    path: str | Path, marker: str | None = None
) -> tuple[list[dict], bool]:
    """``(records, torn)``: every well-formed JSON object, oldest first.

    Lines that do not parse are skipped, wherever they are; ``torn`` is
    True when the *last* line does not parse or the file does not end
    in a newline — what a crash mid-append leaves. A missing or
    unreadable file reads as empty. With ``marker``, lines that do not
    contain it are skipped without being parsed.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], False
    torn = bool(raw) and not raw.endswith(b"\n")
    records: list[dict] = []
    lines = raw.decode("utf-8", errors="replace").splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line or (marker is not None and marker not in line):
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if index == len(lines) - 1:
                torn = True
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, torn


def jsonl_head(path: str | Path, limit: int = 4096) -> dict:
    """The first line's record, read alone ({} when it is missing, longer
    than ``limit`` or not a JSON object)."""
    try:
        with open(path, "rb") as handle:
            line = handle.readline(limit)
        record = json.loads(line.decode("utf-8", errors="replace"))
    except (OSError, ValueError):
        return {}
    return record if isinstance(record, dict) else {}


def _pieces_reversed(path: str | Path, chunk: int) -> Iterator[bytes]:
    """A file's ``\\n``-separated pieces, newest first, read backward a
    chunk at a time: the first is what follows the final newline
    (``b""`` when the file ends in one). A missing file yields none."""
    try:
        handle = open(path, "rb")
    except OSError:
        return
    with handle:
        pos = handle.seek(0, os.SEEK_END)
        rest = b""
        while pos > 0:
            step = min(chunk, pos)
            pos -= step
            handle.seek(pos)
            pieces = (handle.read(step) + rest).split(b"\n")
            # The first piece may begin before ``pos``: keep it for the
            # next chunk, unless the file's start has been reached.
            rest = pieces.pop(0) if pos else b""
            yield from reversed(pieces)


def jsonl_torn(path: str | Path, chunk: int = 4096) -> bool:
    """:func:`read_jsonl`'s ``torn``, reading only the final line: a
    file that does not end in a newline is torn, and so is one whose
    last line does not parse."""
    pieces = _pieces_reversed(path, chunk)
    after_newline = next(pieces, b"")
    if after_newline:
        return True
    last = next(pieces, b"").decode("utf-8", errors="replace")
    try:
        if last.strip():
            json.loads(last)
    except ValueError:
        return True
    return False


def jsonl_reversed(path: str | Path, chunk: int = 4096) -> Iterator[dict]:
    """:func:`read_jsonl`'s records, newest first, read backward only as
    far as the caller iterates."""
    for piece in _pieces_reversed(path, chunk):
        try:
            record = json.loads(piece.decode("utf-8", errors="replace"))
        except ValueError:
            continue
        if isinstance(record, dict):
            yield record
