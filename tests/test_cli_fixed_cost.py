"""The fixed cost of one CLI command, counted rather than timed: a
command builds the top-level parser and its own sub-parser only, its
pending check reads the same tail of the journal however long the
journal grows, and a reader writes nothing."""

from __future__ import annotations

import argparse
import builtins
import io
import os
import sys
from pathlib import Path

from repro.cli import main
from repro.observe.journal import Journal
from repro.resilience import fsio

DATA = "key,value\nk1,1\nk2,2\nk3,3\n"
SCHEMA = "key,text\nvalue,integer\nprimary_key,key\n"


def make_repo(root) -> None:
    (root / "data.csv").write_text(DATA)
    (root / "schema.csv").write_text(SCHEMA)
    assert main([
        "--root", str(root), "init", "-d", "ds",
        "-f", str(root / "data.csv"), "-s", str(root / "schema.csv"),
    ]) == 0


def checkout(root) -> int:
    return main([
        "--root", str(root), "checkout", "-d", "ds", "-v", "1",
        "-f", str(root / "work.csv"),
    ])


def test_checkout_builds_one_sub_parser(tmp_path, monkeypatch):
    make_repo(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert checkout(tmp_path) == 0
    assert built == ["orpheus", "orpheus checkout"]


def test_intent_log_parses_stay_bounded(tmp_path, monkeypatch):
    """The journal is the intent log. Before each checkout appends its
    ``begin``, the pending check reads the journal backward to the
    newest ``begin``: the same bytes after 480 commands as after 48."""
    make_repo(tmp_path)
    journal = Journal(tmp_path).path
    reads: list[int] = []

    class Counting(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            reads[-1] += len(data)
            return data

    def reading(path, mode="r", *args, **kwargs):
        if mode == "rb" and Path(path) == journal:
            reads.append(0)
            return Counting(io.FileIO(path))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(fsio, "open", reading, raising=False)
    after = {}
    for command in range(1, 481):
        assert checkout(tmp_path) == 0
        if command in (48, 480):
            after[command] = reads[-1]
    assert len(reads) == 480  # one check per command
    assert after[48] == after[480] <= 4096 < journal.stat().st_size // 16
    assert Journal(tmp_path).pending() == []


def test_readers_write_nothing(tmp_path, monkeypatch):
    """``ls`` and ``log`` (and ``stats``, ``heat`` and ``doctor``) on a
    paged repository leave every file under ``.orpheus/`` as it was and
    create none. They call neither ``fsio.atomic_write`` nor
    ``fsio.append_jsonl``, and the one file they open for writing is
    ``repo.lock``, to ``flock`` it."""
    make_repo(tmp_path)
    root = str(tmp_path)
    assert main(["--root", root, "migrate-state", "--to", "paged"]) == 0
    assert checkout(tmp_path) == 0
    with open(tmp_path / "work.csv", "a", newline="") as handle:
        handle.write("k4,4\r\n")
    assert main([
        "--root", root, "commit", "-d", "ds", "-f", str(tmp_path / "work.csv"),
    ]) == 0
    state = tmp_path / ".orpheus"
    assert (state / "state.pkl").read_bytes()[:8] == b"ORPHSTA2"

    def files() -> dict:
        return {
            str(path.relative_to(state)): (path.stat().st_size, path.stat().st_mtime_ns)
            for path in state.rglob("*") if path.is_file()
        }

    calls: list[str] = []
    for name in ("atomic_write", "append_jsonl"):
        real = getattr(fsio, name)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(
                    module, name, lambda *a, _name=name, **k: calls.append(_name)
                )
    opened: list[str] = []
    real_open, real_os_open = builtins.open, os.open

    def watched_open(path, mode="r", *args, **kwargs):
        if isinstance(path, (str, Path)) and set(mode) & set("wax+"):
            opened.append(os.path.basename(path))
        return real_open(path, mode, *args, **kwargs)

    def watched_os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND):
            opened.append(os.path.basename(path))
        return real_os_open(path, flags, *args, **kwargs)

    before = files()
    monkeypatch.setattr(builtins, "open", watched_open)
    monkeypatch.setattr(io, "open", watched_open)
    monkeypatch.setattr(os, "open", watched_os_open)
    assert main(["--root", root, "ls"]) == 0
    assert main(["--root", root, "log", "-d", "ds"]) == 0
    for reader in ("stats", "heat", "doctor"):
        assert main(["--root", root, reader]) == 0
    monkeypatch.undo()
    assert calls == []
    assert set(opened) == {"repo.lock"}
    assert files() == before
