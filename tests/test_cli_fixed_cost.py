"""The fixed cost of one CLI command, counted rather than timed: a
command builds the top-level parser and its own sub-parser only, and
its pending check reads the same tail of the journal however long the
journal grows."""

from __future__ import annotations

import argparse
import io
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
