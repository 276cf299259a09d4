"""The fixed cost of one CLI command, counted rather than timed: a
command builds the top-level parser and its own sub-parser only, and
the intent log is parsed a bounded number of lines per command."""

from __future__ import annotations

import argparse
import os

from repro.cli import main
from repro.resilience import fsio
from repro.resilience.intents import COMPACT_BYTES, IntentLog

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
    """In steady state ``done()`` parses nothing (it compacts, and so
    parses, once every several commands), and the lock-free pending
    check before each command parses at most COMPACT_BYTES of log."""
    make_repo(tmp_path)
    intents = IntentLog(tmp_path).path
    phase = ["pre-check"]
    parses = {"pre-check": [], "done": []}
    read_jsonl = fsio.read_jsonl

    def counting(path):
        records, torn = read_jsonl(path)
        if str(path) == str(intents):
            parses[phase[0]].append((len(records), os.path.getsize(path)))
        return records, torn

    done = IntentLog.done

    def in_done(self, *args, **kwargs):
        phase[0] = "done"
        try:
            return done(self, *args, **kwargs)
        finally:
            phase[0] = "pre-check"

    monkeypatch.setattr(fsio, "read_jsonl", counting)
    monkeypatch.setattr(IntentLog, "done", in_done)
    commands = 48
    for _ in range(commands):
        assert checkout(tmp_path) == 0

    assert len(parses["pre-check"]) == commands
    assert max(size for _, size in parses["pre-check"]) <= COMPACT_BYTES
    assert max(records for records, _ in parses["pre-check"]) <= 36
    # Only compactions parse inside done(), and they are rare but real.
    assert 1 <= len(parses["done"]) <= commands // 8
    assert IntentLog(tmp_path).pending() == []
