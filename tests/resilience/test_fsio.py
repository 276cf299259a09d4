"""The one durable-file module: atomic replace, JSONL append / read
(forward and backward), and the per-site durability it must not
change."""

from __future__ import annotations

import io
import os

import pytest

from repro.resilience import fsio

from tests.resilience.conftest import run_inproc


@pytest.fixture
def fsyncs(monkeypatch):
    """File descriptors ``os.fsync`` was called with."""
    calls: list[int] = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestAtomicWrite:
    @pytest.mark.parametrize("fsync,expected", [(True, 1), (False, 0)])
    def test_fsync_is_the_callers_choice(self, tmp_path, fsyncs, fsync, expected):
        target = tmp_path / "sub" / "file.json"
        fsio.atomic_write(target, b"one", fsync=fsync)
        fsio.atomic_write(target, b"two", fsync=fsync)
        assert target.read_bytes() == b"two"
        assert len(fsyncs) == 2 * expected
        assert fsio.stray_temps(tmp_path) == []

    def test_temp_removed_and_target_kept_when_the_write_raises(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "file.json"
        fsio.atomic_write(target, b"old", fsync=False)

        def refuse(src, dst):
            assert [str(t) for t in fsio.stray_temps(tmp_path, "file.json")] == [src]
            raise OSError("disk says no")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk says no"):
            fsio.atomic_write(target, b"new", fsync=True)
        assert target.read_bytes() == b"old"
        assert fsio.stray_temps(tmp_path) == []

    def test_stray_temps_finds_nested_or_one_targets(self, tmp_path):
        (tmp_path / "journal").mkdir()
        nested = tmp_path / "journal" / "ops.jsonl.q1.tmp"
        top = tmp_path / "state.pkl.q2.tmp"
        for path in (nested, top, tmp_path / "state.pkl"):
            path.write_bytes(b"x")
        assert fsio.stray_temps(tmp_path) == [nested, top]
        assert fsio.stray_temps(tmp_path, "state.pkl") == [top]
        assert fsio.stray_temps(tmp_path / "missing") == []


class TestJsonl:
    @pytest.mark.parametrize("fsync,expected", [(True, 1), (False, 0)])
    def test_append_then_read(self, tmp_path, fsyncs, fsync, expected):
        log = tmp_path / "journal" / "log.jsonl"
        fsio.append_jsonl(log, {"b": 2, "a": 1}, fsync=fsync)
        fsio.append_jsonl(log, {"n": 2}, fsync=fsync)
        assert len(fsyncs) == 2 * expected
        assert log.read_bytes() == b'{"a": 1, "b": 2}\n{"n": 2}\n'
        assert fsio.read_jsonl(log) == ([{"a": 1, "b": 2}, {"n": 2}], False)

    def test_missing_file_reads_empty(self, tmp_path):
        assert fsio.read_jsonl(tmp_path / "absent.jsonl") == ([], False)
        assert fsio.jsonl_torn(tmp_path / "absent.jsonl") is False
        assert fsio.jsonl_head(tmp_path / "absent.jsonl") == {}

    @pytest.mark.parametrize(
        "tail,kept,torn",
        [
            (b'{"n": 2}', [2], True),               # newline missing
            (b'{"n": 2}\n{"n": 3, "x', [2], True),  # cut mid-record
            (b'{"n": 2}\n\xff\xfe', [2], True),     # non-UTF-8 at the end
            (b'\xff\xfe\n{"n": 2}\n', [2], False),  # garbage inside only
            (b'[1, 2]\n{"n": 2}\n', [2], False),    # JSON, but not a record
            (b'\xff\xfe{"n": 2}\n', [], True),      # glued to garbage: lost
            (b'{"n": 2}\nnull\n', [2], False),      # JSON null: not torn
            (b'{"n": 2}\n \n', [2], False),         # a blank last line
            (b'{"n": 2, "pad": "' + b"x" * 9000 + b'"}\n', [2], False),
            (b'{"n": 2, "pad": "' + b"x" * 9000 + b'"\n', [], True),
        ],
    )
    def test_torn_tail_flag(self, tmp_path, tail, kept, torn):
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"n": 1}\n' + tail)
        records, flagged = fsio.read_jsonl(log)
        assert [r["n"] for r in records] == [1] + kept
        assert flagged is torn
        # The same rule from the final line alone, lines longer than
        # the read-back chunk included.
        assert fsio.jsonl_torn(log) is torn
        assert fsio.jsonl_head(log) == {"n": 1}
        assert list(fsio.jsonl_reversed(log))[::-1] == records

    @pytest.mark.parametrize("tail", [b'{"n": 2, "x', b"\xff\xfe"])
    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path, tail):
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"n": 1}\n' + tail)
        fsio.append_jsonl(log, {"n": 3}, fsync=False)
        assert fsio.read_jsonl(log) == ([{"n": 1}, {"n": 3}], False)

    def test_marker_skips_lines_without_parsing_them(self, tmp_path, monkeypatch):
        log = tmp_path / "log.jsonl"
        for n in range(6):
            record = {"n": n, "m": 1} if n % 3 == 0 else {"n": n}
            fsio.append_jsonl(log, record, fsync=False)
        parsed = []
        loads = fsio.json.loads
        monkeypatch.setattr(
            fsio.json, "loads", lambda text: parsed.append(text) or loads(text)
        )
        records, torn = fsio.read_jsonl(log, marker='"m": ')
        assert [r["n"] for r in records] == [0, 3] and not torn
        assert len(parsed) == 2
        assert fsio.read_jsonl(tmp_path / "absent.jsonl", marker='"m": ') == ([], False)

    @pytest.mark.parametrize(
        "tail,kept,torn",
        [
            (b'{"m": 1, "n": 2}', [1, 2], True),   # newline missing
            (b'{"m": 1, "n": 2, "x', [1], True),   # a marked line cut
            (b'{"n": 2}\n', [1], False),           # an unmarked last line
        ],
    )
    def test_marker_keeps_the_torn_rule(self, tmp_path, tail, kept, torn):
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"m": 1, "n": 1}\n{"n": 9}\n' + tail)
        records, flagged = fsio.read_jsonl(log, marker='"m": ')
        assert [r["n"] for r in records] == kept
        assert flagged is torn

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_reversed_reads_back_only_as_far_as_asked(
        self, tmp_path, monkeypatch, chunk
    ):
        log = tmp_path / "log.jsonl"
        log.write_bytes(
            b"".join(fsio.jsonl_line({"n": n}) for n in range(50))
            + b'garbage\n{"n": 50}\n{"n": 51, "x'
        )
        records = list(fsio.jsonl_reversed(log, chunk))
        assert records == fsio.read_jsonl(log)[0][::-1]
        reads = []

        class Counting(io.BufferedReader):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        monkeypatch.setattr(
            fsio, "open", lambda path, mode: Counting(io.FileIO(path)),
            raising=False,
        )
        newest = fsio.jsonl_reversed(log, 64)
        assert [next(newest)["n"] for _ in range(2)] == [50, 49]
        assert reads == [64]
        assert list(fsio.jsonl_reversed(tmp_path / "absent.jsonl")) == []


class TestCommitDurabilityPinned:
    """One CLI ``commit`` issues exactly these fsyncs: the journal's
    ``begin`` line, state temp, ``.orpheus/`` dir, the op record —
    plus, on the paged layout, each dirty page (the data table's and the
    versioning table's: the tables are the only stored copy of a
    version's rids and a record's payload) and the pages dir; page
    garbage collection reads and syncs nothing. Telemetry and heat never
    sync."""

    @pytest.mark.parametrize("layout,expected", [("pickle", 4), ("paged", 7)])
    def test_fsyncs_per_commit(
        self, workspace, monkeypatch, request, layout, expected
    ):
        monkeypatch.setenv("ORPHEUS_STATE_LAYOUT", layout)
        target = workspace / "co.csv"
        assert run_inproc(
            workspace, "init", "-d", "ds",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        assert run_inproc(
            workspace, "checkout", "-d", "ds", "-v", "1", "-f", str(target)
        ) == 0
        with open(target, "a") as handle:
            handle.write("k9,9\n")
        calls = request.getfixturevalue("fsyncs")  # count the commit only
        assert run_inproc(workspace, "commit", "-d", "ds", "-f", str(target)) == 0
        assert len(calls) == expected
