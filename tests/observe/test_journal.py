"""The operation journal: one record per mutating command (success or
failure), trace-id correlation with the root span, and replay-verify."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.commands import Orpheus
from repro.observe.journal import (
    MUTATING_COMMANDS,
    Journal,
    OpRecord,
    make_record,
    new_trace_id,
    verify_journal,
)
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT


class TestJournalFile:
    def test_append_read_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path))
        record = make_record(new_trace_id(), "commit", user="alice")
        record.dataset = "d"
        record.output_version = 2
        record.rows = 10
        journal.append(record)
        loaded = journal.read()
        assert len(loaded) == 1
        assert loaded[0]["command"] == "commit"
        assert loaded[0]["user"] == "alice"
        assert loaded[0]["output_version"] == 2

    def test_malformed_lines_are_skipped(self, tmp_path):
        journal = Journal(str(tmp_path))
        journal.append(make_record("t1", "init"))
        with open(journal.path, "a") as handle:
            handle.write('{"torn": \n')  # a torn write, line-terminated
        journal.append(make_record("t2", "commit"))
        trace_ids = [r["trace_id"] for r in journal.read()]
        assert trace_ids == ["t1", "t2"]

    def test_error_record_carries_type_and_message(self, tmp_path):
        journal = Journal(str(tmp_path))
        record = OpRecord(
            trace_id="t",
            command="commit",
            status="error",
            ts=0.0,
            error_type="CVDError",
            error_message="no such dataset",
        )
        journal.append(record)
        loaded = journal.read()[0]
        assert loaded["status"] == "error"
        assert loaded["error"]["type"] == "CVDError"
        text = journal.render_text()
        assert "[FAILED]" in text
        assert "CVDError" in text

    def test_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100


class TestVerify:
    def make_orpheus(self):
        orpheus = Orpheus()
        schema = Schema(
            [ColumnDef("key", TEXT), ColumnDef("value", INT)],
            primary_key=("key",),
        )
        orpheus.init("d", schema, [("k1", 1), ("k2", 2)])
        return orpheus

    def journal_for(self, orpheus) -> list[dict]:
        return [
            {
                "trace_id": "t1",
                "command": "init",
                "status": "ok",
                "dataset": "d",
                "output_version": 1,
                "rows": 2,
            }
        ]

    def test_agreeing_journal_has_no_divergence(self):
        orpheus = self.make_orpheus()
        assert verify_journal(orpheus, self.journal_for(orpheus)) == []

    def test_unjournaled_graph_version_diverges(self):
        orpheus = self.make_orpheus()
        orpheus.cvd("d").commit(
            [("k1", 1), ("k3", 3)], parents=(1,), message="sneaky"
        )
        divergences = verify_journal(orpheus, self.journal_for(orpheus))
        assert any("never journaled" in d for d in divergences)

    def test_journaled_but_missing_version_diverges(self):
        orpheus = self.make_orpheus()
        records = self.journal_for(orpheus) + [
            {
                "trace_id": "t2",
                "command": "commit",
                "status": "ok",
                "dataset": "d",
                "input_versions": [1],
                "output_version": 9,
                "rows": 3,
            }
        ]
        divergences = verify_journal(orpheus, records)
        assert any("missing from the" in d for d in divergences)

    def test_row_count_drift_diverges(self):
        orpheus = self.make_orpheus()
        records = self.journal_for(orpheus)
        records[0]["rows"] = 999
        divergences = verify_journal(orpheus, records)
        assert any("999" in d for d in divergences)

    def test_failed_records_are_not_replayed(self):
        orpheus = self.make_orpheus()
        records = self.journal_for(orpheus) + [
            {
                "trace_id": "t3",
                "command": "commit",
                "status": "error",
                "dataset": "d",
                "output_version": 77,
                "error": {"type": "CVDError", "message": "x"},
            }
        ]
        assert verify_journal(orpheus, records) == []

    def test_dropped_dataset_is_expected_absent(self):
        orpheus = self.make_orpheus()
        orpheus.drop("d")
        records = self.journal_for(orpheus) + [
            {
                "trace_id": "t4",
                "command": "drop",
                "status": "ok",
                "dataset": "d",
            }
        ]
        assert verify_journal(orpheus, records) == []


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.csv").write_text(
        "key,value\n" + "".join(f"k{i},{i}\n" for i in range(20))
    )
    (tmp_path / "schema.csv").write_text(
        "key,text\nvalue,integer\nprimary_key,key\n"
    )
    return tmp_path


def run(workspace, *args) -> int:
    return main(["--root", str(workspace), *args])


def drive(workspace) -> None:
    assert run(
        workspace,
        "init", "-d", "d",
        "-f", str(workspace / "data.csv"),
        "-s", str(workspace / "schema.csv"),
    ) == 0
    work = workspace / "work.csv"
    assert run(
        workspace, "checkout", "-d", "d", "-v", "1", "-f", str(work)
    ) == 0
    with open(work, "a", newline="") as handle:
        handle.write("k99,99\r\n")
    assert run(
        workspace, "commit", "-d", "d", "-f", str(work), "-m", "edit"
    ) == 0


class TestCliJournal:
    def test_each_mutating_command_appends_exactly_one_record(
        self, workspace
    ):
        drive(workspace)
        assert run(workspace, "ls") == 0  # read-only: not journaled
        assert run(workspace, "log", "-d", "d") == 0
        records = Journal(str(workspace)).read()
        assert [r["command"] for r in records] == [
            "init", "checkout", "commit"
        ]
        assert all(r["status"] == "ok" for r in records)
        assert all(r["command"] in MUTATING_COMMANDS for r in records)
        # Distinct invocations, distinct trace ids; durations recorded.
        assert len({r["trace_id"] for r in records}) == 3
        assert all(r.get("duration_s", 0) > 0 for r in records)

    def test_record_fields_describe_the_operation(self, workspace):
        drive(workspace)
        init_rec, checkout_rec, commit_rec = Journal(str(workspace)).read()
        assert init_rec["dataset"] == "d"
        assert init_rec["output_version"] == 1
        assert init_rec["rows"] == 20
        assert checkout_rec["input_versions"] == [1]
        assert checkout_rec["rows"] == 20
        assert commit_rec["input_versions"] == [1]
        assert commit_rec["output_version"] == 2
        assert commit_rec["rows"] == 21

    def test_failed_command_journals_error(self, workspace):
        drive(workspace)
        assert run(
            workspace, "checkout", "-d", "nope", "-v", "1", "-f", "x.csv"
        ) == 1
        last = Journal(str(workspace)).read()[-1]
        assert last["command"] == "checkout"
        assert last["status"] == "error"
        assert last["error"]["type"] == "CVDError"

    def test_plan_only_explain_is_not_journaled(self, workspace):
        drive(workspace)
        before = len(Journal(str(workspace)).read())
        assert run(
            workspace, "checkout", "-d", "d", "-v", "1",
            "-f", str(workspace / "y.csv"), "--explain",
        ) == 0
        assert len(Journal(str(workspace)).read()) == before
        # analyze executes, so it does journal.
        assert run(
            workspace, "checkout", "-d", "d", "-v", "1",
            "-f", str(workspace / "y.csv"), "--explain=analyze",
        ) == 0
        assert len(Journal(str(workspace)).read()) == before + 1

    def test_trace_id_is_stamped_on_the_root_span(self, workspace, capsys):
        drive(workspace)
        capsys.readouterr()
        assert run(
            workspace, "--timings", "checkout", "-d", "d", "-v", "1",
            "-f", str(workspace / "z.csv"),
        ) == 0
        err = capsys.readouterr().err
        last = Journal(str(workspace)).read()[-1]
        assert f"trace_id={last['trace_id']}" in err

    def test_log_ops_renders_and_verify_agrees(self, workspace, capsys):
        drive(workspace)
        capsys.readouterr()
        assert run(workspace, "log", "--ops", "--verify") == 0
        out = capsys.readouterr().out
        assert "init" in out and "commit" in out
        assert "journal and version graph agree" in out

    def test_verify_detects_out_of_band_mutation(self, workspace, capsys):
        drive(workspace)
        # Tamper: journal a commit the store never saw.
        Journal(str(workspace)).append(
            {
                "trace_id": "feedbead00000000",
                "command": "commit",
                "status": "ok",
                "ts": 0.0,
                "user": "",
                "dataset": "d",
                "input_versions": [2],
                "output_version": 9,
                "rows": 5,
            }
        )
        capsys.readouterr()
        assert run(workspace, "log", "--ops", "--verify") == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_journal_survives_and_verifies_across_drop(self, workspace):
        drive(workspace)
        assert run(workspace, "drop", "-d", "d") == 0
        records = Journal(str(workspace)).read()
        assert records[-1]["command"] == "drop"
        assert run(workspace, "log", "--ops", "--verify") == 0


def test_scan_fields_are_journaled_only_when_stamped():
    from repro.observe.journal import SCAN_FIELDS, OpRecord

    record = OpRecord(trace_id="t", command="checkout", status="ok", ts=1.0)
    assert not set(SCAN_FIELDS) & set(record.to_dict())
    record.rows_scanned, record.bytes_scanned = 7, 70
    record.rows_written = record.bytes_written = 0
    stamped = record.to_dict()
    assert {key: stamped[key] for key in SCAN_FIELDS} == {
        "rows_scanned": 7, "bytes_scanned": 70,
        "rows_written": 0, "bytes_written": 0,
    }
