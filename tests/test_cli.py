"""End-to-end tests for the orpheus CLI."""

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "data.csv").write_text(
        "protein1,protein2,coexpression\nENSP1,ENSP2,10\nENSP3,ENSP4,90\n"
    )
    (tmp_path / "schema.csv").write_text(
        "protein1,text\nprotein2,text\ncoexpression,integer\n"
        "primary_key,protein1,protein2\n"
    )
    return tmp_path


def run(workspace, *args) -> int:
    return main(["--root", str(workspace), *args])


class TestLifecycle:
    def test_full_flow(self, workspace, capsys):
        assert run(workspace, "create_user", "alice") == 0
        assert run(workspace, "config", "alice") == 0
        assert run(workspace, "whoami") == 0
        assert "alice" in capsys.readouterr().out

        assert (
            run(
                workspace,
                "init",
                "-d", "inter",
                "-f", str(workspace / "data.csv"),
                "-s", str(workspace / "schema.csv"),
            )
            == 0
        )
        work = workspace / "work.csv"
        assert (
            run(
                workspace,
                "checkout", "-d", "inter", "-v", "1", "-f", str(work),
            )
            == 0
        )
        with open(work, "a", newline="") as handle:
            handle.write("ENSP5,ENSP6,50\r\n")
        assert (
            run(
                workspace,
                "commit", "-d", "inter", "-f", str(work), "-m", "added",
            )
            == 0
        )
        assert run(workspace, "log", "-d", "inter") == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out and "added" in out

        assert run(workspace, "diff", "-d", "inter", "-a", "2", "-b", "1") == 0
        out = capsys.readouterr().out
        assert "only in v2: 1" in out

        assert run(workspace, "ls") == 0
        assert "inter" in capsys.readouterr().out

    def test_state_persists_between_invocations(self, workspace):
        run(workspace, "init", "-d", "x",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))
        # New invocation loads the pickled state.
        assert run(workspace, "log", "-d", "x") == 0

    def test_drop(self, workspace, capsys):
        run(workspace, "init", "-d", "x",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))
        assert run(workspace, "drop", "-d", "x") == 0
        assert run(workspace, "log", "-d", "x") == 1  # now an error

    def test_error_messages_not_tracebacks(self, workspace, capsys):
        code = run(workspace, "log", "-d", "ghost")
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_optimize_over_partitioned_model(self, workspace, capsys):
        run(workspace, "create_user", "a")
        run(workspace, "config", "a")
        run(workspace, "init", "-d", "x",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
            "--model", "partitioned_rlist")
        work = workspace / "w.csv"
        run(workspace, "checkout", "-d", "x", "-v", "1", "-f", str(work))
        with open(work, "a", newline="") as handle:
            handle.write("ENSP9,ENSP10,42\r\n")
        run(workspace, "commit", "-d", "x", "-f", str(work))
        assert run(workspace, "optimize", "-d", "x", "--gamma", "2.0") == 0
        assert "repartitioned" in capsys.readouterr().out

    def test_multi_version_checkout(self, workspace):
        run(workspace, "create_user", "a")
        run(workspace, "config", "a")
        run(workspace, "init", "-d", "x",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))
        w1 = workspace / "w1.csv"
        run(workspace, "checkout", "-d", "x", "-v", "1", "-f", str(w1))
        with open(w1, "a", newline="") as handle:
            handle.write("ENSP7,ENSP8,70\r\n")
        run(workspace, "commit", "-d", "x", "-f", str(w1))
        merged = workspace / "merged.csv"
        assert (
            run(
                workspace,
                "checkout", "-d", "x", "-v", "1", "2", "-f", str(merged),
            )
            == 0
        )
        lines = merged.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + union of records


class TestRaggedCsv:
    """A CSV row that does not fit the schema fails the commit whole: at
    f170a81 each of these landed in version 2 (NULL-padded, as an
    all-NULL record with a NULL primary key, truncated)."""

    @pytest.mark.parametrize(
        "line", ["ENSP5,7", "", "ENSP5,ENSP6,1,2,3"], ids=["short", "blank", "long"]
    )
    def test_commit_refuses_it_and_journals_the_error(
        self, workspace, capsys, line
    ):
        from repro.observe.journal import Journal

        assert run(
            workspace, "init", "-d", "inter",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        work = workspace / "work.csv"
        assert run(
            workspace, "checkout", "-d", "inter", "-v", "1", "-f", str(work)
        ) == 0
        with open(work, "a", newline="") as handle:
            handle.write(f"{line}\r\nENSP7,ENSP8,70\r\n")
        capsys.readouterr()
        assert run(workspace, "commit", "-d", "inter", "-f", str(work)) == 1
        assert "line 4" in capsys.readouterr().err
        assert run(workspace, "log", "-d", "inter") == 0
        assert "v2" not in capsys.readouterr().out
        last = Journal(str(workspace)).read()[-1]
        assert (last["command"], last["status"]) == ("commit", "error")
        assert last["error"]["type"] == "ValueError"
        assert "line 4" in last["error"]["message"]


class TestJsonOutputs:
    def _seed(self, workspace):
        run(workspace, "create_user", "a")
        run(workspace, "config", "a")
        run(workspace, "init", "-d", "inter",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))

    def test_ls_json(self, workspace, capsys):
        import json as _json

        self._seed(workspace)
        capsys.readouterr()
        assert run(workspace, "ls", "--json") == 0
        listing = _json.loads(capsys.readouterr().out)
        assert listing == [
            {
                "dataset": "inter",
                "versions": 1,
                "records": 2,
                "model": "SplitByRlistModel",
            }
        ]

    def test_log_json(self, workspace, capsys):
        import json as _json

        self._seed(workspace)
        capsys.readouterr()
        assert run(workspace, "log", "--json", "-d", "inter") == 0
        payload = _json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "inter"
        (version,) = payload["versions"]
        assert version["vid"] == 1
        assert version["parents"] == []
        assert version["records"] == 2
        assert version["author"] == "a"

    def test_log_ops_json(self, workspace, capsys):
        import json as _json

        self._seed(workspace)
        capsys.readouterr()
        assert run(workspace, "log", "--ops", "--json") == 0
        records = _json.loads(capsys.readouterr().out)
        assert [r["command"] for r in records] == ["init"]
        assert records[0]["status"] == "ok"


class TestRunCommand:
    def _seed(self, workspace):
        run(workspace, "init", "-d", "inter",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))

    def test_run_prints_rows(self, workspace, capsys):
        self._seed(workspace)
        capsys.readouterr()
        assert (
            run(
                workspace,
                "run",
                "SELECT protein1 FROM VERSION 1 OF CVD inter "
                "WHERE coexpression > 50",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "protein1"
        assert "ENSP3" in out

    def test_run_json(self, workspace, capsys):
        import json as _json

        self._seed(workspace)
        capsys.readouterr()
        assert (
            run(
                workspace,
                "run", "--json",
                "SELECT * FROM VERSION 1 OF CVD inter",
            )
            == 0
        )
        payload = _json.loads(capsys.readouterr().out)
        assert payload["total_rows"] == 2
        assert payload["columns"] == ["protein1", "protein2", "coexpression"]

    def test_run_limit_truncates_output_only(self, workspace, capsys):
        self._seed(workspace)
        capsys.readouterr()
        assert (
            run(
                workspace,
                "run", "--limit", "1",
                "SELECT * FROM VERSION 1 OF CVD inter",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "... (1 more rows)" in out


class TestJournalUniformity:
    """diff and run journal exactly like the mutating commands."""

    def _seed(self, workspace):
        run(workspace, "init", "-d", "inter",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"))

    def test_diff_and_run_journal(self, workspace):
        from repro.observe.journal import Journal

        self._seed(workspace)
        assert run(workspace, "diff", "-d", "inter", "-a", "1", "-b", "1") == 0
        assert (
            run(workspace, "run", "SELECT * FROM VERSION 1 OF CVD inter") == 0
        )
        records = Journal(str(workspace)).read()
        assert [r["command"] for r in records] == ["init", "diff", "run"]
        diff_record = records[1]
        assert diff_record["input_versions"] == [1, 1]
        assert diff_record["dataset"] == "inter"
        assert "rows" not in diff_record or diff_record["rows"] == 0
        run_record = records[2]
        assert run_record["rows"] == 2
        assert "trace_id" in run_record and "duration_s" in run_record

    def test_failed_run_journals_error(self, workspace):
        from repro.observe.journal import Journal

        self._seed(workspace)
        assert run(workspace, "run", "SELECT * FROM CVD ghost") == 1
        records = Journal(str(workspace)).read()
        assert records[-1]["command"] == "run"
        assert records[-1]["status"] == "error"

    def test_plain_readers_do_not_journal(self, workspace):
        from repro.observe.journal import Journal

        self._seed(workspace)
        assert run(workspace, "ls") == 0
        assert run(workspace, "log", "-d", "inter") == 0
        records = Journal(str(workspace)).read()
        assert [r["command"] for r in records] == ["init"]
