"""``orpheus doctor``: probe severities, remediation hints, exit codes,
and the CLI/CI surface (healthy store exits 0, degraded store exits 1)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.commands import Orpheus
from repro.observe.doctor import (
    Checkup,
    judge_report,
    probe_checkout_cost,
    probe_orphaned_versions,
    render_text,
    run_doctor,
)
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.relational.arrays import rid_array
from repro.relational.expressions import col
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import StateStore


def make_orpheus(model: str = "split_by_rlist") -> Orpheus:
    orpheus = Orpheus()
    schema = Schema(
        [ColumnDef("key", TEXT), ColumnDef("value", INT)],
        primary_key=("key",),
    )
    orpheus.init(
        "d", schema, [(f"k{i}", i) for i in range(20)], model=model
    )
    return orpheus


def degrade(orpheus) -> None:
    """Cram disjoint versions into one partition so the live checkout
    cost blows past the migration tolerance µ."""
    store = orpheus.cvd("d").model
    assert isinstance(store, PartitionedRlistStore)
    store._route_commit = lambda parent_membership, membership: 0
    cvd = orpheus.cvd("d")
    for j in range(3):
        rows = [(f"g{j}_{i}", i) for i in range(20)]
        cvd.commit(rows, message=f"disjoint {j}")


class TestProbes:
    def test_healthy_repository_is_all_ok(self):
        report = run_doctor(make_orpheus())
        assert report.severity == "ok"
        assert report.exit_code == 0

    def test_optimize_heals_the_degraded_store(self):
        orpheus = make_orpheus("partitioned_rlist")
        degrade(orpheus)
        del orpheus.cvd("d").model._route_commit  # restore the real rule
        orpheus.optimize("d")
        assert probe_checkout_cost(Checkup(orpheus))[0].severity == "ok"

    @pytest.mark.parametrize(
        "model", ["split_by_rlist", "partitioned_rlist", "table_per_version"]
    )
    def test_orphaned_version_fails_until_the_state_is_restored(
        self, model, tmp_path
    ):
        """Fire: the versioning row of a version the graph still lists is
        gone from the tables. Clear: the remediation the probe states —
        put the backup ``state.pkl`` back."""
        store = StateStore(tmp_path)
        orpheus = make_orpheus(model)
        store.save(orpheus)  # becomes state.pkl.bak at the next save
        assert probe_orphaned_versions(Checkup(orpheus)) == []
        if model == "table_per_version":
            del orpheus.cvd("d").model._tables[1]
        else:
            versioning = orpheus.database.table(
                orpheus.cvd("d").model.table_names()[1]
            )
            assert versioning.delete_where(col("vid") == 1) == 1
        store.save(orpheus)

        damaged, _info = store.load(warn=None)
        (result,) = probe_orphaned_versions(Checkup(damaged))
        assert result.severity == "fail"
        assert result.data["missing_physical"] == [1]
        assert "restore .orpheus/state.pkl from backup" in result.remediation

        store.path.write_bytes(store.backup_paths[0].read_bytes())
        restored, _info = store.load(warn=None)
        assert probe_orphaned_versions(Checkup(restored)) == []

    def test_a_version_the_graph_does_not_list_fails(self):
        orpheus = make_orpheus()
        model = orpheus.cvd("d").model
        model.insert_versions_bulk([(9, rid_array((1, 2)))])
        (result,) = probe_orphaned_versions(Checkup(orpheus))
        assert result.severity == "fail"
        assert result.data["missing_metadata"] == [9]


    def test_rlist_rows_report_mp_beside_them_and_leave_the_memo_alone(self):
        """Thirty versions, each one row short of its parent's: as each
        version's bound θ·|v| falls the rows store one whole every few,
        while MP under the one looser bound θ·max|v| stores less. That
        is information, not a finding; the probe rebuilds versions for
        itself, and the CVD's memo stays empty."""
        orpheus = make_orpheus()
        cvd = orpheus.cvd("d")
        rows = [(f"r{i}", i) for i in range(30)]
        vid = cvd.commit(rows)
        while len(rows) > 2:
            rows = rows[1:]
            vid = cvd.commit(rows, parents=(vid,))
        cvd._membership.clear()
        (line,) = [
            line for line in run_doctor(orpheus).to_dict()["probes"]
            if line["probe"] == "delta_chains[d]"
        ]
        assert line["severity"] == "ok" and "remediation" not in line
        data = line["data"]
        assert data["stored_rids"] > 1.5 * data["mp_rids"]
        assert data["delta_rows"] > 0 and data["max_recreation_ratio"] <= 2
        assert cvd._membership == {}


class TestReport:
    def test_json_shape(self):
        report = run_doctor(make_orpheus())
        data = json.loads(report.to_json())
        assert data["severity"] == "ok"
        probes = {p["probe"] for p in data["probes"]}
        assert "journal" in probes
        assert any(p.startswith("orphaned_versions") for p in probes)

    def test_text_render_shows_remediation_on_failure(self):
        orpheus = make_orpheus("partitioned_rlist")
        degrade(orpheus)
        text = render_text(run_doctor(orpheus).to_dict())
        assert "[FAIL]" in text
        assert "->" in text
        assert text.strip().endswith("overall: fail")


#: A healthy orpheusd report, as far as the judge reads it.
HEALTHY = {
    "server": {"pid": 7, "draining": False},
    "uptime_s": 12.0,
    "requests": {
        "total": 200, "busy": 1, "worker_errors": 0, "deadline_exceeded": 0,
    },
    "scheduler": {"write_queue_depth": 0, "write_queue_capacity": 8},
    "cache": {"hit_rate": 0.5},
    "degrade": {"degraded": False, "cause": None},
    "quarantine": {"quarantined": 0, "refused_total": 0},
}

#: finding -> (the report blocks that make it fire, a phrase of its
#: summary, a phrase of its remedy).
FINDINGS = {
    "draining": (
        {"server": {"pid": 7, "draining": True}}, "daemon is draining", "",
    ),
    "writer_queue": (
        {"scheduler": {"write_queue_depth": 8, "write_queue_capacity": 8}},
        "writer queue is saturated",
        "--queue-depth",
    ),
    "degraded": (
        {"degrade": {"degraded": True, "cause": "OSError: disk full"}},
        "degraded read-only mode (OSError: disk full)",
        "exits degraded mode on success",
    ),
    "quarantine": (
        {"quarantine": {"quarantined": 2, "refused_total": 5}},
        "2 request digest(s) quarantined",
        "remote -- flush-quarantine",
    ),
    "worker_errors": (
        {"requests": {**HEALTHY["requests"], "worker_errors": 3}},
        "worker-error rate 1.5% exceeds the 1.0% budget",
        "repeated crashers quarantine automatically",
    ),
    "deadline_exceeded": (
        {"requests": {**HEALTHY["requests"], "deadline_exceeded": 3}},
        "deadline-shed rate 1.5% exceeds the 1.0% budget",
        "ORPHEUS_CLIENT_DEADLINE_MS",
    ),
}


class TestJudge:
    """``judge_report`` is the one reader of orpheusd's report that
    turns it into verdicts; each finding fires on its own and clears
    when the report is healthy again."""

    def test_a_healthy_report_is_one_ok_line(self):
        (verdict,) = judge_report(HEALTHY)
        assert (verdict.probe, verdict.severity) == ("service_health", "ok")
        assert verdict.summary == (
            "daemon healthy: pid 7, uptime 12s, 200 requests (1 shed busy), "
            "cache hit rate 50%, 0 worker error(s), 0 deadline shed(s), "
            "quarantine empty"
        )
        assert verdict.data["pid"] == 7

    @pytest.mark.parametrize("finding", list(FINDINGS))
    def test_each_finding_fires_with_its_remedy(self, finding):
        blocks, summary, remedy = FINDINGS[finding]
        (verdict,) = judge_report({**HEALTHY, **blocks})
        assert verdict.probe == f"service_health[{finding}]"
        assert verdict.severity == "warn"
        assert summary in verdict.summary
        assert remedy in verdict.remediation
        assert verdict.data["budget_pct"] == 1.0

    def test_rates_at_the_budget_do_not_fire(self):
        requests = {**HEALTHY["requests"], "worker_errors": 2,
                    "deadline_exceeded": 2}
        (verdict,) = judge_report({**HEALTHY, "requests": requests})
        assert verdict.severity == "ok"

    def test_every_finding_is_its_own_verdict(self):
        report = dict(HEALTHY)
        for blocks, _summary, _remedy in FINDINGS.values():
            report.update(blocks)
        report["requests"] = {
            **HEALTHY["requests"], "worker_errors": 3, "deadline_exceeded": 3,
        }
        verdicts = judge_report(report)
        assert [v.probe for v in verdicts] == [
            f"service_health[{finding}]" for finding in FINDINGS
        ]
        assert {v.severity for v in verdicts} == {"warn"}

    def test_an_empty_report_judges_ok(self):
        (verdict,) = judge_report({})
        assert verdict.severity == "ok"


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


class TestCliDoctor:
    def test_healthy_repo_exits_zero(self, workspace, capsys):
        assert run(
            workspace,
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        assert run(workspace, "doctor") == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out

    def test_doctor_json_is_parseable(self, workspace, capsys):
        assert run(
            workspace,
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        capsys.readouterr()
        assert run(workspace, "doctor", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["severity"] == "ok"

    def test_degraded_repo_exits_nonzero(self, workspace, capsys, monkeypatch):
        assert run(
            workspace,
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
            "--model", "partitioned_rlist",
        ) == 0
        # After init partition 0 exists; route every later (disjoint)
        # commit into it so the live checkout cost blows past µ.
        monkeypatch.setattr(
            PartitionedRlistStore,
            "_route_commit",
            lambda self, parent_membership, membership: 0,
        )
        for j in range(3):
            csv = workspace / f"g{j}.csv"
            csv.write_text(
                "key,value\n"
                + "".join(f"g{j}_{i},{i}\n" for i in range(20))
            )
            assert run(
                workspace, "commit", "-d", "d", "-f", str(csv), "-m", "x"
            ) == 0
        capsys.readouterr()
        assert run(workspace, "doctor") == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "orpheus optimize" in out


class TestCheckup:
    def test_one_run_reads_each_shared_source_once(
        self, workspace, monkeypatch
    ):
        """State integrity, the journal and the mined heat are read once
        per doctor run, however many probes judge them."""
        from repro.cli import load_state
        from repro.observe import heat
        from repro.observe.journal import Journal

        assert run(
            workspace,
            "init", "-d", "d",
            "-f", str(workspace / "data.csv"),
            "-s", str(workspace / "schema.csv"),
        ) == 0
        work = workspace / "work.csv"
        assert run(workspace, "checkout", "-d", "d", "-v", "1", "-f", str(work)) == 0
        with open(work, "a") as handle:
            handle.write("k99,99\n")
        assert run(workspace, "commit", "-d", "d", "-f", str(work)) == 0
        calls = {"integrity": 0, "read": 0, "mine": 0}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(StateStore, "integrity", "integrity")
        counted(Journal, "read", "read")
        counted(heat, "mine", "mine")
        report = run_doctor(load_state(str(workspace)), str(workspace))
        assert calls == {"integrity": 1, "read": 1, "mine": 1}
        probes = {result.probe for result in report.results}
        assert {"journal", "backup_freshness", "heat_skew"} <= probes
