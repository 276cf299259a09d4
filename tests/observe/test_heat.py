"""The storage access observatory: EWMA heat determinism under the
injectable clock, amplification math against hand-computed fixtures,
the partition advisor, persistence, the ``orpheus heat`` CLI, and the
``heat_skew`` / ``io_amplification`` doctor probes."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.core.commands import Orpheus
from repro.observe.amplification import (
    amplification_report,
    bound_comparison,
    checkout_amplification,
)
from repro.observe.doctor import (
    probe_heat_skew,
    probe_io_amplification,
)
from repro.observe.heat import (
    AccessEvent,
    HeatAccountant,
    advise,
    build_event,
    heat_path,
    mine,
    mine_events,
    partition_of,
    resolve_access,
)
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.telemetry.clock import FrozenClock


@pytest.fixture
def frozen_clock():
    clock = FrozenClock(start=1_000_000.0)
    telemetry.set_clock(clock)
    yield clock
    telemetry.set_clock(None)


def touch(dataset="d", ts=0.0, **kwargs) -> AccessEvent:
    kwargs.setdefault("command", "checkout")
    kwargs.setdefault("model", "split_by_rlist")
    return AccessEvent(ts=ts, dataset=dataset, **kwargs)


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


class TestEwmaDecay:
    def test_first_touch_is_one(self):
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(ts=50.0))
        assert heat.datasets["d"]["heat"] == 1.0
        assert heat.datasets["d"]["touches"] == 1

    def test_touch_after_one_half_life_decays_by_half(self):
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(ts=0.0))
        heat.record(touch(ts=100.0))
        # 1.0 decayed one half-life (-> 0.5) plus the new touch.
        assert heat.datasets["d"]["heat"] == pytest.approx(1.5)
        assert heat.datasets["d"]["last_ts"] == 100.0

    def test_current_heat_decays_to_now(self, frozen_clock):
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(ts=telemetry.now()))
        entry = heat.datasets["d"]
        assert heat.current_heat(entry) == pytest.approx(1.0)
        frozen_clock.advance(200.0)  # two half-lives
        assert heat.current_heat(entry) == pytest.approx(0.25)

    def test_fold_is_deterministic(self):
        events = [
            touch(ts=float(i * 37 % 500), command=c)
            for i, c in enumerate(
                ["checkout", "commit", "diff", "checkout", "init"] * 4
            )
        ]
        events.sort(key=lambda e: e.ts)
        a = HeatAccountant(half_life_s=60.0)
        b = HeatAccountant(half_life_s=60.0)
        for event in events:
            a.record(event)
            b.record(event)
        da, db = a.to_dict(), b.to_dict()
        assert da == db
        # And a JSON round trip preserves the model bit-for-bit.
        assert HeatAccountant.from_dict(
            json.loads(json.dumps(da))
        ).to_dict() == da

    def test_out_of_order_timestamp_never_reheats(self):
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(ts=1000.0))
        heat.record(touch(ts=900.0))  # late arrival
        assert heat.datasets["d"]["last_ts"] == 1000.0
        assert heat.datasets["d"]["touches"] == 2

    def test_cold_fraction(self, frozen_clock):
        heat = HeatAccountant(half_life_s=10.0)
        heat.record(touch(ts=telemetry.now(), versions=(1,)))
        assert heat.cold_fraction() == 0.0
        frozen_clock.advance(10_000.0)
        assert heat.cold_fraction() == 1.0

    def test_half_life_env_override(self, monkeypatch):
        monkeypatch.setenv("ORPHEUS_HEAT_HALFLIFE_S", "42.5")
        assert HeatAccountant().half_life_s == 42.5
        monkeypatch.setenv("ORPHEUS_HEAT_HALFLIFE_S", "not-a-number")
        assert HeatAccountant().half_life_s == 3600.0


class TestEventResolution:
    def test_partition_of_monolithic_is_zero(self):
        orpheus = make_orpheus()
        assert partition_of(orpheus.cvd("d"), 1) == 0

    def test_partitioned_store_reports_real_partition(self):
        orpheus = make_orpheus(model="partitioned_rlist")
        cvd = orpheus.cvd("d")
        assert partition_of(cvd, 1) == cvd.model._partition_of[1]

    def test_resolve_access_denominator(self):
        orpheus = make_orpheus()
        info = resolve_access(orpheus, "d", [1])
        assert info["model"] == "split_by_rlist"
        assert info["rows_requested"] == 20
        assert info["partitions"] == (0,)

    def test_resolve_unknown_dataset_is_empty(self):
        info = resolve_access(make_orpheus(), "nope", [1])
        assert info == {
            "model": "", "rows_requested": 0, "partitions": ()
        }

    def test_build_event_coerces(self):
        orpheus = make_orpheus()
        event = build_event(
            orpheus, ts=1.0, command="checkout", dataset="d",
            versions=["1"], rows_returned=None, rows_scanned=30,
        )
        assert event.versions == (1,)
        assert event.rows_requested == 20
        assert event.rows_returned == 0
        assert event.rows_scanned == 30


class TestAmplification:
    def fixture_heat(self) -> HeatAccountant:
        heat = HeatAccountant(half_life_s=100.0)
        # Two checkouts of a 20-row version that each scanned 50 rows:
        # read amplification = 100 scanned / 40 requested = 2.5.
        for ts in (0.0, 1.0):
            heat.record(touch(
                ts=ts, versions=(1,), rows_requested=20,
                rows_returned=20, rows_scanned=50, bytes_scanned=500,
            ))
        # One commit of 10 rows that wrote 30 (three-way fanout):
        # write amplification = 30 / 10 = 3.0.
        heat.record(touch(
            ts=2.0, command="commit", versions=(2,), rows_requested=10,
            rows_written=30, rows_scanned=0,
        ))
        return heat

    def test_read_amplification_hand_computed(self):
        heat = self.fixture_heat()
        report = amplification_report(heat)
        checkout = report["split_by_rlist"]["checkout"]
        assert checkout["read_amplification"] == pytest.approx(2.5)
        assert checkout["events"] == 2
        assert checkout["rows_scanned"] == 100
        assert checkout_amplification(
            heat, "split_by_rlist"
        ) == pytest.approx(2.5)

    def test_write_amplification_hand_computed(self):
        heat = self.fixture_heat()
        commit = amplification_report(heat)["split_by_rlist"]["commit"]
        assert commit["write_amplification"] == pytest.approx(3.0)
        assert commit["read_amplification"] == 0.0

    def test_no_checkouts_means_no_factor(self):
        assert checkout_amplification(
            HeatAccountant(), "split_by_rlist"
        ) is None

    def test_bound_comparison_monolithic_uses_amp_budget(self, monkeypatch):
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "2.0")
        orpheus = make_orpheus()
        heat = self.fixture_heat()
        (row,) = bound_comparison(orpheus, heat)
        assert row["dataset"] == "d"
        assert row["read_amplification"] == pytest.approx(2.5)
        assert row["within_bound"] is False  # 2.5 > budget 2.0

    def test_bound_comparison_partitioned_reports_lyresplit_bound(self):
        orpheus = make_orpheus(model="partitioned_rlist")
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(
            ts=0.0, model="partitioned_rlist", versions=(1,),
            rows_requested=20, rows_scanned=20,
        ))
        (row,) = bound_comparison(orpheus, heat)
        assert row["bound_rows_per_checkout"] is not None
        assert row["within_bound"] is True


class TestAdvisor:
    def test_within_budget_keeps(self):
        orpheus = make_orpheus()
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(
            ts=0.0, versions=(1,), rows_requested=20, rows_scanned=20,
        ))
        (rec,) = advise(orpheus, heat, now=0.0)
        assert rec["kind"] == "keep"
        assert rec["rank"] == 1

    def test_amplified_monolithic_recommends_migration(self, monkeypatch):
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "2.0")
        orpheus = make_orpheus()
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(
            ts=0.0, versions=(1,), rows_requested=20, rows_scanned=200,
        ))
        (rec,) = advise(orpheus, heat, now=0.0)
        assert rec["kind"] == "migrate"
        assert rec["estimated_checkout_cost_delta"] > 0
        assert "partitioned_rlist" in rec["reason"]

    def test_recommendations_are_ranked(self, monkeypatch):
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "2.0")
        orpheus = make_orpheus()
        schema = Schema(
            [ColumnDef("key", TEXT), ColumnDef("value", INT)],
            primary_key=("key",),
        )
        orpheus.init(
            "e", schema, [(f"k{i}", i) for i in range(10)]
        )
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(
            ts=0.0, versions=(1,), rows_requested=20, rows_scanned=400,
        ))
        heat.record(touch(
            dataset="e", ts=0.0, versions=(1,), rows_requested=10,
            rows_scanned=10,
        ))
        recs = advise(orpheus, heat, now=0.0)
        assert [r["rank"] for r in recs] == [1, 2]
        assert recs[0]["dataset"] == "d"  # the big saving ranks first


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(touch(ts=5.0, versions=(1,), rows_scanned=7))
        heat.save(str(tmp_path))
        path = heat_path(str(tmp_path))
        assert path.exists()
        assert path.parent.name == "telemetry"
        loaded = HeatAccountant.load(str(tmp_path))
        assert loaded.to_dict() == heat.to_dict()

    def test_load_missing_or_corrupt_is_fresh(self, tmp_path):
        assert HeatAccountant.load(str(tmp_path)).events_total == 0
        path = heat_path(str(tmp_path))
        path.parent.mkdir(parents=True)
        path.write_text("{broken")
        assert HeatAccountant.load(str(tmp_path)).events_total == 0


class TestHeatCli:
    def seed(self, tmp_path) -> str:
        root = str(tmp_path)
        (tmp_path / "data.csv").write_text("key,value\nk1,1\nk2,2\n")
        (tmp_path / "schema.csv").write_text(
            "key,text\nvalue,integer\nprimary_key,key\n"
        )
        assert main([
            "--root", root, "init", "-d", "demo",
            "-f", str(tmp_path / "data.csv"),
            "-s", str(tmp_path / "schema.csv"),
        ]) == 0
        assert main([
            "--root", root, "checkout", "-d", "demo", "-v", "1",
            "-f", str(tmp_path / "out.csv"),
        ]) == 0
        return root

    def test_cli_folds_and_reports(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        capsys.readouterr()  # drain the seed commands' chatter
        assert main(["--root", root, "heat", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events_total"] == 2
        assert report["hot_datasets"][0]["key"] == "demo"
        assert report["hot_partitions"][0]["key"] == "demo:p0"
        assert report["hot_partitions"][0]["touches"] == 2
        checkout = report["amplification"]["split_by_rlist"]["checkout"]
        assert checkout["read_amplification"] is not None
        assert report["advisor"][0]["rank"] == 1

    def test_cli_from_flight_mines_journal(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        capsys.readouterr()
        heat_path(root).unlink()  # discard the live model entirely
        assert main([
            "--root", root, "heat", "--from-flight", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["source"] == "flight"
        # Both CLI invocations journal, so both mine back (with zero
        # scan counts -- the journal predates scan stamping).
        assert report["events_total"] == 2
        assert report["hot_datasets"][0]["key"] == "demo"

    def test_cli_text_rendering(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        capsys.readouterr()
        assert main(["--root", root, "heat"]) == 0
        out = capsys.readouterr().out
        assert "hot datasets" in out
        assert "advisor" in out

    def test_mine_matches_journal_touches(self, tmp_path):
        root = self.seed(tmp_path)
        from repro.cli import load_state

        mined = mine(root, load_state(root))
        live = HeatAccountant.load(root)
        # Touch accounting agrees exactly with the live fold; only the
        # scan counts differ (journal records carry none).
        assert mined.events_total == live.events_total == 2
        for table in ("datasets", "versions", "partitions"):
            mined_table = getattr(mined, table)
            live_table = getattr(live, table)
            assert set(mined_table) == set(live_table)
            for key, entry in mined_table.items():
                assert entry["touches"] == live_table[key]["touches"]


@pytest.mark.parametrize(
    "shape,mined",
    [
        ({"versions": [2]}, (2,)),
        # The live fold reads only ``versions``; so does mining.
        ({"params": {"versions": [3]}}, ()),
        ({"versions": [2], "params": {"versions": [3]}}, (2,)),
    ],
    ids=["versions", "params-only", "both"],
)
def test_mining_reads_a_flight_records_own_versions(tmp_path, shape, mined):
    from repro.service.recorder import FlightRecorder

    recorder = FlightRecorder(root=str(tmp_path))
    recorder.append({
        "kind": "request", "ts": 1.0, "op": "checkout", "trace": "t" * 16,
        "digest": "d" * 16, "dataset": "d", "status": "ok",
        "total_s": 0.001, **shape,
    })
    recorder.close()
    (event,) = mine_events(str(tmp_path))
    assert (event.command, event.dataset, event.versions) == (
        "checkout", "d", mined,
    )


class TestDoctorProbes:
    def test_no_heat_is_ok(self, tmp_path):
        result = probe_heat_skew(None, str(tmp_path))
        assert result.severity == "ok"
        assert result.summary == "no heat recorded"
        result = probe_io_amplification(None, str(tmp_path))
        assert result.severity == "ok"

    def write_heat(self, root, heat) -> None:
        heat.save(root)

    def test_heat_skew_warns_over_budget(self, tmp_path, monkeypatch):
        heat = HeatAccountant(half_life_s=1e9)  # no decay in-test
        for _ in range(8):
            heat.record(touch(ts=0.0, partitions=(0,)))
        heat.record(touch(ts=0.0, partitions=(1,)))
        self.write_heat(str(tmp_path), heat)
        monkeypatch.setenv("ORPHEUS_HEAT_SKEW_FACTOR", "100")
        assert probe_heat_skew(None, str(tmp_path)).severity == "ok"
        monkeypatch.setenv("ORPHEUS_HEAT_SKEW_FACTOR", "1.5")
        result = probe_heat_skew(None, str(tmp_path))
        assert result.severity == "warn"
        assert result.data["skew_by_dataset"]["d"] > 1.5
        assert "optimize" in result.remediation

    def test_single_partition_never_skews(self, tmp_path, monkeypatch):
        heat = HeatAccountant(half_life_s=1e9)
        for _ in range(10):
            heat.record(touch(ts=0.0, partitions=(0,)))
        self.write_heat(str(tmp_path), heat)
        monkeypatch.setenv("ORPHEUS_HEAT_SKEW_FACTOR", "1.01")
        assert probe_heat_skew(None, str(tmp_path)).severity == "ok"

    def test_io_amplification_severity_thresholds(
        self, tmp_path, monkeypatch
    ):
        heat = HeatAccountant(half_life_s=1e9)
        heat.record(touch(
            ts=0.0, rows_requested=10, rows_scanned=30,  # amp 3.0
        ))
        self.write_heat(str(tmp_path), heat)
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "4.0")
        assert probe_io_amplification(
            None, str(tmp_path)
        ).severity == "ok"
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "2.0")
        assert probe_io_amplification(
            None, str(tmp_path)
        ).severity == "warn"
        # amp 3.0 > 4 x budget 0.5 -> fail (budget floor is 1.0, so
        # use a scan heavy enough to breach 4x).
        heat.record(touch(
            ts=1.0, rows_requested=10, rows_scanned=170,  # total amp 10
        ))
        self.write_heat(str(tmp_path), heat)
        monkeypatch.setenv("ORPHEUS_AMP_BUDGET", "2.0")
        assert probe_io_amplification(
            None, str(tmp_path)
        ).severity == "fail"

    def test_probes_registered_in_run_doctor(self, tmp_path):
        from repro.observe.doctor import run_doctor

        report = run_doctor(make_orpheus(), str(tmp_path))
        probes = {r.probe for r in report.results}
        assert {"heat_skew", "io_amplification"} <= probes
