"""The storage access observatory: EWMA heat determinism under the
injectable clock, amplification math against hand-computed fixtures,
the partition advisor, mining from the journal, the ``orpheus heat``
CLI, and the ``heat_skew`` / ``io_amplification`` doctor probes."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import load_state, main
from repro.core.commands import Orpheus
from repro.invariants import within_tolerance
from repro.observe import heat as heat_module
from repro.observe.amplification import (
    amplification_report,
    checkout_amplification,
)
from repro.observe.doctor import Checkup, run_probe
from repro.observe.heat import (
    AccessEvent,
    HeatAccountant,
    advise,
    build_event,
    mine,
    partition_of,
    resolve_access,
)
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.telemetry.clock import FrozenClock
from tests.observe.test_doctor import degrade


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
        for table in ("datasets", "versions", "partitions", "samples"):
            assert getattr(a, table) == getattr(b, table)
        assert a.events_total == b.events_total == len(events)

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

    def test_half_life_is_the_module_constant(self, monkeypatch):
        assert HeatAccountant().half_life_s == 3600.0
        monkeypatch.setattr(heat_module, "HALF_LIFE_S", 42.5)
        assert HeatAccountant().half_life_s == 42.5


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

    def test_resolve_skips_a_version_the_state_lost(self):
        """A recorded access to a version the live state no longer holds
        (dropped and re-initialised, or an older generation restored)
        counts no rows instead of raising."""
        info = resolve_access(make_orpheus(), "d", (1, 99))
        assert info["rows_requested"] == 20
        assert info["partitions"] == (0,)

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



def partitioned_touch(vid: int = 1) -> HeatAccountant:
    heat = HeatAccountant(half_life_s=100.0)
    heat.record(touch(
        ts=0.0, model="partitioned_rlist", versions=(vid,),
        rows_requested=20, rows_scanned=20,
    ))
    return heat


class TestAdvisor:
    def test_partitioned_store_within_mu_keeps(self):
        orpheus = make_orpheus(model="partitioned_rlist")
        (rec,) = advise(orpheus, partitioned_touch(), now=0.0)
        assert rec["kind"] == "keep"
        assert within_tolerance(
            rec["observed_checkout_cost"], rec["optimal_checkout_cost"]
        )

    def test_degraded_store_repartitions_until_optimized(self):
        orpheus = make_orpheus(model="partitioned_rlist")
        degrade(orpheus)
        heat = partitioned_touch(vid=4)
        (rec,) = advise(orpheus, heat, now=0.0)
        assert rec["kind"] == "repartition"
        assert not within_tolerance(
            rec["observed_checkout_cost"], rec["optimal_checkout_cost"]
        )
        assert rec["estimated_checkout_cost_delta"] > 0
        assert "orpheus optimize -d d" in rec["reason"]
        del orpheus.cvd("d").model._route_commit  # restore the real rule
        orpheus.optimize("d")
        (rec,) = advise(orpheus, heat, now=0.0)
        assert rec["kind"] == "keep"

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
        monkeypatch.setattr(heat_module, "AMP_BUDGET", 2.0)
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
        monkeypatch.setattr(heat_module, "AMP_BUDGET", 2.0)
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

    def test_cli_leaves_no_telemetry_directory(self, tmp_path):
        """Heat and stats are mined, never kept: init, a checkout and a
        commit write no ``.orpheus/telemetry/`` and no
        ``.orpheus/telemetry.json``."""
        root = self.seed(tmp_path)
        with open(tmp_path / "out.csv", "a") as handle:
            handle.write("k3,3\n")
        assert main([
            "--root", root, "commit", "-d", "demo",
            "-f", str(tmp_path / "out.csv"), "-m", "grow",
        ]) == 0
        assert not (tmp_path / ".orpheus" / "telemetry.json").exists()
        assert not (tmp_path / ".orpheus" / "telemetry").exists()

    def test_cli_text_rendering(self, tmp_path, capsys):
        root = self.seed(tmp_path)
        capsys.readouterr()
        assert main(["--root", root, "heat"]) == 0
        out = capsys.readouterr().out
        assert "hot datasets" in out
        assert "advisor" in out

    def test_mined_cli_scans_equal_the_commands_counters(self, tmp_path):
        """The journal carries each CLI command's scan footprint, so the
        mined checkout sample scans exactly what the checkouts'
        ``storage.io`` counters say they scanned."""

        def last_command_scanned() -> int:
            registry = telemetry.get_registry()  # reset by every main()
            return registry.counter_value(
                "storage.io.seq_rows"
            ) + registry.counter_value("storage.io.random_rows")

        root = self.seed(tmp_path)  # its last command is a checkout
        scanned = last_command_scanned()
        for _ in range(3):
            (tmp_path / "out.csv").unlink()
            assert main([
                "--root", root, "checkout", "-d", "demo", "-v", "1",
                "-f", str(tmp_path / "out.csv"),
            ]) == 0
            scanned += last_command_scanned()
        assert scanned > 0
        sample = mine(root, load_state(root)).samples[
            "split_by_rlist|checkout"
        ]
        assert sample["events"] == 4
        assert sample["rows_scanned"] == scanned

    def test_mine_matches_journal_touches(self, tmp_path):
        """Every successful journaled heat command is one mined touch,
        charged to its dataset, its version and its partition."""
        root = self.seed(tmp_path)
        mined = mine(root, load_state(root))
        assert mined.events_total == 2  # init + checkout
        assert mined.datasets["demo"]["touches"] == 2
        assert mined.versions["demo:1"]["touches"] == 2
        assert mined.partitions["demo:p0"]["touches"] == 2
        assert set(mined.samples) == {
            "split_by_rlist|init", "split_by_rlist|checkout",
        }


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
    heat = mine(str(tmp_path))
    assert heat.events_total == 1
    assert set(heat.samples) == {"(unknown)|checkout"}
    assert set(heat.datasets) == {"d"}
    assert set(heat.versions) == {f"d:{vid}" for vid in mined}


def mined(heat) -> Checkup:
    """A doctor run whose mined heat model is ``heat``."""
    checkup = Checkup()
    checkup.heat = heat
    return checkup


class TestDoctorProbes:
    def test_no_heat_is_ok(self):
        (result,) = run_probe("heat_skew", mined(HeatAccountant()))
        assert result.severity == "ok"
        assert result.summary == "no heat recorded"
        (result,) = run_probe("io_amplification", mined(HeatAccountant()))
        assert result.severity == "ok"

    def test_heat_skew_warns_over_budget(self, monkeypatch):
        heat = HeatAccountant(half_life_s=1e9)  # no decay in-test
        for _ in range(8):
            heat.record(touch(ts=0.0, partitions=(0,)))
        heat.record(touch(ts=0.0, partitions=(1,)))
        monkeypatch.setattr(heat_module, "HEAT_SKEW_FACTOR", 100.0)
        assert run_probe("heat_skew", mined(heat))[0].severity == "ok"
        monkeypatch.setattr(heat_module, "HEAT_SKEW_FACTOR", 1.5)
        (result,) = run_probe("heat_skew", mined(heat))
        assert result.severity == "warn"
        assert result.data["skew_by_dataset"]["d"] > 1.5
        assert "optimize" in result.remediation

    def test_single_partition_never_skews(self, monkeypatch):
        heat = HeatAccountant(half_life_s=1e9)
        for _ in range(10):
            heat.record(touch(ts=0.0, partitions=(0,)))
        monkeypatch.setattr(heat_module, "HEAT_SKEW_FACTOR", 1.01)
        assert run_probe("heat_skew", mined(heat))[0].severity == "ok"

    def test_io_amplification_severity_thresholds(self, monkeypatch):
        heat = HeatAccountant(half_life_s=1e9)
        heat.record(touch(
            ts=0.0, rows_requested=10, rows_scanned=30,  # amp 3.0
        ))
        monkeypatch.setattr(heat_module, "AMP_BUDGET", 4.0)
        assert run_probe("io_amplification", mined(heat))[0].severity == "ok"
        monkeypatch.setattr(heat_module, "AMP_BUDGET", 2.0)
        assert run_probe("io_amplification", mined(heat))[0].severity == "warn"
        # Total amp 10 > 4 x budget 2.0 -> fail.
        heat.record(touch(
            ts=1.0, rows_requested=10, rows_scanned=170,
        ))
        assert run_probe("io_amplification", mined(heat))[0].severity == "fail"

    def test_probes_registered_in_run_doctor(self, tmp_path):
        from repro.observe.doctor import run_doctor

        report = run_doctor(make_orpheus(), str(tmp_path))
        probes = {r.probe for r in report.results}
        assert {"heat_skew", "io_amplification"} <= probes

    def test_run_doctor_mines_the_journal(self, tmp_path):
        """The probes read the mined model: a CLI repository's
        checkouts reach ``io_amplification`` with no heat file."""
        from repro.observe.doctor import run_doctor

        root = TestHeatCli().seed(tmp_path)
        results = {
            r.probe: r for r in run_doctor(load_state(root), root).results
        }
        amps = results["io_amplification"].data[
            "checkout_read_amplification"
        ]
        assert amps["split_by_rlist"] > 0
