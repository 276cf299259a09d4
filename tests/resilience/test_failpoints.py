"""The one failpoint registry: spec grammar, arming, count-limited
firing, the stats surface — each checked on a storage site and a
service site, since both families share every line of it."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.resilience import failpoints
from repro.resilience.failpoints import (
    CRASH_EXIT_CODE,
    FailpointError,
    REGISTERED,
    SERVICE_SITES,
    SITE_ACTIONS,
    STORAGE_SITES,
    parse_spec,
)

#: One representative per family; every test below runs on both.
both_families = pytest.mark.parametrize(
    "site", ["journal.before_append", "worker.mid_execute"]
)


class TestParseSpec:
    @both_families
    def test_single_entry(self, site):
        parsed = parse_spec(f"{site}=error")
        assert set(parsed) == {site}
        assert (parsed[site].kind, parsed[site].arg) == ("error", None)
        assert parsed[site].remaining is None

    @both_families
    def test_crash_exit_codes(self, site):
        assert parse_spec(f"{site}=crash")[site].arg == CRASH_EXIT_CODE
        assert parse_spec(f"{site}=crash:99")[site].arg == 99

    def test_multiple_entries_with_args_and_counts(self):
        parsed = parse_spec(
            "state.before_save=error@3,journal.after_begin=delay:0.25;"
            "conn.before_send=torn@1 , csv.mid_write=delay"
        )
        assert parsed["state.before_save"].remaining == 3
        assert parsed["journal.after_begin"].kind == "delay"
        assert parsed["journal.after_begin"].arg == 0.25
        assert parsed["conn.before_send"].kind == "torn"
        assert parsed["conn.before_send"].remaining == 1
        assert parsed["csv.mid_write"].arg == 0.05

    def test_empty_items_skipped(self):
        assert parse_spec("") == {}
        assert parse_spec(" , ;") == {}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            parse_spec("no.such.point=crash")

    @both_families
    def test_unknown_action_rejected(self, site):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            parse_spec(f"{site}=explode")

    @both_families
    def test_site_action_rejected_where_no_caller_acts_on_it(self, site):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            parse_spec(f"{site}=torn")

    @both_families
    def test_malformed_entry_rejected(self, site):
        with pytest.raises(ValueError, match="malformed"):
            parse_spec(site)

    @both_families
    def test_nonpositive_count_rejected(self, site):
        with pytest.raises(ValueError, match="positive"):
            parse_spec(f"{site}=error@0")


class TestFire:
    @both_families
    def test_unarmed_fast_path_takes_no_lock(self, site, monkeypatch):
        monkeypatch.setattr(failpoints, "_lock", None)  # any use would raise
        assert failpoints.fire(site) is None

    def test_unregistered_site_raises_even_unarmed(self):
        with pytest.raises(ValueError, match="unregistered"):
            failpoints.fire("made.up.site")

    def test_activate_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            failpoints.activate("made.up.site", "error")
        with pytest.raises(ValueError, match="unknown failpoint action"):
            failpoints.activate("csv.mid_write", "explode")

    @both_families
    def test_error_action_raises(self, site):
        failpoints.activate(site, "error")
        with pytest.raises(FailpointError, match=site):
            failpoints.fire(site)

    def test_delay_action_sleeps_and_continues(self):
        failpoints.activate("csv.mid_write", "delay", 0.05)
        started = time.monotonic()
        assert failpoints.fire("csv.mid_write") is None
        assert time.monotonic() - started >= 0.04

    @both_families
    def test_count_limited_disarms_after_n_firings(self, site):
        failpoints.activate(site, "error", count=2)
        for _ in range(2):
            with pytest.raises(FailpointError):
                failpoints.fire(site)
        assert failpoints.fire(site) is None  # expired: back to a no-op
        assert site not in failpoints.active()

    def test_site_specific_kind_returned_to_caller(self):
        failpoints.activate("conn.before_send", "torn")
        assert failpoints.fire("conn.before_send") == "torn"
        failpoints.activate("cache.corrupt_entry", "corrupt")
        assert failpoints.fire("cache.corrupt_entry") == "corrupt"

    @both_families
    def test_deactivate_clear_and_configure(self, site):
        failpoints.activate(site, "error")
        failpoints.deactivate(site)
        assert failpoints.fire(site) is None
        failpoints.activate(site, "error")
        failpoints.configure("journal.after_append=error")
        assert set(failpoints.active()) == {"journal.after_append"}
        failpoints.clear()
        assert failpoints.active() == {}


class TestStats:
    @both_families
    def test_stats_reports_armed_and_fired(self, site):
        failpoints.activate(site, "error", count=2)
        with pytest.raises(FailpointError):
            failpoints.fire(site)
        assert failpoints.stats() == {
            "armed": {site: "error@1"},
            "fired": {site: 1},
            "fired_total": 1,
        }

    def test_fired_counts_survive_disarm_until_clear(self):
        failpoints.activate("conn.after_recv", "reset", count=1)
        assert failpoints.fire("conn.after_recv") == "reset"
        assert failpoints.stats()["armed"] == {}
        assert failpoints.stats()["fired_total"] == 1
        failpoints.clear()
        assert failpoints.stats()["fired_total"] == 0


class TestRegistry:
    def test_one_registry_holds_both_families(self):
        assert len(STORAGE_SITES) == 10 and len(SERVICE_SITES) == 6
        assert REGISTERED == STORAGE_SITES | SERVICE_SITES
        assert set(SITE_ACTIONS) <= SERVICE_SITES
        for name in REGISTERED:
            component, _, site = name.partition(".")
            assert component and site, name

    def test_every_registered_point_is_wired_into_source(self):
        """Each registered name appears in a fire() call somewhere under
        src/ — a stale registry entry would silently shrink the crash
        and chaos matrices."""
        src = Path(__file__).resolve().parents[2] / "src"
        corpus = "\n".join(
            path.read_text(encoding="utf-8")
            for path in src.rglob("*.py")
            if path.name != "failpoints.py"
        )
        for name in REGISTERED:
            assert f'fire("{name}")' in corpus, (
                f"failpoint {name} registered but never fired in src/"
            )
