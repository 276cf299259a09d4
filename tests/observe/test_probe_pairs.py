"""Every doctor probe fires, and the remediation it prints clears it.

At least one case per entry of :data:`repro.observe.doctor.PROBES`: the
case drives a repository (or an in-process orpheusd) into a state the
probe exists to catch, takes the doctor's report, then does what the
remediation names — a CLI command where one exists — and takes the
report again. The parametrization must cover ``PROBES`` exactly, so a
probe added without a pair fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from repro import telemetry
from repro.cli import load_state, main
from repro.core.commands import Orpheus
from repro.invariants import within_tolerance
from repro.observe.doctor import PROBES, run_doctor
from repro.observe.journal import Journal
from repro.pagestore import pages as pagefiles
from repro.relational.arrays import RidDelta
from repro.relational.expressions import col
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience import failpoints
from repro.resilience.statestore import LAYOUT_ENV, MAGIC, StateStore
from repro.service.client import ServiceError
from repro.service.recorder import FlightRecorder, list_segments

from tests.service.conftest import DaemonHandle

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)


class Scene:
    """One repository under test and the ways to act on it."""

    def __init__(self, root, monkeypatch) -> None:
        self.root = root
        self.monkeypatch = monkeypatch
        self.work = root / "work.csv"
        (root / "schema.csv").write_text(
            "key,text\nvalue,integer\nprimary_key,key\n"
        )

    def cli(self, *args) -> str:
        """Run one CLI command, which must succeed; returns its stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--root", str(self.root), *args]) == 0, args
        return out.getvalue()

    def init(self) -> None:
        """``orpheus init`` a 20-row CVD ``d``."""
        data = self.root / "data.csv"
        data.write_text(
            "key,value\n" + "".join(f"k{i},{i}\n" for i in range(20))
        )
        self.cli(
            "init", "-d", "d", "-f", str(data),
            "-s", str(self.root / "schema.csv"),
        )

    def edit(self) -> None:
        """Check v1 out to the work file and commit one row more."""
        self.cli("checkout", "-d", "d", "-v", "1", "-f", str(self.work))
        with open(self.work, "a") as handle:
            handle.write("k-extra,99\n")
        self.cli("commit", "-d", "d", "-f", str(self.work))

    def save(self, orpheus) -> None:
        StateStore(self.root).save(orpheus)

    def report(self):
        return run_doctor(load_state(str(self.root)), str(self.root))

    def doctor(self) -> dict:
        """What ``orpheus doctor --json`` prints for this repository."""
        return self.report().to_dict()


def library_cvd(model: str) -> Orpheus:
    """A 20-row CVD ``d`` built through the library, not the CLI."""
    orpheus = Orpheus()
    orpheus.init("d", SCHEMA, disjoint("k"), model=model)
    return orpheus


def routed(orpheus, route, commits) -> None:
    """Commit ``commits`` (rows, parents) with the partitioner's online
    placement overridden by ``route``."""
    cvd = orpheus.cvd("d")
    cvd.model._route_commit = route
    for rows, parents in commits:
        cvd.commit(rows, parents=parents, message="routed")
    del cvd.model._route_commit


def disjoint(tag: str, count: int = 20) -> list[tuple]:
    return [(f"{tag}{i}", i) for i in range(count)]


# ----------------------------------------------------------------------
# The cases: each returns (report when fired, report after the
# remediation).
# ----------------------------------------------------------------------
def checkout_cost(scene):
    orpheus = library_cvd("partitioned_rlist")
    routed(orpheus, lambda parents, membership: 0, [
        (disjoint(f"g{j}_"), ()) for j in range(3)
    ])
    scene.save(orpheus)
    report = scene.report()
    assert report.exit_code == 1
    fired = report.to_dict()
    (line,) = lines(fired, "checkout_cost")
    assert line["severity"] == "fail"
    data = line["data"]
    assert not within_tolerance(
        data["current_cost"], data["optimal_cost"], data["tolerance"]
    )
    scene.cli("optimize", "-d", "d")
    return fired, scene.doctor()


def partition_imbalance(scene):
    orpheus = library_cvd("partitioned_rlist")
    routed(orpheus, lambda parents, membership: 0, [
        (disjoint(f"g{j}_"), ()) for j in range(3)
    ])
    routed(orpheus, lambda parents, membership: None, [
        (disjoint(f"s{j}_", 1), ()) for j in range(4)
    ])
    scene.save(orpheus)
    fired = scene.doctor()
    scene.cli("optimize", "-d", "d")
    return fired, scene.doctor()


def delta_chains(scene):
    orpheus = library_cvd("delta_based")
    rows, vid = disjoint("k"), 1
    for j in range(10):
        rows = rows + [(f"n{j}", j)]
        vid = orpheus.cvd("d").commit(rows, parents=(vid,), message=f"c{j}")
    scene.save(orpheus)
    fired = scene.doctor()
    (line,) = lines(fired, "delta_chains")
    assert "delta chain" in line["summary"]
    head = scene.root / "head.csv"
    scene.cli("checkout", "-d", "d", "-v", str(vid), "-f", str(head))
    scene.cli("drop", "-d", "d")
    scene.cli(
        "init", "-d", "d", "-f", str(head),
        "-s", str(scene.root / "schema.csv"), "--model", "split_by_rlist",
    )
    return fired, scene.doctor()


def rlist_over_theta(scene):
    """A partitioned CVD whose version 2 is stored as a delta no commit
    writes: every rid of version 1 dropped, every one of its own added,
    so it rebuilds right but decodes 59 rids for 19. ``optimize``
    writes every row again under the online rule."""
    orpheus = library_cvd("partitioned_rlist")
    cvd = orpheus.cvd("d")
    cvd.commit(disjoint("k")[1:], parents=(1,))
    (partition,) = cvd.model._partitions
    table = partition.versioning_table
    assert table.delete_where(col("vid") == 2) == 1
    first, second = cvd.membership(1), cvd.membership(2)
    cost = 2 * len(first) + len(second)  # R(1), then the delta's rids
    table.insert((2, RidDelta(1, first, second, cost)))
    scene.save(orpheus)
    fired = scene.report()
    assert fired.exit_code == 1
    fired = fired.to_dict()
    (line,) = lines(fired, "delta_chains")
    assert line["data"]["over_bound"] == [2]
    scene.cli("optimize", "-d", "d")
    return fired, scene.doctor()


def orphaned_versions(scene):
    orpheus = library_cvd("split_by_rlist")
    scene.save(orpheus)  # becomes state.pkl.bak at the next save
    versioning = orpheus.database.table(orpheus.cvd("d").model.table_names()[1])
    assert versioning.delete_where(col("vid") == 1) == 1
    scene.save(orpheus)
    fired = scene.doctor()
    store = StateStore(scene.root)
    store.path.write_bytes(store.backup_paths[0].read_bytes())
    return fired, scene.doctor()


def stale_staging(scene):
    scene.init()
    scene.cli("checkout", "-d", "d", "-v", "1", "-f", str(scene.work))
    scene.work.unlink()
    fired = scene.doctor()
    (line,) = lines(fired, "stale_staging")
    assert "no longer exist" in line["summary"]
    scene.cli("recover")
    return fired, scene.doctor()


def journal(scene):
    """The state loses a journaled commit (an older generation put
    back); committing the same file again redoes it."""
    scene.init()
    scene.edit()
    store = StateStore(scene.root)
    store.path.write_bytes(store.backup_paths[0].read_bytes())
    fired = scene.doctor()
    scene.cli("commit", "-d", "d", "-f", str(scene.work))
    return fired, scene.doctor()


def state_integrity(scene):
    scene.init()
    scene.edit()
    (scene.root / ".orpheus" / "state.pkl").write_bytes(MAGIC + b"\x00")
    fired = scene.doctor()
    scene.cli("recover")
    return fired, scene.doctor()


def backup_freshness(scene):
    scene.init()
    scene.cli("checkout", "-d", "d", "-v", "1", "-f", str(scene.work))
    for backup in StateStore(scene.root).backup_paths:
        backup.unlink(missing_ok=True)
    fired = scene.doctor()
    scene.cli("commit", "-d", "d", "-f", str(scene.work))
    return fired, scene.doctor()


def pending_intents(scene):
    scene.init()
    Journal(scene.root).begin("t-torn", "commit", dataset="d")
    fired = scene.doctor()
    scene.cli("recover")
    return fired, scene.doctor()


def service_health(scene):
    """From the CLI, a ``service.json`` a dead daemon left is stale."""
    scene.init()
    status = scene.root / ".orpheus" / "service.json"
    status.write_text(json.dumps({"pid": 2**22 - 3, "socket": "gone.sock"}))
    fired = scene.doctor()
    status.unlink()
    return fired, scene.doctor()


def service_health_quarantine(scene):
    """orpheusd's own doctor sees a quarantined request digest, which
    ``remote --json stats`` lists; ``remote -- flush-quarantine``
    clears it."""
    scene.init()
    with DaemonHandle(scene.root) as handle, handle.client() as client:
        strikes = handle.daemon.quarantine.strikes
        failpoints.activate("worker.mid_execute", "error", count=strikes)
        for _ in range(strikes):
            with pytest.raises(ServiceError):
                client.checkout("d", [1], inline=True)
        # Enough requests dilute the worker-error rate under the fault
        # budget, so the quarantine is the one finding.
        for _ in range(100 * strikes):
            client.ping()
        fired = client.doctor()
        (digest,) = handle.daemon.quarantine.status()["entries"]
        stats = json.loads(scene.cli("remote", "--json", "stats"))
        assert digest in stats["quarantine"]["entries"]
        scene.cli("remote", "--", "flush-quarantine")
        return fired, client.doctor()


def flight_recorder(scene):
    """Segments past the recorder's bound (a prune that kept failing);
    deleting the oldest segments clears it."""
    recorder = FlightRecorder(
        root=str(scene.root), segment_bytes=4096, max_segments=2
    )
    for i in range(100):
        recorder.append({"kind": "request", "op": "checkout", "seq": i})
    recorder.close()
    oldest = list_segments(recorder.dir)[0]
    for seq in range(3):
        stale = recorder.dir / f"flight-stale-{seq:06d}.jsonl"
        stale.write_bytes(oldest.read_bytes())
        os.utime(stale, (0, seq))  # older than anything the recorder wrote
    scene.init()
    fired = scene.doctor()
    for segment in list_segments(recorder.dir)[:-2]:
        segment.unlink()
    return fired, scene.doctor()


def heat_skew(scene):
    """Six single-version partitions of overlapping versions, one of
    them read thirty times; LyreSplit merges them under its storage
    budget and the mined heat follows."""
    orpheus = library_cvd("partitioned_rlist")
    routed(orpheus, lambda parents, membership: None, [
        (disjoint("k") + [(f"x{j}", j)], (1,)) for j in range(5)
    ])
    scene.save(orpheus)
    for vid in [2] * 30 + [1, 3, 4, 5, 6]:
        scene.cli("checkout", "-d", "d", "-v", str(vid), "-f", str(scene.work))
    fired = scene.doctor()
    scene.cli("optimize", "-d", "d")
    return fired, scene.doctor()


def io_amplification(scene):
    """Checkouts of a 2-row version scan the 62-row table; the dataset
    moves to a new name under partitioned_rlist."""
    orpheus = Orpheus()
    orpheus.init("d", SCHEMA, [("a", 1), ("b", 2)], model="split_by_rlist")
    orpheus.cvd("d").commit(disjoint("z", 60), message="big")
    scene.save(orpheus)
    for _ in range(3):
        scene.cli("checkout", "-d", "d", "-v", "1", "-f", str(scene.work))
    fired = scene.doctor()
    scene.cli("drop", "-d", "d")
    scene.cli(
        "init", "-d", "d2", "-f", str(scene.work),
        "-s", str(scene.root / "schema.csv"), "--model", "partitioned_rlist",
    )
    scene.cli("checkout", "-d", "d2", "-v", "1", "-f", str(scene.root / "o.csv"))
    return fired, scene.doctor()


def page_store_health(scene):
    scene.monkeypatch.setenv(LAYOUT_ENV, "paged")
    scene.init()
    payload = b"orphaned-by-a-crashed-save"
    directory = pagefiles.pages_dir(scene.root)
    pagefiles.write_page(directory, pagefiles.page_id_for(payload), payload)
    fired = scene.doctor()
    scene.cli("recover")
    return fired, scene.doctor()


#: probe -> its cases: (case, a phrase of the remediation that names the
#: clear).
PAIRS = {
    "checkout_cost": [(checkout_cost, "orpheus optimize -d d")],
    "partition_imbalance": [(partition_imbalance, "orpheus optimize -d d")],
    "delta_chains": [
        (delta_chains, "--model split_by_rlist"),
        (rlist_over_theta, "orpheus optimize -d d"),
    ],
    "orphaned_versions": [(orphaned_versions, "restore .orpheus/state.pkl")],
    "stale_staging": [(stale_staging, "orpheus recover")],
    "journal": [(journal, "redo the operations")],
    "state_integrity": [(state_integrity, "orpheus recover")],
    "backup_freshness": [(backup_freshness, "a commit")],
    "pending_intents": [(pending_intents, "orpheus recover")],
    "service_health": [
        (service_health, "remove .orpheus/service.json"),
        (service_health_quarantine, "remote -- flush-quarantine"),
    ],
    "flight_recorder": [(flight_recorder, "delete the oldest")],
    "heat_skew": [(heat_skew, "orpheus optimize")],
    "io_amplification": [(io_amplification, "--model partitioned_rlist")],
    "page_store_health": [(page_store_health, "orpheus recover")],
}

CASES = [
    pytest.param(probe, case, remedy, id=case.__name__)
    for probe, cases in PAIRS.items()
    for case, remedy in cases
]


@pytest.fixture(autouse=True)
def clean_global_state():
    failpoints.clear()
    yield
    failpoints.clear()
    telemetry.reset()
    telemetry.disable()


def lines(report: dict, probe: str) -> list[dict]:
    return [
        line
        for line in report["probes"]
        if line["probe"].partition("[")[0] == probe
    ]


def test_every_probe_has_a_pair():
    assert list(PAIRS) == list(PROBES)


@pytest.mark.parametrize("probe, case, remedy", CASES)
def test_probe_fires_and_its_remediation_clears_it(
    probe, case, remedy, tmp_path, monkeypatch
):
    fired, cleared = case(Scene(tmp_path, monkeypatch))
    firing = [line for line in lines(fired, probe) if line["severity"] != "ok"]
    assert firing, lines(fired, probe)
    for line in firing:
        assert remedy in line["remediation"], line
    after = lines(cleared, probe)
    assert after and all(line["severity"] == "ok" for line in after), after
    assert not any("remediation" in line for line in after)
