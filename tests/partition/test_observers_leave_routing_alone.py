"""Checking the checkout-cost rule changes nothing: the doctor and the
advisor run LyreSplit to find C*_avg, but only ``optimize`` and
``maybe_migrate`` adopt its δ* for routing later commits (Section 5.4)."""

from repro.core.commands import Orpheus
from repro.observe.doctor import run_doctor
from repro.observe.heat import AccessEvent, HeatAccountant, advise
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)
COMMITS = 6


def grow(orpheus: Orpheus, vid: int, start: int) -> int:
    """``COMMITS`` parented commits, each adding one record."""
    cvd = orpheus.cvd("d")
    rows = [(f"k{i}", i) for i in range(20)]
    rows += [(f"n{j}", j) for j in range(start)]
    for j in range(start, start + COMMITS):
        rows = rows + [(f"n{j}", j)]
        vid = cvd.commit(rows, parents=(vid,), message=f"c{j}")
    return vid


def routed(observe: bool) -> tuple[float, list[set[int]]]:
    orpheus = Orpheus()
    orpheus.init(
        "d", SCHEMA, [(f"k{i}", i) for i in range(20)],
        model="partitioned_rlist",
    )
    vid = grow(orpheus, 1, 0)
    if observe:
        run_doctor(orpheus)
        heat = HeatAccountant(half_life_s=100.0)
        heat.record(AccessEvent(
            ts=0.0, command="checkout", dataset="d", versions=(vid,),
            model="partitioned_rlist", rows_requested=26, rows_scanned=26,
        ))
        advise(orpheus, heat, now=0.0)
    grow(orpheus, vid, COMMITS)
    store = orpheus.cvd("d").model
    return store._delta_star, store._partition_versions


def test_doctor_and_advisor_leave_delta_star_and_routing_alone():
    assert routed(observe=True) == routed(observe=False)
