"""Ablation — the no-cross-version-diff rule (Section 3.3.1).

At commit, OrpheusDB compares the table only against its *parents*; a
record deleted and later re-added is stored twice. The alternative —
diffing against every ancestor — deduplicates those records at the cost
of a much more expensive commit. This ablation measures both sides on a
delete-and-readd-heavy history.
"""

from __future__ import annotations

import random


from benchmarks.common import fmt, print_table, timed
from repro.core.cvd import CVD
from repro.relational.database import Database
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)


def generate_flapping_history(
    num_commits: int = 40, num_keys: int = 400, seed: int = 3
):
    """Rows repeatedly leave and re-enter the dataset with unchanged
    contents — the worst case for the no-cross-version-diff rule."""
    rng = random.Random(seed)
    values = {f"k{i}": rng.randrange(100) for i in range(num_keys)}
    alive = set(values)
    states = []
    for _ in range(num_commits):
        for key in rng.sample(sorted(values), num_keys // 10):
            if key in alive:
                alive.discard(key)
            else:
                alive.add(key)
        states.append(sorted((k, values[k]) for k in alive))
    return states


class AncestorDiffCVD(CVD):
    """The alternative rule: reuse any ancestor's rid for a re-added
    record (cross-version diff at commit time). The version graph keeps
    its true parent edges; only the rid-reuse scope widens."""

    def commit(self, rows, parents=(), **kwargs):
        ancestors: set[int] = set(parents)
        for parent in parents:
            ancestors |= self.versions.ancestors(parent)
        return super().commit(
            rows, parents=parents, diff_against=sorted(ancestors), **kwargs
        )


def replay(cvd_class, states):
    cvd = cvd_class(Database(), "flap", SCHEMA)
    previous = None
    for state in states:
        parents = [previous] if previous is not None else []
        previous = cvd.commit(state, parents=parents)
    return cvd


def test_ablation_cross_version_diff(benchmark):
    states = generate_flapping_history()
    standard, standard_seconds = timed(replay, CVD, states)
    ancestor, ancestor_seconds = timed(replay, AncestorDiffCVD, states)

    print_table(
        "Ablation: no-cross-version-diff rule on a flapping history",
        ["rule", "stored records", "storage bytes", "replay time"],
        [
            (
                "parents only (paper)",
                standard.num_records,
                standard.storage_bytes(),
                fmt(standard_seconds, 3) + " s",
            ),
            (
                "all ancestors",
                ancestor.num_records,
                ancestor.storage_bytes(),
                fmt(ancestor_seconds, 3) + " s",
            ),
        ],
    )
    benchmark.pedantic(replay, args=(CVD, states[:10]), rounds=1, iterations=1)

    # The ancestor rule stores strictly fewer records (dedup of re-adds)...
    assert ancestor.num_records < standard.num_records
    # ...but both recreate identical version contents.
    last_standard = standard.versions.latest_vid()
    last_ancestor = ancestor.versions.latest_vid()
    assert sorted(standard.checkout(last_standard).rows) == sorted(
        ancestor.checkout(last_ancestor).rows
    )
    print(
        f"extra records stored by the paper's rule: "
        f"{standard.num_records - ancestor.num_records} "
        f"({fmt(100 * (standard.num_records / ancestor.num_records - 1), 3)}%)"
    )
