"""The pickle and the paged layout hold the same repository.

One seeded history (inserts, updates, deletes, a branch, tombstoned heap
slots) is committed under each layout the way the CLI does it — every
command loads the state afresh and saves it — for every data model.
Every version must then check out to the same rows under both, and a
round trip through ``migrate-state`` must not change any of them."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.commands import Orpheus
from repro.core.models import DATA_MODELS
from repro.pagestore.bufferpool import reset_pool
from repro.pagestore.store import migrate_state
from repro.relational.schema import ColumnDef, Schema
from repro.relational.types import INT, TEXT
from repro.resilience.statestore import LAYOUT_ENV, StateStore

SCHEMA = Schema(
    [ColumnDef("key", TEXT), ColumnDef("value", INT)], primary_key=("key",)
)
MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]


def history(seed: int = 5) -> list[tuple[int | None, list[tuple[str, int]]]]:
    """``(parent, rows)`` per version: a chain with one branch, each
    version deleting, updating and inserting a few of its parent's rows."""
    rng = random.Random(seed)
    versions = [(None, [(f"k{i:03d}", rng.randrange(1000)) for i in range(40)])]
    next_key = 40
    for vid in range(2, 9):
        parent = 3 if vid == 6 else vid - 1  # version 6 branches off 3
        rows = dict(versions[parent - 1][1])
        for key in rng.sample(sorted(rows), 4):
            del rows[key]
        for key in rng.sample(sorted(rows), 4):
            rows[key] = rng.randrange(1000)
        for _ in range(3):
            rows[f"k{next_key:03d}"] = rng.randrange(1000)
            next_key += 1
        versions.append((parent, sorted(rows.items())))
    return versions


def command(root, operation):
    """One CLI-style command: fresh load, operate, save."""
    reset_pool()
    store = StateStore(root)
    orpheus, _info = store.load(warn=None)
    result = operation(orpheus)
    store.save(orpheus)
    return result


def tombstone_every_heap(orpheus) -> None:
    """Delete and re-insert the first row of every physical table: same
    content, one dead slot per heap."""
    for table in orpheus.database:
        slot, row = next(table._iter_slots(), (None, None))
        if row is not None:
            table.delete_at(slot)
            table.insert(row)


def build(root, model: str, versions) -> None:
    orpheus = Orpheus()
    orpheus.create_user("alice")
    orpheus.config("alice")
    orpheus.init("ds", SCHEMA, versions[0][1], model=model)
    StateStore(root).save(orpheus)
    for vid, (parent, rows) in enumerate(versions[1:], start=2):
        committed = command(
            root,
            lambda o: o.cvd("ds").commit(
                rows, parents=(parent,), message=f"v{vid}", author="alice"
            ),
        )
        assert committed == vid
        if vid == 4:
            command(root, tombstone_every_heap)
        if vid == 5 and model == "partitioned_rlist":
            command(root, lambda o: o.optimize("ds"))


def checkouts(root, versions) -> dict[int, list]:
    return {
        vid: command(root, lambda o: sorted(o.cvd("ds").checkout(vid).rows))
        for vid in range(1, len(versions) + 1)
    }


@pytest.mark.parametrize("model", MODELS)
def test_every_version_checks_out_the_same_under_both_layouts(
    model, tmp_path, monkeypatch
):
    versions = history()
    expected = {vid: rows for vid, (_p, rows) in enumerate(versions, start=1)}
    for layout in ("pickle", "paged"):
        monkeypatch.setenv(LAYOUT_ENV, layout)
        root = tmp_path / layout
        root.mkdir()
        build(root, model, versions)
        assert StateStore(root).integrity()["layout"] == layout
        assert checkouts(root, versions) == expected

    monkeypatch.delenv(LAYOUT_ENV)
    root = tmp_path / "pickle"
    assert migrate_state(root, to="paged")["status"] == "migrated"
    assert checkouts(root, versions) == expected
    assert migrate_state(root, to="pickle")["status"] == "migrated"
    assert StateStore(root).integrity()["layout"] == "pickle"
    reset_pool()
    restored, _info = StateStore(root).load(warn=None)
    copy = pickle.loads(pickle.dumps(restored))
    for vid, rows in expected.items():
        assert sorted(copy.cvd("ds").checkout(vid).rows) == rows
