"""A committed version is immutable, so orpheusd's version cache never
needs invalidating on a write: a commit admits its own version, and
only ``drop`` (or a reload that loses versions) evicts.

* differential — over every data model, with a warm cache, through
  commits, schema evolution, ``optimize``, a NACKed commit, a drop and
  re-init, and a restart: every entry a hit could serve equals a fresh
  ``cvd.checkout`` byte for byte;
* counted — twenty pull→edit→commit cycles: zero invalidations, and
  every pull of the just-committed head is a hit that materializes no
  row;
* a drop evicts even when its journal step fails after the save;
* a version that only a failed reload left readable is evicted once a
  reload drops it.
"""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.core.models import DATA_MODELS
from repro.observe.journal import Journal
from repro.resilience import failpoints
from repro.service import protocol
from repro.service.cache import VersionCache
from repro.service.client import ServiceError

MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]

DATASET = "d"


def write_inputs(root, rows=12) -> tuple[str, str]:
    data, schema = root / "seed.csv", root / "seed-schema.csv"
    data.write_text(
        "key,value\n" + "".join(f"k{i:03d},{i}\n" for i in range(rows))
    )
    schema.write_text("key,text\nvalue,integer\nprimary_key,key\n")
    return str(data), str(schema)


class Editor:
    """Pulls a version to a CSV file, edits it, commits it."""

    def __init__(self, client, root, seed: int = 7) -> None:
        self.client = client
        self.work = root / "work.csv"
        self.rng = random.Random(seed)
        self.fresh = 1000 * seed  # keys no other editor makes

    def pull(self, vid: int) -> dict:
        return self.client.checkout(DATASET, [vid], file=str(self.work))

    def edit(self, new_column: str | None = None) -> None:
        """Drop about a fifth of the rows, append two new ones; with
        ``new_column``, add that column too."""
        header, *lines = self.work.read_text().splitlines()
        if new_column:
            header += f",{new_column}"
            lines = [f"{line},x" for line in lines]
        kept = [line for line in lines if self.rng.random() > 0.2]
        width = len(header.split(","))
        for _ in range(2):
            self.fresh += 1
            extra = ["t"] * (width - 2)
            kept.append(",".join([f"n{self.fresh}", str(self.fresh), *extra]))
        self.work.write_text("\n".join([header, *kept]) + "\n")

    def commit(
        self, parent: int, schema: str | None = None, new_column: str | None = None
    ) -> int:
        self.pull(parent)
        self.edit(new_column)
        return self.client.commit(
            DATASET,
            file=str(self.work),
            # Distinct params: two NACKs of one request quarantine it.
            message=f"edit {self.fresh}",
            schema=schema,
            parents=[parent],
        )["version"]


def servable_entries_match(daemon) -> int:
    """Every entry a hit could serve equals a fresh checkout, byte for
    byte. Entries made under an older schema are skipped: their token
    no longer matches, so no hit can reach them. Returns how many
    entries were compared."""
    compared = 0
    for (name, vids, token), entry in list(daemon.cache._entries.items()):
        cvd = daemon.orpheus.cvd(name)
        if token != VersionCache.key(name, vids, cvd.schema)[2]:
            continue
        fresh = cvd.checkout(list(vids))
        wire = protocol.encode_rows(fresh.rows)
        assert entry.verify()
        assert entry.columns == fresh.columns
        assert entry.parents == fresh.parents
        assert protocol.encode_rows(entry.rows) == wire, (name, vids)
        assert entry.body is None or entry.body == wire, (name, vids)
        compared += 1
    return compared


def warm(client) -> None:
    """Read every version inline, and one two-version merge."""
    vids = [v["vid"] for v in client.log(dataset=DATASET)["versions"]]
    for vid in vids:
        client.checkout(DATASET, [vid], inline=True)
    client.checkout(DATASET, [vids[-1], vids[0]], inline=True)


def invalidations(client) -> int:
    return client.status()["cache"]["invalidations"]


@pytest.mark.parametrize("model", MODELS)
def test_warm_cache_matches_fresh_checkouts(
    workspace, daemon_factory, model
):
    data, schema = write_inputs(workspace)
    added = workspace / "added.csv"
    added.write_text("key,text\nvalue,integer\nnote,text\nprimary_key,key\n")
    widened = workspace / "widened.csv"
    widened.write_text("key,text\nvalue,decimal\nnote,text\nprimary_key,key\n")

    def step(client, daemon) -> None:
        warm(client)
        assert servable_entries_match(daemon) >= 2

    with daemon_factory() as handle:
        with handle.client() as client:
            editor = Editor(client, workspace)
            client.init(DATASET, data, schema, model=model)
            step(client, handle.daemon)
            for parent in (1, 2, 2, 1, 4):
                editor.commit(parent)
                step(client, handle.daemon)

            # Schema evolution: add a column, then widen a type. Entries
            # of older versions were made under the old schema.
            editor.commit(6, schema=str(added), new_column="note")
            step(client, handle.daemon)
            editor.commit(7, schema=str(widened))
            step(client, handle.daemon)
            if model == "partitioned_rlist":
                client.optimize(DATASET, gamma=1.2)
                step(client, handle.daemon)

            # A NACKed commit is never admitted; the reload keeps
            # every entry.
            failpoints.activate("state.before_save", "error", count=1)
            with pytest.raises(ServiceError):
                editor.commit(8)
            assert [v["vid"] for v in client.log(DATASET)["versions"]][-1] == 8
            # The reload rebuilt the schema; equal columns, equal token.
            assert client.checkout(DATASET, [8], inline=True)["cached"] is True
            step(client, handle.daemon)
            assert editor.commit(8) == 9
            assert client.checkout(DATASET, [9], inline=True)["cached"] is True
            step(client, handle.daemon)
            assert invalidations(client) == 0

            # Drop and re-init under the same name: the vids come back
            # with other rows, so the drop must have evicted them.
            client.drop(DATASET)
            client.init(DATASET, str(editor.work), str(widened), model=model)
            assert invalidations(client) == 1
            assert client.checkout(DATASET, [1], inline=True)["cached"] is False
            editor.commit(1)
            step(client, handle.daemon)

    with daemon_factory() as handle:  # a restart starts cold
        with handle.client() as client:
            assert len(handle.daemon.cache) == 0
            step(client, handle.daemon)
            Editor(client, workspace, seed=8).commit(2)
            step(client, handle.daemon)
            assert invalidations(client) == 0


def test_pulls_of_the_committed_head_are_hits_that_materialize_nothing(
    workspace, daemon_factory
):
    data, schema = write_inputs(workspace, rows=50)
    registry = telemetry.get_registry
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            editor = Editor(client, workspace)
            head = 1
            editor.pull(head)
            for _ in range(20):
                editor.edit()
                head = client.commit(DATASET, file=str(editor.work))["version"]
                before = registry().counter_value("cvd.checkout.rows_materialized")
                pulled = editor.pull(head)
                assert pulled["cached"] is True
                assert (
                    registry().counter_value("cvd.checkout.rows_materialized")
                    == before
                )
                fresh = handle.daemon.orpheus.cvd(DATASET).checkout(head)
                assert pulled["rows"] == len(fresh.rows)
            stats = client.stats()["cache"]
    assert stats["invalidations"] == 0
    assert stats["hits"] == 20


@pytest.mark.parametrize("site", ["journal.before_append", "journal.after_append"])
def test_a_drop_evicts_even_when_its_journal_step_fails(
    workspace, daemon_factory, site
):
    """A drop is durable once its save succeeds. A journal failure
    after that, before or after its op record lands, must not leave the
    dataset's entries behind:
    a re-init under the same name and schema reuses the vids, and its
    v1 must not be served the dropped rows."""
    data, schema = write_inputs(workspace)
    reinit = workspace / "reinit.csv"
    reinit.write_text("key,value\nz1,1\nz2,2\n")
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            dropped = client.checkout(DATASET, [1], inline=True)["data"]
            failpoints.activate(site, "error", count=1)
            with pytest.raises(ServiceError):
                client.drop(DATASET)
            client.init(DATASET, str(reinit), schema)
            served = client.checkout(DATASET, [1], inline=True)
            assert served["cached"] is False
            assert served["data"] != dropped
            assert served["rows"] == 2
            assert servable_entries_match(handle.daemon) == 1
    # Whether or not its op record landed, the drop's `begin` is closed
    # before the re-init's: once, and by the drop's own record.
    assert Journal(str(workspace)).pending() == []
    commands = [r["command"] for r in Journal(str(workspace)).read()]
    assert commands == ["init", "drop", "init"]


def test_a_version_only_memory_held_is_evicted_when_a_reload_drops_it(
    workspace, daemon_factory, monkeypatch
):
    """A NACKed commit whose reload fails leaves its version readable
    from memory, and a reader caches it. A later reload returns to the
    disk, where that vid does not exist; the next commit takes it. The
    entry must not outlive the reload."""
    import repro.cli

    data, schema = write_inputs(workspace)
    load_state = repro.cli.load_state
    failing = []

    def flaky_load_state(root=None):
        if failing:
            failing.pop()
            raise OSError("volume gone")
        return load_state(root)

    monkeypatch.setattr(repro.cli, "load_state", flaky_load_state)
    with daemon_factory() as handle:
        with handle.client() as client:
            client.init(DATASET, data, schema)
            editor = Editor(client, workspace)
            failpoints.activate("state.before_save", "error", count=1)
            failing.append(True)
            with pytest.raises(ServiceError):
                editor.commit(1)
            ghost = client.checkout(DATASET, [2], inline=True)["data"]

            failpoints.activate("state.before_save", "error", count=1)
            with pytest.raises(ServiceError):
                editor.commit(1)
            with pytest.raises(ServiceError, match="no version 2"):
                client.checkout(DATASET, [2], inline=True)

            assert editor.commit(1) == 2
            served = client.checkout(DATASET, [2], inline=True)
            assert served["cached"] is True
            assert served["data"] != ghost
            assert servable_entries_match(handle.daemon) >= 2
