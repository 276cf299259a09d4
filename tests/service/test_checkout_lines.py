"""Differential: the bytes a file checkout writes from rendered lines
(``CVD.lines_of``) equal what ``csv.writer`` wrote for the checked-out
rows, for every data model, through the CLI and through orpheusd (a
miss, then a hit), before and after a commit adds a column and one
widens a type."""

from __future__ import annotations

import csv

import pytest

from repro.cli import main
from repro.core.models import DATA_MODELS
from repro.pagestore.bufferpool import reset_pool
from repro.resilience.statestore import StateStore

MODELS = sorted(DATA_MODELS) + ["partitioned_rlist"]
SCHEMAS = {
    "base": "key,text\nvalue,integer\nprimary_key,key\n",
    "added": "key,text\nvalue,integer\nnote,text\nprimary_key,key\n",
    "widened": "key,text\nvalue,decimal\nnote,text\nprimary_key,key\n",
}


def reference_bytes(root, vids, path) -> bytes:
    """The checkout as the row writer wrote it, from a fresh load."""
    reset_pool()
    orpheus, _info = StateStore(root).load(warn=None)
    result = orpheus.cvd("d").checkout(vids)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.columns)
        writer.writerows(result.rows)
    return path.read_bytes()


class CLI:
    def __init__(self, root) -> None:
        self.root = str(root)

    def run(self, *argv) -> None:
        assert main(["--root", self.root, *argv]) == 0

    def checkout(self, vids, path) -> None:
        self.run("checkout", "-d", "d", "-v", *map(str, vids), "-f", str(path))

    def commit(self, path, schema=None) -> None:
        extra = ["-s", str(schema)] if schema else []
        self.run("commit", "-d", "d", "-f", str(path), "-m", "edit", *extra)


class Daemon:
    def __init__(self, client) -> None:
        self.client = client

    def checkout(self, vids, path) -> None:
        self.client.checkout("d", list(vids), file=str(path))

    def commit(self, path, schema=None) -> None:
        self.client.commit(
            "d", file=str(path), message="edit",
            schema=str(schema) if schema else None,
        )


def edit(path, schema_name) -> None:
    """Drop the first row, append one; add the ``note`` column when the
    schema has it and the file does not."""
    header, *lines = path.read_text().splitlines()
    if schema_name != "base" and "note" not in header:
        header += ",note"
        notes = ["", "n", '"x, ""y"""']
        lines = [f"{line},{notes[n % 3]}" for n, line in enumerate(lines)]
    value = "7.5" if schema_name == "widened" else "7"
    note = ",n" if "note" in header else ""
    lines = lines[1:] + [f"new-{schema_name},{value}{note}"]
    path.write_text("\n".join([header, *lines]) + "\n")


def script(front, root, tmp_path) -> int:
    """Commit under each schema in turn; after each commit, pull every
    version and a two-version merge, twice, comparing bytes."""
    work, reference = tmp_path / "work.csv", tmp_path / "reference.csv"
    compared = 0
    head = 1
    for schema_name, text in SCHEMAS.items():
        schema_path = tmp_path / f"{schema_name}.csv"
        schema_path.write_text(text)
        front.checkout([head], work)
        edit(work, schema_name)
        front.commit(work, schema_path if schema_name != "base" else None)
        head += 1
        for vids in [*([vid] for vid in range(1, head + 1)), [head, 1]]:
            expected = reference_bytes(root, vids, reference)
            for _ in range(2):
                front.checkout(vids, work)
                assert work.read_bytes() == expected, (schema_name, vids)
                compared += 1
    return compared


def seed(root) -> None:
    rows = ["k1,1", '"a,b",2', "k3,", '"say ""hi""",4', "k5,-0"]
    (root / "seed.csv").write_text("key,value\n" + "\n".join(rows) + "\n")
    (root / "seed-schema.csv").write_text(SCHEMAS["base"])


@pytest.mark.parametrize("model", MODELS)
def test_cli_checkouts_write_the_row_writers_bytes(model, tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    seed(root)
    cli = CLI(root)
    cli.run(
        "init", "-d", "d", "-f", str(root / "seed.csv"),
        "-s", str(root / "seed-schema.csv"), "--model", model,
    )
    assert script(cli, root, tmp_path) == 2 * (3 + 4 + 5)


@pytest.mark.parametrize("model", MODELS)
def test_daemon_checkouts_write_the_row_writers_bytes(
    model, workspace, daemon_factory, tmp_path
):
    seed(workspace)
    CLI(workspace).run(
        "init", "-d", "d", "-f", str(workspace / "seed.csv"),
        "-s", str(workspace / "seed-schema.csv"), "--model", model,
    )
    with daemon_factory() as handle, handle.client() as client:
        assert script(Daemon(client), workspace, tmp_path) == 2 * (3 + 4 + 5)
