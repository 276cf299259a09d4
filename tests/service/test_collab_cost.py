"""A collaborative cycle through orpheusd costs what its edit costs.

One cycle over a 3,000-row version: pull it to a file, change k = 150
lines, commit the file, pull the new head. A record's CSV line is
rendered once (the pull of a version whose records are rendered formats
nothing), and a commit converts only the lines no pull wrote, so the
whole cycle formats at most k rows and converts at most k lines."""

from __future__ import annotations

import csv
import random
from types import SimpleNamespace

import pytest

from repro.core import csvio

from tests.service.conftest import seed_dataset

ROWS = 3000
K = 150
HEADER = ["key", "value", "grp", "tag"]


@pytest.fixture
def big_workspace(workspace):
    rng = random.Random(32)
    lines = [",".join(HEADER)] + [
        f"r{n:05d},{rng.randrange(10**6)},{rng.randrange(50)},t{rng.randrange(99)}"
        for n in range(ROWS)
    ]
    (workspace / "data.csv").write_text("\n".join(lines) + "\n")
    (workspace / "schema.csv").write_text(
        "key,text\nvalue,integer\ngrp,integer\ntag,text\nprimary_key,key\n"
    )
    seed_dataset(workspace)
    return workspace


@pytest.fixture
def counts(monkeypatch):
    """Rows formatted by csvio's CSV writers (header rows included) and
    values csvio converted, counted where csvio calls them."""
    counted = {"formatted": 0, "converted": 0}

    class CountingWriter:
        def __init__(self, target, **options):
            self._writer = csv.writer(target, **options)

        def writerow(self, row):
            counted["formatted"] += 1
            return self._writer.writerow(row)

        def writerows(self, rows):
            rows = list(rows)
            counted["formatted"] += len(rows)
            return self._writer.writerows(rows)

    monkeypatch.setattr(
        csvio, "csv", SimpleNamespace(writer=CountingWriter, reader=csv.reader)
    )
    convert = csvio._convert_column

    def counting_convert(converter, values):
        counted["converted"] += len(values)
        return convert(converter, values)

    monkeypatch.setattr(csvio, "_convert_column", counting_convert)
    return counted


def edit(path, rng) -> None:
    """Change the value of K random data lines, LF-terminated as a
    script would write them."""
    with open(path, newline="") as handle:
        header, *lines = handle.read().splitlines()
    for n in rng.sample(range(len(lines)), K):
        key, value, grp, tag = lines[n].split(",")
        lines[n] = f"{key},{int(value) + 1},{grp},{tag}"
    with open(path, "w", newline="") as handle:
        handle.write("\n".join([header, *lines]) + "\n")


def test_a_cycle_formats_and_converts_at_most_its_edit(
    big_workspace, daemon_factory, tmp_path, counts
):
    rng = random.Random(5)
    work = str(tmp_path / "work.csv")
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=work)  # renders v1 once
        head = 1
        for cycle in range(3):
            before = dict(counts)
            client.checkout("inter", [head], file=work)
            edit(work, rng)
            head = client.commit("inter", file=work, parents=[head])["version"]
            pulled = client.checkout("inter", [head], file=work)
            assert pulled["rows"] == ROWS
            formatted = counts["formatted"] - before["formatted"] - 2  # headers
            converted = (counts["converted"] - before["converted"]) // len(HEADER)
            assert formatted <= K, (cycle, formatted)
            assert converted <= K, (cycle, converted)

        before = dict(counts)
        for vid in range(1, head + 1):
            client.checkout("inter", [vid], file=work)
        assert counts["formatted"] - before["formatted"] == head  # headers only
        assert counts["converted"] == before["converted"]


def test_a_pulled_file_commits_back_unchanged_without_converting(
    big_workspace, daemon_factory, tmp_path, counts
):
    """Every line of a pulled file is a rendered line: committing it
    as is converts nothing and reuses every record."""
    work = str(tmp_path / "work.csv")
    with daemon_factory() as handle, handle.client() as client:
        client.checkout("inter", [1], file=work)
        before = counts["converted"]
        committed = client.commit("inter", file=work, parents=[1])
        assert counts["converted"] == before
        assert committed["rows"] == ROWS
        cvd = handle.daemon.orpheus.cvd("inter")
        assert cvd.membership(committed["version"]) == cvd.membership(1)
