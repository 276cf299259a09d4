"""Seeded fixtures and the oracle every result is checked against.

All randomness comes from the ``seed`` argument: the system under test
only ever sees the CSV files generated here. The oracle keeps, for every
version, the exact sorted rows the generator produced, so a checkout can
be compared for full content equality without trusting the system.

Rows are fixed-width (``k000123,481516,23,t04242``) so the CSV byte
count of a version — the denominator of ``stored_bytes_per_user_byte``
— is the same for every seed.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import csv
import functools
import io
import os
import random
from dataclasses import dataclass

from repro.cli import main as cli_main

Row = tuple[str, int, int, str]

DATASET = "mid"
HEADER = "key,value,grp,tag"
SCHEMA_TEXT = "key,text\nvalue,integer\ngrp,integer\ntag,text\nprimary_key,key\n"


@dataclass(frozen=True)
class FixtureSpec:
    rows: int
    versions: int
    #: Share of the parent's rows each new version swaps for fresh ones.
    churn: float = 0.05


#: The ``mid`` fixture of ISSUE 11: large enough that per-request fixed
#: cost no longer dominates, small enough to rebuild on every run.
MID = FixtureSpec(rows=3000, versions=24)
#: Tiny fixture for ``--smoke`` and the harness self-tests.
SMOKE = FixtureSpec(rows=200, versions=6)


@functools.lru_cache(maxsize=None)
def _zipf_cdf(n: int, s: float) -> tuple[float, ...]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


def zipf_rank(rng: random.Random, n: int, s: float = 1.1) -> int:
    """A rank in ``1..n`` with P(rank) ∝ rank^-s; one draw from ``rng``."""
    return bisect.bisect_left(_zipf_cdf(n, s), rng.random()) + 1


def recent_version(rng: random.Random, newest: int) -> int:
    """A Zipf-recent version id: rank 1 is the newest version."""
    return newest - zipf_rank(rng, newest) + 1


class Oracle:
    """The generator's in-memory truth: ``version -> sorted rows``."""

    def __init__(self, seed: int, spec: FixtureSpec = MID) -> None:
        self.spec = spec
        self.rows: dict[int, tuple[Row, ...]] = {}
        self._next_key = 0
        rng = random.Random(f"fixture:{seed}")
        self.add(tuple(self._new_row(rng) for _ in range(spec.rows)))
        for parent in range(1, spec.versions):
            self.add(self.edit(self.rows[parent], rng))

    def _new_row(self, rng: random.Random) -> Row:
        # Keys only ever grow, so appending new rows keeps rows sorted.
        key = f"k{self._next_key:06d}"
        self._next_key += 1
        return (
            key,
            rng.randrange(100_000, 1_000_000),
            rng.randrange(10, 100),
            f"t{rng.randrange(100_000):05d}",
        )

    def edit(self, rows: tuple[Row, ...], rng: random.Random) -> tuple[Row, ...]:
        """The collaborative edit: swap ``churn`` of the rows for new ones."""
        swaps = max(1, int(len(rows) * self.spec.churn))
        doomed = set(rng.sample(range(len(rows)), swaps))
        kept = [row for index, row in enumerate(rows) if index not in doomed]
        return tuple(kept + [self._new_row(rng) for _ in range(swaps)])

    def add(self, rows: tuple[Row, ...]) -> int:
        vid = len(self.rows) + 1
        self.rows[vid] = rows
        return vid

    def fork(self) -> "Oracle":
        """A private copy for one pass over a script: its commits extend
        the copy, not the fixture's oracle."""
        fork = copy.copy(self)
        fork.rows = dict(self.rows)
        return fork

    @property
    def newest(self) -> int:
        return len(self.rows)

    def user_bytes(self) -> int:
        """Σ CSV bytes over every version the oracle knows."""
        return sum(len(render_csv(rows)) for rows in self.rows.values())


def render_csv(rows: tuple[Row, ...]) -> str:
    lines = [HEADER]
    lines.extend(f"{k},{v},{g},{t}" for k, v, g, t in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str, rows: tuple[Row, ...]) -> None:
    with open(path, "w") as handle:
        handle.write(render_csv(rows))


def parse_csv(path: str) -> list[Row]:
    """Rows of a checked-out CSV, typed and sorted like the oracle's."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if ",".join(header) != HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        return sorted((k, int(v), int(g), t) for k, v, g, t in reader)


def typed_rows(data: list[list]) -> list[Row]:
    """Rows of an inline checkout response, sorted like the oracle's."""
    return sorted((k, int(v), int(g), t) for k, v, g, t in data)


def orpheus(root: str, *args: str, check: bool = True) -> int:
    """One ``orpheus --root ROOT ARGS...`` command, in process, with its
    chatter swallowed. Raises when ``check`` and the exit code is not 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(["--root", root, *args])
    if check and code != 0:
        raise RuntimeError(
            f"orpheus {' '.join(args)} exited {code}: {out.getvalue().strip()}"
        )
    return code


def work_file(root: str) -> str:
    return os.path.join(root, "work.csv")


def build_repository(
    oracle: Oracle, root: str, model: str = "split_by_rlist"
) -> None:
    """Replay the oracle's chain into a fresh repository at ``root``
    through the CLI: ``init`` v1, then ``checkout`` parent / overwrite /
    ``commit`` for every later version. A ``partitioned_rlist``
    repository is ``optimize``d once at the end."""
    os.makedirs(root)
    schema = os.path.join(root, "schema.csv")
    with open(schema, "w") as handle:
        handle.write(SCHEMA_TEXT)
    work = work_file(root)
    write_csv(work, oracle.rows[1])
    orpheus(root, "init", "-d", DATASET, "-f", work, "-s", schema, "--model", model)
    for vid in range(2, oracle.newest + 1):
        orpheus(root, "checkout", "-d", DATASET, "-v", str(vid - 1), "-f", work)
        write_csv(work, oracle.rows[vid])
        orpheus(root, "commit", "-d", DATASET, "-f", work, "-m", f"v{vid}")
    if model == "partitioned_rlist":
        orpheus(root, "optimize", "-d", DATASET)
