"""The five workloads, the sessions that drive them, and the closed loop.

Load shape, all workloads: closed loop, one client connection, one
load-generator thread, fixed operation counts (scaled by ``--seconds``)
so program-side counts repeat exactly. A *session* is one set-up
instance — a private copy of the fixture repository plus, for daemon
workloads, an ``orpheus serve`` subprocess over it. The timed region of
an operation is exactly one call into the system; generating edits,
parsing results and checking them against the oracle happen outside it.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.pagestore.bufferpool import get_pool, reset_pool
from repro.resilience.statestore import LAYOUT_ENV, StateStore
from repro.service.cache import estimate_entry_bytes

from . import fixtures
from .fixtures import DATASET, Oracle
from .orpheusd import Daemon, peak_rss_mb
from .spans import Recorder

#: Counts are stated for this many seconds of measured work on the
#: reference box and scale linearly with ``--seconds``.
REFERENCE_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    daemon: bool
    #: Which fixture repository the session copies.
    fixture: str
    #: Daemon ``--cache-mb``, in materialized versions of this fixture.
    cache_entries: float
    #: ``zipf`` / ``cycle`` inline reads, or pull→edit→commit ``collab``.
    script: str
    #: Reads (or collab cycles) at REFERENCE_SECONDS, and under --smoke.
    ops: int
    smoke_ops: int
    #: Full-content oracle check on every Nth inline read.
    check_every: int = 25
    #: ORPHEUS_STATE_LAYOUT for the one-shot CLI commands.
    layout: str | None = None
    #: Set-up converts the copy with ``orpheus migrate-state --to paged``.
    paged: bool = False

    def count(self, seconds: float, smoke: bool) -> int:
        if smoke:
            return self.smoke_ops
        return max(1, round(self.ops * seconds / REFERENCE_SECONDS))

    @property
    def checkout_kind(self) -> str:
        return "pull" if self.script == "collab" else "read"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot_read",
            "every read hits the version cache: latency is wire + JSON + "
            "scheduler + cache, the storage layers do nothing",
            daemon=True, fixture="mid", cache_entries=90.0,
            script="zipf", ops=2500, smoke_ops=60,
        ),
        Workload(
            "cold_read",
            "working set exceeds the cache, no read hits: time is CVD + "
            "partition + relational materialisation through the serving path",
            daemon=True, fixture="midp", cache_entries=2.5,
            script="cycle", ops=360, smoke_ops=24, check_every=4,
        ),
        Workload(
            "collab_rw",
            "the paper's pull-edit-commit loop on one dataset through the "
            "daemon: every commit invalidates the cache and saves full state",
            daemon=True, fixture="mid", cache_entries=90.0,
            script="collab", ops=100, smoke_ops=4,
        ),
        Workload(
            "oneshot_pickle",
            "the CLI user's cost on the pickle layout: lock + state load + "
            "op + save + journal per command; control for pagestore changes",
            daemon=False, fixture="mid", cache_entries=0.0,
            script="collab", ops=30, smoke_ops=3, layout="pickle",
        ),
        Workload(
            "oneshot_paged",
            "the same CLI script on the migrated paged layout: lazy fault-in "
            "+ codec decode on read, dirty-page write-back on commit",
            daemon=False, fixture="mid", cache_entries=0.0,
            script="collab", ops=30, smoke_ops=3, paged=True,
        ),
    )
}


def stored_bytes(root: str) -> int:
    """Live ``state.pkl`` plus every page file (backups excluded)."""
    state_dir = os.path.join(root, ".orpheus")
    total = os.path.getsize(os.path.join(state_dir, "state.pkl"))
    pages = os.path.join(state_dir, "pages")
    if os.path.isdir(pages):
        total += sum(entry.stat().st_size for entry in os.scandir(pages))
    return total


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class DaemonSession:
    """A fixture copy with an orpheusd over it; ops go over the socket."""

    def __init__(
        self, workload: Workload, fixture_dir: str, root: str, cache_mb: float
    ) -> None:
        self.workload = workload
        self.root = root
        shutil.copytree(fixture_dir, root)
        self.work = fixtures.work_file(root)
        self.daemon = Daemon(root, cache_mb)
        self.client = self.daemon.client

    def before_op(self) -> None:
        pass

    def read(self, version: int) -> dict:
        return self.client.checkout(DATASET, version, inline=True)

    def pull(self, version: int) -> dict:
        return self.client.checkout(DATASET, version, file=self.work)

    def commit(self, parent: int, message: str) -> int:
        data = self.client.commit(
            DATASET, file=self.work, message=message, parents=[parent]
        )
        return data["version"]

    def op_counters(self) -> dict:
        """Server-side phase split and scan footprint of the last op."""
        trace = self.client.last_trace or {}
        return {
            key: trace.get(key, 0)
            for key in (
                "admission_s", "queue_wait_s", "execute_s",
                "rows_scanned", "bytes_scanned",
            )
        }

    def totals(self) -> dict:
        """Cumulative daemon counters (``stats`` is a control op: it
        bypasses the scheduler and touches no repository state)."""
        stats = self.client.stats()
        cache, pool = stats["cache"], stats.get("buffer_pool") or {}
        return {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_invalidations": cache["invalidations"],
            "pool_faults": pool.get("faults", 0),
            "pool_hits": pool.get("hits", 0),
            "cpu_s": self.daemon.cpu_s(),
        }

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def fetch(self, version: int) -> list[fixtures.Row]:
        return fixtures.typed_rows(self.read(version)["data"])

    def close(self) -> None:
        self.daemon.stop()


class CliSession:
    """A fixture copy driven by one-shot ``repro.cli.main`` commands.

    A fresh process has an empty buffer pool, so the pool is reset
    before every command (outside the timed region)."""

    def __init__(
        self, workload: Workload, fixture_dir: str, root: str, newest: int
    ) -> None:
        self.workload = workload
        self.root = root
        shutil.copytree(fixture_dir, root)
        self.work = fixtures.work_file(root)
        if workload.layout:
            os.environ[LAYOUT_ENV] = workload.layout
        if workload.paged:
            fixtures.orpheus(root, "migrate-state", "--to", "paged")
        self._loaded = None
        # The first command of a session pays imports and a cold file
        # cache; users pay that once per shell, so it belongs to set-up.
        self.pull(newest)

    def before_op(self) -> None:
        reset_pool()

    def pull(self, version: int) -> dict:
        code = fixtures.orpheus(
            self.root, "checkout", "-d", DATASET, "-v", str(version),
            "-f", self.work, check=False,
        )
        if code != 0:
            raise RuntimeError(f"orpheus checkout exited {code}")
        return {}

    def commit(self, parent: int, message: str) -> int:
        # The CLI takes the parent from the staging pin `pull` left.
        code = fixtures.orpheus(
            self.root, "commit", "-d", DATASET, "-f", self.work,
            "-m", message, check=False,
        )
        if code != 0:
            raise RuntimeError(f"orpheus commit exited {code}")
        return 0

    def op_counters(self) -> dict:
        """Pool and accountant counters of the command that just ran
        (``cli.main`` resets the registry at the start of each one)."""
        pool = get_pool().stats()
        registry = telemetry.get_registry()
        return {
            "rows_scanned": registry.counter_value("storage.io.seq_rows")
            + registry.counter_value("storage.io.random_rows"),
            "bytes_scanned": registry.counter_value("storage.io.bytes_read"),
            "pool_faults": pool["faults"],
            "pool_hits": pool["hits"],
            "page_bytes_read": registry.counter_value(
                "storage.io.page_bytes_read"
            ),
            "pages_written": registry.counter_value("pagestore.pages_written"),
        }

    def totals(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def fetch(self, version: int) -> list[fixtures.Row]:
        if self._loaded is None:
            self._loaded, _info = StateStore(self.root).load()
        return sorted(self._loaded.cvd(DATASET).checkout(version).rows)

    def close(self) -> None:
        os.environ.pop(LAYOUT_ENV, None)


def open_session(workload: Workload, fixture_dir: str, root: str, oracle: Oracle):
    """Set up one session: fixture copy, daemon boot (or, one-shot,
    layout migration and a first command), warm pass.

    The warm pass lets caches fill before timing: ``hot_read`` reads
    every version once so the measured phase only hits; ``cold_read``
    runs one full cycle so the LRU is already full and evicting."""
    if not workload.daemon:
        return CliSession(workload, fixture_dir, root, oracle.newest)
    # Same size estimate the cache itself admits entries by.
    entry_bytes = estimate_entry_bytes(
        fixtures.HEADER.split(","), list(oracle.rows[oracle.newest])
    )
    cache_mb = round(workload.cache_entries * entry_bytes / 2**20, 3)
    session = DaemonSession(workload, fixture_dir, root, cache_mb)
    try:
        if workload.script != "collab":
            for version in range(1, oracle.newest + 1):
                session.read(version)
    except BaseException:
        session.close()
        raise
    return session


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one pass over a workload's script observed."""

    latency_s: dict[str, list[float]] = field(default_factory=dict)
    counters: dict[str, list[dict]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    last_response: dict[str, dict] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(sum(values) for values in self.latency_s.values())

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


class Loop:
    """Runs a workload's seeded script against one session."""

    def __init__(
        self,
        session,
        oracle: Oracle,
        seed: int,
        recorder: Recorder | None = None,
    ) -> None:
        self.session = session
        self.workload: Workload = session.workload
        self.oracle = oracle
        self.rng = random.Random(f"{self.workload.name}:{seed}")
        self.recorder = recorder
        self.phase = Phase()
        self._committed: list[int] = []

    # -- one timed operation --------------------------------------------
    def _op(self, kind: str, call, *args):
        phase = self.phase
        self.session.before_op()
        phase.attempted += 1
        if self.recorder is not None:
            self.recorder.trace_id = f"{self.workload.name}-{phase.attempted:05d}"
            root = self.recorder.span(f"op.{kind}", "harness")
        else:
            root = contextlib.nullcontext()
        with root:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = call(*args)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, exc
            elapsed = time.perf_counter() - t0
            phase.cpu_s += time.process_time() - cpu0
        if error is not None:
            phase.fail(f"{kind} raised {type(error).__name__}: {error}")
            return None
        phase.latency_s.setdefault(kind, []).append(elapsed)
        counters = self.session.op_counters()
        phase.counters.setdefault(kind, []).append(counters)
        if self.recorder is not None and self.workload.daemon:
            self._add_daemon_spans(counters)
        return result

    def _add_daemon_spans(self, counters: dict) -> None:
        """Lay the server-reported phases under this op's wait span."""
        wait = next(
            s for s in reversed(self.recorder.spans) if s.name == "socket.wait"
        )
        cursor = wait.start_ns
        for name, key in (
            ("admission", "admission_s"),
            ("queue", "queue_wait_s"),
            ("execute", "execute_s"),
        ):
            duration = int(counters[key] * 1e9)
            self.recorder.add(wait, f"daemon.{name}", "daemon", cursor, duration)
            cursor += duration

    # -- scripts --------------------------------------------------------
    def run(self, count: int) -> Phase:
        script = self.workload.script
        if script == "collab":
            for _ in range(count):
                self._collab_cycle()
        else:
            newest = self.oracle.newest
            for index in range(count):
                if script == "zipf":
                    version = fixtures.recent_version(self.rng, newest)
                else:
                    version = index % newest + 1
                self._read(version, full=index % self.workload.check_every == 0)
        return self.phase

    def _read(self, version: int, full: bool) -> None:
        data = self._op("read", self.session.read, version)
        if data is None:
            return
        self.phase.last_response["read"] = data
        self.phase.counters["read"][-1]["rows"] = data["rows"]
        expected = self.oracle.rows[version]
        if data["rows"] != len(expected) or len(data["data"]) != len(expected):
            self.phase.fail(f"read v{version}: {data['rows']} rows")
        elif full and fixtures.typed_rows(data["data"]) != list(expected):
            self.phase.fail(f"read v{version}: content differs from oracle")

    def _collab_cycle(self) -> None:
        """pull a Zipf-recent parent → 5 % edit (untimed) → commit."""
        parent = fixtures.recent_version(self.rng, self.oracle.newest)
        expected = self.oracle.rows[parent]
        data = self._op("pull", self.session.pull, parent)
        if data is not None:
            self.phase.last_response["pull"] = data
            self.phase.counters["pull"][-1]["rows"] = len(expected)
            if fixtures.parse_csv(self.session.work) != list(expected):
                self.phase.fail(f"pull v{parent}: content differs from oracle")
        child = self.oracle.edit(expected, self.rng)
        fixtures.write_csv(self.session.work, child)
        vid = self.oracle.add(child)
        got = self._op("commit", self.session.commit, parent, f"edit of v{parent}")
        if got is None:
            # Keep oracle and repository in step: the version does not exist.
            del self.oracle.rows[vid]
        elif got not in (0, vid):
            self.phase.fail(f"commit returned version {got}, expected {vid}")
        else:
            self._committed.append(vid)

    def verify_commits(self) -> None:
        """Every version committed during the pass, for full content
        (untimed; run after the pass's resource readings are taken)."""
        for vid in self._committed:
            try:
                rows = self.session.fetch(vid)
            except Exception as exc:
                self.phase.fail(f"verify v{vid} raised {type(exc).__name__}: {exc}")
                continue
            if rows != list(self.oracle.rows[vid]):
                self.phase.fail(f"committed v{vid}: content differs from oracle")
