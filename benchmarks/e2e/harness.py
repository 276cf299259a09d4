"""Run one workload end to end and turn what it observed into metrics.

A run is: build the seeded fixture repository → set up several times
(the median is ``setup_s``) → one untraced pass over the workload's
script on the last session → resource readings → oracle verification →
teardown. The pass waits for, and is repeated once after, hypervisor
CPU steal (``quiet.py``). ``trace=True`` adds a traced replay of the first quarter of
the script on a fresh session, a traced one-shot CLI probe on the same
fixture (daemon workloads), and in-process probes of single layers.
End-to-end numbers always come from the untraced pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import repro.cli
import repro.core.commands
from repro.core.cvd import CVD
from repro.observe.journal import Journal
from repro.pagestore import codec
from repro.pagestore import store as pagestore
from repro.partition.partitioned_store import PartitionedRlistStore
from repro.resilience.statestore import StateStore
from repro.service import protocol
from repro.service.cache import CacheEntry, VersionCache

from . import fixtures
from .fixtures import DATASET
from .quiet import QuietGate, cpu_ticks, steal_frac
from .spans import Recorder, Span, percentile, self_times, wrapped
from .workloads import (
    REFERENCE_SECONDS,
    WORKLOADS,
    CliSession,
    Loop,
    Phase,
    Workload,
    open_session,
    stored_bytes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Everything a run writes lives here (gitignored); relative to the
#: working directory so Unix socket paths stay short.
WORK_DIR = os.path.relpath(os.path.join(ROOT, ".bench_e2e"))
#: Set-ups per run (their median is ``setup_s``): at least MIN_SETUPS,
#: and more — up to MAX_SETUPS — while they are cheap, because a 20 ms
#: set-up needs more repeats than an 800 ms one to give a steady median.
MIN_SETUPS = 5
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.0
#: A p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100
#: Traced one-shot CLI cycles that price the in-process layers for a
#: daemon workload (the one-shot workloads' own traced pass does it).
PROBE_CYCLES = 6

#: Fixture name -> data model its repository is initialised with.
FIXTURE_MODELS = {"mid": "split_by_rlist", "midp": "partitioned_rlist"}

#: Layer boundaries the traced run wraps: (owner, attribute, span, layer).
DAEMON_TARGETS = (
    (protocol, "encode", "protocol.encode", "protocol"),
    (protocol, "decode_response", "protocol.decode", "protocol"),
    (protocol.LineChannel, "send", "socket.send", "socket"),
    (protocol.LineChannel, "recv_line", "socket.wait", "socket"),
)
CLI_TARGETS = (
    (fixtures, "cli_main", "cli.main", "cli"),
    (StateStore, "load", "statestore.load", "statestore"),
    (StateStore, "save", "statestore.save", "statestore"),
    (CVD, "checkout", "core.checkout", "core"),
    (CVD, "commit", "core.commit", "core"),
    (repro.cli, "read_csv", "csvio.read", "csvio"),
    (repro.core.commands, "write_csv", "csvio.write", "csvio"),
    (Journal, "append", "observe.journal", "observe"),
    (repro.cli, "save_telemetry", "telemetry.save", "telemetry"),
    (pagestore.PageStore, "read_segment", "pagestore.read_segment", "pagestore"),
    (codec, "decode_segment", "codec.decode", "codec"),
    (codec, "encode_segment", "codec.encode", "codec"),
    (codec, "encode_table_rows", "codec.encode", "codec"),
)


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    load = os.getloadavg()[0]
    if load > 1.0:
        sys.stderr.write(
            f"warning: 1-min load average is {load:.2f} (> 1): another "
            f"process is competing for this box's cores\n"
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "load_1m": load,
    }


class Bench:
    """One seeded benchmark run: owns the scratch directory, the fixture
    repositories (built once, shared by every workload of the run) and
    the scrubbed environment."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        for key in [k for k in os.environ if k.startswith("ORPHEUS_")]:
            del os.environ[key]
        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        self.oracle = fixtures.Oracle(seed, fixtures.SMOKE if smoke else fixtures.MID)
        self._fixtures: dict[str, str] = {}

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def fixture(self, name: str) -> str:
        """The fixture repository ``name``, built on first use."""
        if name not in self._fixtures:
            root = os.path.join(self.dir, f"fixture-{name}")
            fixtures.build_repository(self.oracle, root, FIXTURE_MODELS[name])
            self._fixtures[name] = root
        return self._fixtures[name]

    # ------------------------------------------------------------------
    def run(
        self, name: str, seconds: float = REFERENCE_SECONDS, trace: bool = False
    ) -> dict:
        workload = WORKLOADS[name]
        fixture_dir = self.fixture(workload.fixture)
        count = workload.count(seconds, self.smoke)
        oracle = self.oracle

        gate = QuietGate(WORK_DIR)
        gate.hold()
        setups, session = self._set_up(workload, fixture_dir)
        while True:
            try:
                gate.hold()
                ticks, t0 = cpu_ticks(), time.perf_counter()
                before = session.totals()
                loop = Loop(session, oracle.fork(), self.seed)
                phase = loop.run(count)
                after = session.totals()
                peak_rss = session.peak_rss_mb()
                stolen = steal_frac(ticks, cpu_ticks())
                again = gate.should_remeasure(stolen, time.perf_counter() - t0)
                if not again:
                    loop.verify_commits()
            finally:
                session.close()
            if not again:
                break
            root = os.path.join(self.dir, f"{name}-again")
            session = open_session(workload, fixture_dir, root, oracle)
        totals = {key: after[key] - before[key] for key in after}
        check_preconditions(workload, phase, totals)

        ops = sum(len(v) for v in phase.latency_s.values())
        cpu_s = totals["cpu_s"] if workload.daemon else phase.cpu_s
        checkout = phase.latency_s.get(workload.checkout_kind, [])
        result = {
            "workload": name,
            "seed": self.seed,
            "correct": phase.failed == 0 and not phase.problems,
            "attempted": phase.attempted,
            "failed": phase.failed,
            "problems": phase.problems,
            "samples": {k: len(v) for k, v in phase.latency_s.items()},
            "quiet": {
                "steal_frac": stolen,
                "held_s": gate.held_s,
                "remeasured": gate.retries,
            },
            "end_to_end": {
                "setup_s": statistics.median(setups),
                "checkout_p50_ms": _ms(checkout, 0.5),
                "ops_per_s": ops / phase.busy_s if phase.busy_s else None,
                "cpu_ms_per_op": cpu_s * 1e3 / ops if ops else None,
                "peak_rss_mb": peak_rss,
                "stored_bytes_per_user_byte": stored_bytes(session.root)
                / loop.oracle.user_bytes(),
            },
            "report": op_report(phase),
        }
        if trace:
            traced = self._traced_pass(workload, fixture_dir, max(1, count // 4))
            result["per_layer"] = {
                **result["report"],
                **layer_metrics(workload, phase, totals, traced),
                **cache_probe(oracle, workload),
                **protocol_probe(
                    phase.last_response.get(workload.checkout_kind), workload
                ),
                **partition_probe(fixture_dir, oracle.newest),
                "statestore.state_bytes": float(stored_bytes(fixture_dir)),
            }
        return result

    # ------------------------------------------------------------------
    def _set_up(self, workload: Workload, fixture_dir: str):
        """Set up MIN_SETUPS..MAX_SETUPS times, tearing each session
        down but the last; returns the timings and that last session."""
        setups, session = [], None
        while not setups or (
            not self.smoke
            and len(setups) < MAX_SETUPS
            and (len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S)
        ):
            if session is not None:
                session.close()
                shutil.rmtree(session.root)
            root = os.path.join(self.dir, f"{workload.name}-{len(setups)}")
            t0 = time.perf_counter()
            session = open_session(workload, fixture_dir, root, self.oracle)
            setups.append(time.perf_counter() - t0)
        return setups, session

    def _traced_pass(self, workload: Workload, fixture_dir: str, count: int) -> "Traced":
        """Replay the first ``count`` steps of the script on a fresh
        session with spans on; for a daemon workload, follow with the
        traced one-shot CLI probe on the same fixture."""
        name = workload.name
        oracle = self.oracle
        recorder = Recorder()
        session = open_session(
            workload, fixture_dir, os.path.join(self.dir, f"{name}-traced"), oracle
        )
        try:
            targets = DAEMON_TARGETS if workload.daemon else CLI_TARGETS
            with wrapped(recorder, targets):
                phase = Loop(session, oracle.fork(), self.seed, recorder).run(count)
            rtt_ms = _median_ms(session.client.ping, 50) if workload.daemon else 0.0
        finally:
            session.close()
        own_spans = len(recorder.spans)
        if workload.daemon:
            probe = dataclasses.replace(
                workload, name=f"{name}-probe", daemon=False, script="collab"
            )
            session = CliSession(
                probe, fixture_dir, os.path.join(self.dir, f"{name}-probe"),
                oracle.newest,
            )
            try:
                with wrapped(recorder, CLI_TARGETS):
                    Loop(session, oracle.fork(), self.seed, recorder).run(
                        2 if self.smoke else PROBE_CYCLES
                    )
            finally:
                session.close()
        recorder.write(os.path.join(WORK_DIR, f"trace_{name}.jsonl"))
        spans = recorder.spans
        return Traced(
            phase=phase,
            own=spans[:own_spans],
            cli=spans[own_spans:] if workload.daemon else spans,
            self_ns=self_times(spans),
            rtt_ms=rtt_ms,
        )


@dataclasses.dataclass
class Traced:
    """What the traced pass recorded."""

    phase: Phase
    #: Spans of the workload's own traced operations.
    own: list[Span]
    #: Spans of in-process CLI operations (the probe's, or ``own``).
    cli: list[Span]
    self_ns: dict[int, int]
    rtt_ms: float


def layer_metrics(
    workload: Workload, untraced: Phase, totals: dict, traced: Traced
) -> dict:
    """Per-layer readings from the untraced pass's counters and the
    traced pass's spans."""
    kind = workload.checkout_kind
    ops = sum(len(v) for v in untraced.latency_s.values())
    counters = [c for v in untraced.counters.values() for c in v]
    checkouts = untraced.counters.get(kind, [])
    rows = sum(c.get("rows", 0) for c in checkouts)
    lookups = totals.get("cache_hits", 0) + totals.get("cache_misses", 0)
    traced_s = traced.phase.latency_s.get(kind, [])
    same_ops_s = untraced.latency_s.get(kind, [])[: len(traced_s)]
    if workload.daemon:
        faults, hits = totals["pool_faults"] / ops, totals["pool_hits"] / ops
    else:
        faults, hits = _mean(counters, "pool_faults"), _mean(counters, "pool_hits")
    layers = {
        "client.request_ms": untraced.busy_s * 1e3 / ops if workload.daemon else 0.0,
        "daemon.admission_ms": _mean(counters, "admission_s") * 1e3,
        "daemon.queue_ms": _mean(counters, "queue_wait_s") * 1e3,
        "daemon.execute_ms": _mean(counters, "execute_s") * 1e3,
        "socket.rtt_ms": traced.rtt_ms,
        "cache.hit_rate": totals["cache_hits"] / lookups if lookups else 0.0,
        "cache.invalidations": float(totals.get("cache_invalidations", 0)),
        "relational.rows_scanned_per_row": (
            sum(c["rows_scanned"] for c in checkouts) / rows if rows else 0.0
        ),
        "relational.bytes_scanned": _mean(checkouts, "bytes_scanned"),
        "pagestore.faults": faults,
        "pagestore.hits": hits,
        "pagestore.page_bytes_read": _mean(counters, "page_bytes_read"),
        "pagestore.pages_written_per_commit": _mean(
            untraced.counters.get("commit", []), "pages_written"
        ),
        "cli.overhead_ms": _mean_ms(
            [traced.self_ns[s.span_id] for s in traced.cli if s.name == "cli.main"]
        ),
        "unattributed_ms": _mean_ms(
            [traced.self_ns[s.span_id] for s in traced.own if s.parent is None]
        ),
        "trace.overhead_frac": (
            percentile(traced_s, 0.5) / percentile(same_ops_s, 0.5) - 1.0
            if traced_s and same_ops_s
            else 0.0
        ),
    }
    for metric, span_name in (
        ("core.checkout_ms", "core.checkout"),
        ("core.commit_ms", "core.commit"),
        ("csvio.read_ms", "csvio.read"),
        ("csvio.write_ms", "csvio.write"),
        ("statestore.load_ms", "statestore.load"),
        ("statestore.save_ms", "statestore.save"),
        ("codec.decode_ms", "codec.decode"),
        ("codec.encode_ms", "codec.encode"),
    ):
        layers[metric] = per_op_ms(traced.cli, span_name)
    return layers


# ----------------------------------------------------------------------
# Checks and metric arithmetic
# ----------------------------------------------------------------------
def check_preconditions(workload: Workload, phase: Phase, totals: dict) -> None:
    """A workload only measures what it claims to when these hold."""
    reads = len(phase.latency_s.get("read", []))
    counters = [c for v in phase.counters.values() for c in v]
    paging = sum(
        c.get("pool_faults", 0) + c.get("pool_hits", 0) + c.get("pages_written", 0)
        for c in counters
    )
    if workload.name == "hot_read" and (
        totals["cache_misses"] or totals["cache_hits"] != reads
    ):
        phase.problems.append(
            f"hot_read must only hit: {totals['cache_hits']} hits, "
            f"{totals['cache_misses']} misses over {reads} reads"
        )
    if workload.name == "cold_read" and totals["cache_hits"]:
        phase.problems.append(f"cold_read must never hit: {totals['cache_hits']} hits")
    if workload.name == "oneshot_pickle" and paging:
        phase.problems.append(f"oneshot_pickle touched the page store ({paging})")
    if workload.name == "oneshot_paged" and not sum(
        c.get("pool_faults", 0) for c in counters
    ):
        phase.problems.append("oneshot_paged never faulted a page")


def op_report(phase: Phase) -> dict:
    """Per-operation latency by the names ISSUE 11 gave them; ``None``
    where the workload has no such op or too few samples for a p90."""
    report = {}
    for kind in ("read", "pull", "commit"):
        values = phase.latency_s.get(kind, [])
        report[f"{kind}_p50_ms"] = _ms(values, 0.5)
        report[f"{kind}_p90_ms"] = (
            _ms(values, 0.9) if len(values) >= P90_MIN_SAMPLES else None
        )
    report["failed_ops_frac"] = phase.failed / max(1, phase.attempted)
    return report


def _ms(seconds: list[float], q: float) -> float | None:
    return percentile(seconds, q) * 1e3 if seconds else None


def _mean(counters: list[dict], key: str) -> float:
    values = [c[key] for c in counters if key in c]
    return sum(values) / len(values) if values else 0.0


def _mean_ms(nanoseconds: list[int]) -> float:
    return sum(nanoseconds) / len(nanoseconds) / 1e6 if nanoseconds else 0.0


def per_op_ms(spans: list[Span], name: str) -> float:
    """Mean time per operation spent inside spans called ``name``, over
    the operations that entered one at all."""
    per_trace: dict[str, int] = {}
    for span in spans:
        if span.name == name:
            per_trace[span.trace_id] = per_trace.get(span.trace_id, 0) + span.duration_ns
    return _mean_ms(list(per_trace.values()))


# ----------------------------------------------------------------------
# Single-layer probes (timed calls into public functions, in process)
# ----------------------------------------------------------------------
def _median_ms(call, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def cache_probe(oracle: fixtures.Oracle, workload: Workload) -> dict:
    """``VersionCache.get``/``put`` on a real entry (the newest version)."""
    if not workload.daemon:
        return {"cache.put_ms": 0.0, "cache.get_us": 0.0}
    rows = list(oracle.rows[oracle.newest])
    columns = fixtures.HEADER.split(",")
    cache = VersionCache()

    def put():
        cache.put(DATASET, [1], CacheEntry(columns, rows, (1,)))

    put_ms = _median_ms(put, 15)
    gets = 2000
    t0 = time.perf_counter()
    for _ in range(gets):
        cache.get(DATASET, [1])
    return {
        "cache.put_ms": put_ms,
        "cache.get_us": (time.perf_counter() - t0) / gets * 1e6,
    }


def protocol_probe(data: dict | None, workload: Workload) -> dict:
    """``encode``/``decode_response`` on the workload's actual checkout
    response (what the server serialises and the client parses)."""
    if not workload.daemon or data is None:
        return {"protocol.encode_ms": 0.0, "protocol.decode_ms": 0.0}
    payload = protocol.Response(id=1, status=protocol.OK, data=data).to_dict()
    line = protocol.encode(payload)
    return {
        "protocol.encode_ms": _median_ms(lambda: protocol.encode(payload), 15),
        "protocol.decode_ms": _median_ms(lambda: protocol.decode_response(line), 15),
    }


def partition_probe(fixture_dir: str, versions: int) -> dict:
    """Partition count, in-process checkout and LyreSplit time on a
    partitioned fixture; zeros on any other data model."""
    state, _info = StateStore(fixture_dir).load()
    cvd = state.cvd(DATASET)
    if not isinstance(cvd.model, PartitionedRlistStore):
        return {
            "partition.count": 0.0,
            "partition.checkout_ms": 0.0,
            "partition.lyresplit_ms": 0.0,
        }
    checkouts = [
        _median_ms(lambda v=v: cvd.checkout(v), 1) for v in range(1, versions + 1)
    ]
    return {
        "partition.count": float(cvd.model.current_partitioning().num_partitions),
        "partition.checkout_ms": statistics.median(checkouts),
        "partition.lyresplit_ms": _median_ms(cvd.model.best_partitioning, 3),
    }
