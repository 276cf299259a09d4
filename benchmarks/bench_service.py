"""Service daemon round-trip benchmarks.

The daemon adds three layers on top of the library calls it wraps —
the wire protocol, the scheduler, and the materialized-version cache —
and these benches price each one:

* ``service/checkout_cold`` — inline checkouts that all miss the
  cache: protocol + scheduler + full materialization per request.
* ``service/checkout_cached`` — the same requests, the same number of
  them, all hitting the cache: protocol + scheduler + an LRU lookup.
  The gap between this and the cold number is the cache's headline
  win, and ``runner.RELATIONAL_GATES`` holds it to ``<= 0.6x cold``.
* ``service/read_fanout`` — four client connections hammering one hot
  version concurrently: shared read-lock and worker-pool throughput.
* ``service/mixed_read_write`` — readers on a hot dataset while a
  writer commits to another: write serialization must not stall the
  read path, and invalidation must stay per-CVD.

All four share one in-process daemon over a real Unix socket (module
singleton, torn down at interpreter exit), so the timings include
genuine socket round-trips without per-bench boot cost.
"""

from __future__ import annotations

import atexit
import os
import random
import shutil
import tempfile
import threading

from benchmarks.registry import quick_bench
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceDaemon

DATASET = "bench"
CHURN = "churn"
VERSIONS = 8
ROWS = 1500
#: Both checkout benches read every version this many times over.
SWEEPS = 3
CACHED_READS = 50
FANOUT_CLIENTS = 4
FANOUT_READS = 25


def _write_version_csv(path: str, version: int) -> None:
    """Version ``v`` keeps most of v1's rows and swaps a deterministic
    5% — the collaborative-edit shape the cache and deltas see."""
    rng = random.Random(1000 + version)
    rows = {f"k{i}": i for i in range(ROWS)}
    for _ in range((version - 1) * ROWS // 20):
        key = f"k{rng.randrange(ROWS)}"
        rows[key] = rng.randrange(10_000)
    with open(path, "w") as handle:
        handle.write("key,value\n")
        for key in sorted(rows):
            handle.write(f"{key},{rows[key]}\n")


class _ServiceFixture:
    """One daemon + seeded repository shared by every service bench."""

    _instance: "_ServiceFixture | None" = None

    @classmethod
    def get(cls) -> "_ServiceFixture":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def __init__(self) -> None:
        from repro.cli import main as cli_main

        self.root = tempfile.mkdtemp(prefix="orpheus-bench-svc-")
        schema = os.path.join(self.root, "schema.csv")
        with open(schema, "w") as handle:
            handle.write("key,text\nvalue,integer\nprimary_key,key\n")
        seed = os.path.join(self.root, "v1.csv")
        _write_version_csv(seed, 1)
        for dataset in (DATASET, CHURN):
            code = cli_main(
                [
                    "--root", self.root, "init",
                    "-d", dataset, "-f", seed, "-s", schema,
                ]
            )
            if code != 0:
                raise RuntimeError(f"bench init failed for {dataset!r}")

        self.daemon = ServiceDaemon(
            ServiceConfig(
                root=self.root,
                socket_path=os.path.join(self.root, "bench.sock"),
                workers=4,
                # Fold far beyond any bench runtime: the runner owns the
                # telemetry registry while it measures counters.
                fold_interval=3600.0,
            )
        )
        self.daemon.start()
        self._thread = threading.Thread(
            target=self.daemon.serve_forever,
            name="bench-orpheusd",
            daemon=True,
        )
        self._thread.start()
        atexit.register(self.close)

        # Versions 2..VERSIONS for the cold-checkout sweep.
        with self.client() as client:
            for version in range(2, VERSIONS + 1):
                path = os.path.join(self.root, f"v{version}.csv")
                _write_version_csv(path, version)
                client.commit(
                    DATASET, file=path,
                    message=f"bench v{version}", parents=[version - 1],
                )
        self._churn_turn = 0

    def client(self, timeout: float = 60.0) -> ServiceClient:
        return ServiceClient(
            socket_path=self.daemon.config.resolved_socket(),
            root=self.root,
            timeout=timeout,
        ).connect()

    def next_churn_file(self) -> str:
        """A fresh one-row-different CSV for the mixed-workload writer."""
        self._churn_turn += 1
        path = os.path.join(self.root, "churn.csv")
        _write_version_csv(path, 2)
        with open(path, "a") as handle:
            handle.write(f"turn{self._churn_turn},{self._churn_turn}\n")
        return path

    def close(self) -> None:
        try:
            self.daemon.shutdown()
            self._thread.join(timeout=10)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _fixture() -> _ServiceFixture:
    return _ServiceFixture.get()


def _checkout_sweeps(fx: _ServiceFixture, flush: bool) -> None:
    with fx.client() as client:
        for _ in range(SWEEPS):
            if flush:
                client.flush_cache()
            for version in range(1, VERSIONS + 1):
                data = client.checkout(DATASET, [version], inline=True)
                assert data["rows"] == ROWS


@quick_bench(
    "service/checkout_cold",
    setup=_fixture,
    repeats=3,
    counters=("service.request.", "storage.io."),
)
def bench_checkout_cold(fx: _ServiceFixture) -> None:
    _checkout_sweeps(fx, flush=True)


@quick_bench(
    "service/checkout_cached",
    setup=_fixture,
    repeats=3,
    counters=("service.request.", "storage.io."),
)
def bench_checkout_cached(fx: _ServiceFixture) -> None:
    # The runner's warmup run admits every version; measured runs hit.
    _checkout_sweeps(fx, flush=False)


@quick_bench(
    "service/read_fanout",
    setup=_fixture,
    repeats=3,
    counters=("service.request.", "storage.io."),
)
def bench_read_fanout(fx: _ServiceFixture) -> None:
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            with fx.client() as client:
                for _ in range(FANOUT_READS):
                    client.checkout(DATASET, [1], inline=True)
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=reader) for _ in range(FANOUT_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]


@quick_bench(
    "service/mixed_read_write",
    setup=_fixture,
    repeats=3,
    counters=("service.request.", "storage.io."),
)
def bench_mixed_read_write(fx: _ServiceFixture) -> None:
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            with fx.client() as client:
                for _ in range(FANOUT_READS):
                    client.checkout(DATASET, [1], inline=True)
        except BaseException as error:
            errors.append(error)

    def writer() -> None:
        try:
            with fx.client() as client:
                for _ in range(2):
                    client.request_with_retry(
                        "commit",
                        dataset=CHURN,
                        file=fx.next_churn_file(),
                        message="bench churn",
                        parents=[1],
                        retries=8,
                    )
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]


@quick_bench(
    "service/traced_roundtrip",
    setup=_fixture,
    repeats=3,
    counters=("service.request.", "storage.io."),
)
def bench_traced_roundtrip(fx: _ServiceFixture) -> None:
    """The fully-traced request path: every response must come back
    with its queue-wait/execute split, so this bench prices the
    tracing overhead while proving the envelope is always present."""
    with fx.client() as client:
        for _ in range(CACHED_READS):
            client.checkout(DATASET, [1], inline=True)
            trace = client.last_trace
            assert trace is not None and trace["status"] == "ok"
            assert "queue_wait_s" in trace and "execute_s" in trace
