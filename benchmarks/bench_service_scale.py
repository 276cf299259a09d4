"""Service-scale load ramp: the daemon under open-loop Zipf traffic.

``python -m benchmarks --tier service-scale`` runs the
:mod:`repro.service.loadgen` harness against the shared in-process
daemon fixture: a client ramp (8 → 64 simulated open-loop clients)
issuing Zipf-skewed inline checkouts plus a small commit stream. The
bench *returns* the loadgen report, so the runner lands the full
per-step trajectory — offered vs completed, goodput, shed rate,
p50/p95/p99 — in ``BENCH_<sha>.json`` under ``extra``. That trajectory
is the yardstick every subsequent scaling change (async daemon,
sharding) gets measured against.

Deliberately not in the quick tier: 64 threads for seconds per step is
a load test, not a microbenchmark, and its numbers are throughput
shapes rather than baseline-gated latencies.
"""

from __future__ import annotations

from benchmarks.bench_service import CHURN, DATASET, VERSIONS, _ServiceFixture
from benchmarks.registry import SERVICE_SCALE, quick_bench
from repro.service.loadgen import LoadConfig, run_load

RAMP = (8, 16, 32, 64)
STEP_SECONDS = 1.5
CLIENT_RPS = 15.0


def _fixture() -> _ServiceFixture:
    return _ServiceFixture.get()


@quick_bench(
    "service_scale/zipf_ramp",
    setup=_fixture,
    repeats=1,
    warmup=0,
    tags=(SERVICE_SCALE,),
    counters=("service.request.",),
)
def bench_zipf_ramp(fx: _ServiceFixture) -> dict:
    """Ramp 8 → 64 open-loop clients over the two seeded datasets.

    ``bench`` (8 versions) takes the Zipf-hot read traffic; ``churn``
    absorbs the 5% commit stream through the serialized writer queue.
    Returns the loadgen report for the runner to attach as ``extra``.
    """
    config = LoadConfig(
        datasets=[DATASET, CHURN],
        versions=VERSIONS,
        versions_by_dataset={CHURN: 1},
        zipf_s=1.1,
        read_ratio=0.95,
        ramp=RAMP,
        step_seconds=STEP_SECONDS,
        client_rps=CLIENT_RPS,
        write_dataset=CHURN,
        write_file=fx.next_churn_file(),
        root=fx.root,
        socket_path=fx.daemon.config.resolved_socket(),
        timeout=60.0,
    )
    report = run_load(config)
    # The ramp must actually offer load and complete most of it;
    # anything else means the harness (not the daemon) broke.
    assert report["steps"], "loadgen produced no ramp steps"
    for step in report["steps"]:
        assert step["issued"] > 0, "a ramp step issued no requests"
    return report
