"""benchmarks.e2e — the end-to-end checkout/commit benchmark.

Five named workloads drive the system the way its users do (a real
``orpheus serve`` subprocess over its Unix socket, or one-shot CLI
commands), verify every result against a generator-side oracle, and
report the end-to-end and per-layer metrics that ``BENCHMARK.json``
names. See ``README.md`` in this directory.
"""
