"""Ablation — range-encoded rlists (the Section 4.2 compression remark).

Compares the split-by-rlist versioning table with plain integer arrays
against range-encoded ones: storage saved and checkout overhead paid.
rids are allocated sequentially and versions inherit contiguous runs, so
the encoding is very effective on real histories.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, history_schema, print_table, sample_vids, timed
from repro.core.cvd import CVD
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.relational.database import Database


def test_ablation_range_encoding(benchmark):
    rows = []
    savings = {}
    for name in ("SCI_S", "SCI_M", "CUR_M"):
        history = dataset(name)
        schema = history_schema(history)
        stats = {}
        for compress in (False, True):
            db = Database()
            model = SplitByRlistModel(
                db, name, schema, compress_rlists=compress
            )
            CVD.from_history(
                db, history, name=name, model=model, schema=schema
            )
            vids = sample_vids(history, 10)
            _res, seconds = timed(
                lambda m=model, v=vids: [m.checkout_columns(x) for x in v]
            )
            stats[compress] = (
                model.versioning_table.storage_bytes(),
                seconds / len(vids),
            )
        plain_bytes, plain_seconds = stats[False]
        packed_bytes, packed_seconds = stats[True]
        savings[name] = plain_bytes / packed_bytes
        rows.append(
            (
                name,
                fmt(plain_bytes / 1e3, 4) + " KB",
                fmt(packed_bytes / 1e3, 4) + " KB",
                fmt(savings[name], 4) + "x",
                fmt(plain_seconds * 1000, 3) + " ms",
                fmt(packed_seconds * 1000, 3) + " ms",
            )
        )
    print_table(
        "Ablation: range-encoded rlists",
        [
            "dataset",
            "plain vtable",
            "encoded vtable",
            "compression",
            "plain checkout",
            "encoded checkout",
        ],
        rows,
    )
    history = dataset("SCI_S")
    schema = history_schema(history)
    db = Database()
    model = SplitByRlistModel(db, "b", schema, compress_rlists=True)
    CVD.from_history(db, history, name="b", model=model, schema=schema)
    vid = history.commits[-1].vid
    benchmark.pedantic(model.checkout_columns, args=(vid,), rounds=3, iterations=1)
    for name, ratio in savings.items():
        assert ratio > 1.5, name
