"""Ablation — the Section 4.2 remark that array-based rlists "can be
further reduced by applying compression techniques like range-encoding".

That reduction is the paged codec's: ``rows.v2`` writes a column of rid
lists as one delta array of all their members under zlib, so a run of
consecutive rids costs a repeated ``1``. This compares the split-by-rlist
versioning table's accounted bytes (4 bytes a rid, what ``storage_bytes``
charges) with the bytes the codec encodes the same rows to, and times
the checkout that reads them.
"""

from __future__ import annotations


from benchmarks.common import dataset, fmt, history_schema, print_table, sample_vids, timed
from repro.core.cvd import CVD
from repro.core.models.split_by_rlist import SplitByRlistModel
from repro.pagestore import codec
from repro.relational.database import Database


def _versioning_model(name: str) -> SplitByRlistModel:
    history = dataset(name)
    schema = history_schema(history)
    db = Database()
    model = SplitByRlistModel(db, name, schema)
    CVD.from_history(db, history, name=name, model=model, schema=schema)
    return model


def test_ablation_range_encoding(benchmark):
    rows = []
    savings = {}
    for name in ("SCI_S", "SCI_M", "CUR_M"):
        model = _versioning_model(name)
        table = model.versioning_table
        accounted = table.storage_bytes()
        codec_name, blob = codec.encode_table_rows(
            table.rows_snapshot(), len(table.schema.columns)
        )
        assert codec_name == codec.ROWS_V2, name
        vids = sample_vids(dataset(name), 10)
        _res, seconds = timed(
            lambda m=model, v=vids: [m.checkout_columns(x) for x in v]
        )
        savings[name] = accounted / len(blob)
        rows.append(
            (
                name,
                fmt(accounted / 1e3, 4) + " KB",
                fmt(len(blob) / 1e3, 4) + " KB",
                fmt(savings[name], 4) + "x",
                fmt(seconds / len(vids) * 1000, 3) + " ms",
            )
        )
    print_table(
        "Ablation: rlists encoded by the paged codec",
        ["dataset", "accounted vtable", "encoded vtable", "compression", "checkout"],
        rows,
    )
    model = _versioning_model("SCI_S")
    vid = dataset("SCI_S").commits[-1].vid
    benchmark.pedantic(model.checkout_columns, args=(vid,), rounds=3, iterations=1)
    for name, ratio in savings.items():
        assert ratio > 1.5, name
