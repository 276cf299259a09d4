"""Read/write amplification: what storage work did a command really do?

EXPLAIN (:mod:`repro.observe.explain`) predicts I/O; the cost
accountant (:mod:`repro.relational.costs`) measures it. This module
closes the loop by normalizing the measurement: **read amplification**
is rows (or bytes) actually scanned divided by the rows the requested
version contains — the factor a perfect layout would hold at 1.0 —
and **write amplification** is rows physically written divided by rows
committed. Both are computed per command and per data model from the
sample sums of the mined heat model
(:class:`repro.observe.heat.HeatAccountant`); :func:`read_amplification`
is the one place the read ratio is computed.

Whether the observed workload is within budget is the advisor's
judgement (:func:`repro.observe.heat.advise`): µ·C*_avg for a
partitioned store, :data:`~repro.observe.heat.AMP_BUDGET` for the rest.
"""

from __future__ import annotations

from repro.observe import heat as heat_model


def _sample_factors(sample: dict) -> dict:
    """One (model, command) sample -> amplification factors."""
    out: dict = {
        "events": sample["events"],
        "rows_requested": sample["rows_requested"],
        "rows_returned": sample["rows_returned"],
        "rows_scanned": sample["rows_scanned"],
        "bytes_scanned": sample["bytes_scanned"],
        "rows_written": sample["rows_written"],
        "bytes_written": sample["bytes_written"],
        "read_amplification": None,
        "write_amplification": None,
    }
    amp = read_amplification(sample)
    if amp is not None:
        out["read_amplification"] = round(amp, 4)
        if sample["rows_written"]:
            out["write_amplification"] = round(
                sample["rows_written"] / sample["rows_requested"], 4
            )
    return out


def amplification_report(heat: heat_model.HeatAccountant) -> dict:
    """``{model: {command: factors}}`` over everything observed so far.

    ``read_amplification`` below 1.0 is real, not an error: the version
    cache (and commit-time record dedup) can answer a request while
    scanning *fewer* rows than the version holds.
    """
    report: dict = {}
    for key, sample in sorted(heat.samples.items()):
        model, _, command = key.partition("|")
        report.setdefault(model, {})[command] = _sample_factors(sample)
    return report


def read_amplification(sample: dict | None) -> float | None:
    """Rows scanned per requested row of one (model, command) sample
    (None without a denominator)."""
    if not sample or sample["rows_requested"] <= 0:
        return None
    return sample["rows_scanned"] / sample["rows_requested"]


def checkout_amplification(
    heat: heat_model.HeatAccountant, model: str
) -> float | None:
    """The observed checkout read-amplification factor for one model."""
    return read_amplification(heat.samples.get(f"{model}|checkout"))

