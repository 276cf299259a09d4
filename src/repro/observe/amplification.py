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

For partitioned stores the observed per-checkout scan is also compared
against the LyreSplit bound: Chapter 5 proves the chosen partitioning
keeps the *expected* checkout within (1+δ) of optimal; the
:func:`bound_comparison` report says whether the *observed* workload
stayed inside it.
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


def bound_comparison(orpheus, heat: heat_model.HeatAccountant) -> list[dict]:
    """Observed per-checkout scan vs. the LyreSplit checkout-cost bound,
    per dataset.

    For a partitioned store the bound is (1+δ*)·C*_avg (LyreSplit rerun
    under the live budget); for monolithic models there is no proved
    bound, so the row reports the observed amplification against
    :data:`~repro.observe.heat.AMP_BUDGET` instead.
    """
    from repro.core.errors import CVDError

    rows: list[dict] = []
    if orpheus is None:
        return rows
    budget = heat_model.AMP_BUDGET
    for dataset in sorted(heat.datasets):
        try:
            cvd = orpheus.cvd(dataset)
        except (KeyError, ValueError, CVDError):
            continue
        model = cvd.model.model_name
        sample = heat.samples.get(f"{model}|checkout")
        entry = {
            "dataset": dataset,
            "model": model,
            "checkouts": sample["events"] if sample else 0,
            "observed_rows_per_checkout": (
                round(sample["rows_scanned"] / sample["events"], 2)
                if sample and sample["events"]
                else None
            ),
        }
        store = cvd.model
        if hasattr(store, "best_partitioning"):
            try:
                _target, best = store.best_partitioning()
                delta = getattr(store, "_delta_star", 0.0)
                entry["bound_rows_per_checkout"] = round(
                    (1.0 + delta) * best, 2
                )
                entry["delta_star"] = round(delta, 4)
                observed = entry["observed_rows_per_checkout"]
                entry["within_bound"] = (
                    observed is None
                    or observed <= entry["bound_rows_per_checkout"] + 1e-9
                )
            except Exception:
                entry["bound_rows_per_checkout"] = None
                entry["within_bound"] = None
        else:
            amp = checkout_amplification(heat, model)
            entry["read_amplification"] = (
                None if amp is None else round(amp, 4)
            )
            entry["amp_budget"] = budget
            entry["within_bound"] = amp is None or amp <= budget
        rows.append(entry)
    return rows
