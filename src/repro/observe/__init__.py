"""repro.observe — the introspection layer over the telemetry primitives.

PR 1 made the system *measurable* (spans, counters, histograms); this
package makes it *explainable*:

* :mod:`repro.observe.explain` — EXPLAIN plan/cost trees for checkout,
  commit, diff, and VQuel queries, with an analyze mode that folds
  actual per-node timings back in from the span tree;
* :mod:`repro.observe.doctor` — storage-health probes (checkout-cost
  ratio vs. the LyreSplit bound, partition imbalance, delta-chain
  lengths, orphaned versions, stale staging, journal integrity), each
  with a severity and a remediation hint;
* :mod:`repro.observe.journal` — the append-only, trace-correlated
  operation journal behind ``orpheus log --ops`` and replay-verify,
  and the one reader of the record ``orpheus stats`` and ``orpheus
  heat`` mine;
* :mod:`repro.observe.profile` — self/total-time analysis of profiled
  span trees (``orpheus profile``: hot-span table, folded stacks,
  JSON).

The names below resolve on first use, so importing one submodule (the
CLI's checkout/commit path needs only the journal) does not import the
others.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "DoctorReport": "doctor",
    "ProbeResult": "doctor",
    "run_doctor": "doctor",
    "HotSpan": "profile",
    "aggregate": "profile",
    "collapsed_stacks": "profile",
    "profile_to_dict": "profile",
    "render_report": "profile",
    "ExplainNode": "explain",
    "attach_actuals": "explain",
    "io_cost": "explain",
    "run_with_actuals": "explain",
    "Journal": "journal",
    "MUTATING_COMMANDS": "journal",
    "OpRecord": "journal",
    "make_record": "journal",
    "new_trace_id": "journal",
    "verify_journal": "journal",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(name)
    return getattr(import_module(f"repro.observe.{module}"), name)


__all__ = sorted(_EXPORTS)
