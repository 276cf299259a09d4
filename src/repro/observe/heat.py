"""Storage-access heat accounting (the storage access observatory).

The paper's partitioning story (Chapter 5) is an argument about *access
patterns*: LyreSplit bounds the average checkout cost (Theorem 5.2)
**for the workload the version graph implies**. This module
makes the actual workload observable at the same granularity the
partitioner reasons about — which datasets, versions, and partitions a
deployment really touches, and how many rows/bytes each touch scanned.

Heat is a view of the records the system already writes, never kept
beside them: :func:`mine` rebuilds the model from the ops journal
(every journaled CLI command, stamped with its scan footprint) and the
daemon's flight record (every orpheusd request). The unit of
accounting is an :class:`AccessEvent` — one finished command against
one dataset — and :func:`build_event` is the one rule that decides
which records are events. Two consequences follow from reading the
record rather than keeping a model:

* the window is what the records retain: journaled operations for the
  journal's whole life, the daemon's inline checkouts (which do not
  journal) for as long as the flight record keeps their segment;
* events are resolved against the *current* state, so after
  ``optimize`` old events are charged to today's partitions, and after
  ``drop`` they lose their model and partitions.

Heat itself is an exponentially-decayed touch count::

    heat(t) = heat(t_last) * 0.5 ** ((t - t_last) / half_life) + 1

per touch, with a half-life of :data:`HALF_LIFE_S`. All timestamps flow
through :func:`repro.telemetry.now`, so decay is deterministic under
the injectable clock. Raw (undecayed) touch and scan totals ride
alongside for amplification math (:mod:`repro.observe.amplification`).

:func:`advise` is the workload-driven partition advisor: observed heat
joined with the existing page cost model (``current_checkout_cost`` /
``best_partitioning`` on partitioned stores, scanned-vs-requested rows
everywhere else) into ranked repartition/migration recommendations
with estimated checkout-cost deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry

#: EWMA half-life in seconds: one hour, so "hot" means "touched this
#: session", not "touched ever".
HALF_LIFE_S = 3600.0

#: Decayed heat below this counts as cold in the cold-fraction and
#: cold-table renderings.
COLD_HEAT = 0.05

#: Read-amplification budget (scanned rows per requested row) the
#: advisor and the ``io_amplification`` doctor probe compare against.
AMP_BUDGET = 10.0

#: Partition-heat skew (max/mean) budget for the ``heat_skew`` probe.
HEAT_SKEW_FACTOR = 4.0

#: Commands whose journal/flight records describe dataset access worth
#: counting in the heat model (reads and writes both count as touches).
HEAT_COMMANDS = ("init", "checkout", "commit", "diff", "run", "optimize")


@dataclass
class AccessEvent:
    """One finished command's storage-access footprint.

    ``rows_requested`` is the denominator of read amplification: the
    record count of the requested version(s) — what a perfect storage
    layout would scan. ``rows_scanned``/``bytes_scanned`` are what the
    cost accountant says was actually touched.
    """

    ts: float
    command: str
    dataset: str
    versions: tuple[int, ...] = ()
    model: str = ""
    partitions: tuple[int, ...] = ()
    rows_requested: int = 0
    rows_returned: int = 0
    rows_scanned: int = 0
    bytes_scanned: int = 0
    rows_written: int = 0
    bytes_written: int = 0


def partition_of(cvd, vid: int) -> int:
    """The partition a version's checkout touches.

    Partitioned stores know exactly (``_partition_of``); every other
    data model is a single physical unit, reported as partition 0 — so
    partition-touch accounting is total over all models, and a CVD on
    a monolithic model shows up as one (necessarily 100%-hot)
    partition.
    """
    mapping = getattr(cvd.model, "_partition_of", None)
    if mapping is not None:
        index = mapping.get(vid)
        if index is not None:
            return int(index)
    return 0


def resolve_access(orpheus, dataset: str, versions) -> dict:
    """Model name, requested-rows denominator, and partitions touched
    for one access, resolved against live state."""
    info = {"model": "", "rows_requested": 0, "partitions": ()}
    if orpheus is None or not dataset:
        return info
    from repro.core.errors import CVDError

    try:
        cvd = orpheus.cvd(dataset)
    except (KeyError, ValueError, CVDError):
        return info  # dropped since the event was recorded
    info["model"] = cvd.model.model_name
    rows = 0
    touched: list[int] = []
    for vid in versions or ():
        try:
            rows += cvd.versions.get(int(vid)).record_count
        except (CVDError, KeyError, ValueError, TypeError):
            continue  # a version the live state no longer holds
        index = partition_of(cvd, int(vid))
        if index not in touched:
            touched.append(index)
    if not touched and (versions or ()) == ():
        # Dataset-level touch (optimize/run): charge partition 0
        # so partition-touch totals still count the access.
        touched = [0]
    info["rows_requested"] = rows
    info["partitions"] = tuple(touched)
    return info


def build_event(
    orpheus,
    ts: float,
    command: str,
    dataset: str,
    versions=(),
    rows_returned: int = 0,
    rows_scanned: int = 0,
    bytes_scanned: int = 0,
    rows_written: int = 0,
    bytes_written: int = 0,
    status: str = "ok",
) -> AccessEvent | None:
    """The heat event of one finished command, or None when it is not
    one: a command is a heat event when it succeeded, named a dataset,
    and is one of :data:`HEAT_COMMANDS`. The event's
    model/partition/denominator fields are resolved against live
    state."""
    if status != "ok" or not dataset or command not in HEAT_COMMANDS:
        return None
    vids = tuple(int(v) for v in versions or ())
    info = resolve_access(orpheus, dataset, vids)
    return AccessEvent(
        ts=float(ts),
        command=command,
        dataset=dataset,
        versions=vids,
        model=info["model"],
        partitions=info["partitions"],
        rows_requested=info["rows_requested"],
        rows_returned=int(rows_returned or 0),
        rows_scanned=int(rows_scanned or 0),
        bytes_scanned=int(bytes_scanned or 0),
        rows_written=int(rows_written or 0),
        bytes_written=int(bytes_written or 0),
    )


def _new_entry() -> dict:
    return {
        "touches": 0,
        "heat": 0.0,
        "last_ts": 0.0,
        "rows_scanned": 0,
        "bytes_scanned": 0,
    }


def _new_sample() -> dict:
    return {
        "events": 0,
        "rows_requested": 0,
        "rows_returned": 0,
        "rows_scanned": 0,
        "bytes_scanned": 0,
        "rows_written": 0,
        "bytes_written": 0,
    }


class HeatAccountant:
    """The decayed heat model plus raw amplification sums.

    Three heat tables — ``datasets`` (key: dataset name), ``versions``
    (key: ``dataset:vid``), ``partitions`` (key: ``dataset:pN``) — and
    one amplification table ``samples`` (key: ``model|command``).
    Built by :func:`mine` on one thread; not thread-safe.
    """

    def __init__(self, half_life_s: float | None = None) -> None:
        self.half_life_s = max(
            1.0, HALF_LIFE_S if half_life_s is None else half_life_s
        )
        self.datasets: dict[str, dict] = {}
        self.versions: dict[str, dict] = {}
        self.partitions: dict[str, dict] = {}
        self.samples: dict[str, dict] = {}
        self.events_total = 0

    # -- recording -------------------------------------------------------
    def _bump(
        self, table: dict, key: str, ts: float, rows: int, nbytes: int
    ) -> None:
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _new_entry()
        age = max(0.0, ts - entry["last_ts"]) if entry["touches"] else 0.0
        entry["heat"] = entry["heat"] * 0.5 ** (age / self.half_life_s) + 1.0
        entry["last_ts"] = max(entry["last_ts"], ts)
        entry["touches"] += 1
        entry["rows_scanned"] += rows
        entry["bytes_scanned"] += nbytes

    def record(self, event: AccessEvent) -> None:
        """Fold one access event into every table."""
        if not event.dataset:
            return
        self.events_total += 1
        rows, nbytes = event.rows_scanned, event.bytes_scanned
        self._bump(self.datasets, event.dataset, event.ts, rows, nbytes)
        for vid in event.versions:
            self._bump(
                self.versions, f"{event.dataset}:{vid}", event.ts, rows, nbytes
            )
        for index in event.partitions:
            self._bump(
                self.partitions,
                f"{event.dataset}:p{index}",
                event.ts,
                rows,
                nbytes,
            )
        key = f"{event.model or '(unknown)'}|{event.command}"
        sample = self.samples.get(key)
        if sample is None:
            sample = self.samples[key] = _new_sample()
        sample["events"] += 1
        sample["rows_requested"] += event.rows_requested
        sample["rows_returned"] += event.rows_returned
        sample["rows_scanned"] += event.rows_scanned
        sample["bytes_scanned"] += event.bytes_scanned
        sample["rows_written"] += event.rows_written
        sample["bytes_written"] += event.bytes_written

    # -- derived ---------------------------------------------------------
    def current_heat(self, entry: dict, now: float | None = None) -> float:
        """An entry's heat decayed to ``now`` (default: the clock)."""
        at = telemetry.now() if now is None else now
        age = max(0.0, at - entry["last_ts"])
        return entry["heat"] * 0.5 ** (age / self.half_life_s)

    def ranked(
        self, table: dict, now: float | None = None, reverse: bool = True
    ) -> list[tuple[str, dict, float]]:
        """(key, entry, decayed heat) sorted hottest-first (or coldest)."""
        at = telemetry.now() if now is None else now
        rows = [
            (key, entry, self.current_heat(entry, at))
            for key, entry in table.items()
        ]
        rows.sort(key=lambda item: (-item[2] if reverse else item[2], item[0]))
        return rows

    def cold_fraction(
        self, orpheus=None, now: float | None = None
    ) -> float | None:
        """Fraction of known versions whose heat has decayed below
        :data:`COLD_HEAT` (never-touched versions count as cold when
        live state is available to enumerate them)."""
        at = telemetry.now() if now is None else now
        total = 0
        cold = 0
        if orpheus is not None:
            for name in orpheus.ls():
                cvd = orpheus.cvd(name)
                for vid in cvd.versions.vids():
                    total += 1
                    entry = self.versions.get(f"{name}:{vid}")
                    if entry is None or self.current_heat(entry, at) < COLD_HEAT:
                        cold += 1
        else:
            for entry in self.versions.values():
                total += 1
                if self.current_heat(entry, at) < COLD_HEAT:
                    cold += 1
        if not total:
            return None
        return cold / total


# ----------------------------------------------------------------------
# Mining: the one derivation of the heat model
# ----------------------------------------------------------------------
def mine_events(
    root: str | None, orpheus=None, journal: list[dict] | None = None
) -> list[AccessEvent]:
    """Reconstruct access events from the flight recorder and the ops
    journal (``journal``: its records when the caller already read them).

    Flight records and CLI journal records both carry scan stamps
    (``rows_scanned`` / ``bytes_scanned`` / ``rows_written``); a
    journal record with a flight twin (a daemon op, matched by trace
    id) is skipped, so each command counts once. Events come back in
    timestamp order, so the EWMA folds them as they happened.
    """
    from repro.observe.journal import Journal, requested_versions
    from repro.service.recorder import flight_dir_path, read_flight

    events: list[AccessEvent | None] = []
    flight_traces: set[str] = set()
    flight = read_flight(flight_dir_path(root))
    for record in flight["records"]:
        trace = record.get("trace")
        if trace:
            flight_traces.add(str(trace))
        events.append(
            build_event(
                orpheus,
                ts=float(record.get("ts") or 0.0),
                command=str(record.get("op")),
                dataset=record.get("dataset"),
                versions=record.get("versions") or (),
                rows_returned=record.get("rows_returned") or 0,
                rows_scanned=record.get("rows_scanned") or 0,
                bytes_scanned=record.get("bytes_scanned") or 0,
                rows_written=record.get("rows_written") or 0,
                status=record.get("status"),
            )
        )
    for record in Journal(root).read() if journal is None else journal:
        if record.get("trace_id") in flight_traces:
            continue  # the daemon journaled it *and* flight-recorded it
        events.append(
            build_event(
                orpheus,
                ts=float(record.get("ts") or 0.0),
                command=str(record.get("command")),
                dataset=record.get("dataset"),
                versions=requested_versions(record),
                rows_returned=record.get("rows") or 0,
                rows_scanned=record.get("rows_scanned") or 0,
                bytes_scanned=record.get("bytes_scanned") or 0,
                rows_written=record.get("rows_written") or 0,
                bytes_written=record.get("bytes_written") or 0,
                status=record.get("status"),
            )
        )
    events = [event for event in events if event is not None]
    events.sort(key=lambda e: e.ts)
    return events


def mine(
    root: str | None, orpheus=None, journal: list[dict] | None = None
) -> HeatAccountant:
    """The heat model of everything the journal and the flight record
    hold, resolved against ``orpheus`` (the live state)."""
    accountant = HeatAccountant()
    for event in mine_events(root, orpheus, journal):
        accountant.record(event)
    return accountant


# ----------------------------------------------------------------------
# The workload-driven partition advisor
# ----------------------------------------------------------------------
def advise(
    orpheus, heat: HeatAccountant, now: float | None = None
) -> list[dict]:
    """Ranked repartition/migration recommendations from observed heat
    joined with the page cost model.

    Every touched dataset gets exactly one recommendation:

    * ``repartition`` — a partitioned store whose *heat-weighted* live
      checkout cost is outside µ·C*_avg
      (:func:`repro.invariants.within_tolerance`, LyreSplit rerun under
      the current budget): the workload concentrates on partitions the
      static layout made expensive → ``orpheus optimize``.
    * ``migrate`` — a monolithic model whose observed checkout read
      amplification breaches :data:`AMP_BUDGET`: checkouts scan
      many times the rows they return → move to ``partitioned_rlist``.
    * ``keep`` — the observed workload is served within budget.

    Ranked by estimated checkout-cost delta × dataset heat, largest
    saving first, so position 0 is always the advisor's best move.
    """
    from repro.core.errors import CVDError
    from repro.invariants import within_tolerance
    from repro.observe.amplification import checkout_amplification

    at = telemetry.now() if now is None else now
    recommendations: list[dict] = []
    for dataset, entry in sorted(heat.datasets.items()):
        if orpheus is None:
            continue
        try:
            cvd = orpheus.cvd(dataset)
        except (KeyError, ValueError, CVDError):
            continue
        dataset_heat = heat.current_heat(entry, at)
        model = cvd.model.model_name
        rec = {
            "dataset": dataset,
            "model": model,
            "kind": "keep",
            "heat": round(dataset_heat, 4),
            "touches": entry["touches"],
            "estimated_checkout_cost_delta": 0.0,
            "reason": "observed workload served within budget",
        }
        store = cvd.model
        if hasattr(store, "current_checkout_cost") and hasattr(
            store, "best_partitioning"
        ):
            weighted = _heat_weighted_checkout_cost(cvd, heat, dataset, at)
            live = store.current_checkout_cost()
            observed = weighted if weighted is not None else live
            _target, best = store.best_partitioning()
            rec["observed_checkout_cost"] = round(observed, 2)
            rec["optimal_checkout_cost"] = round(best, 2)
            if not within_tolerance(observed, best, store.tolerance):
                rec["kind"] = "repartition"
                rec["estimated_checkout_cost_delta"] = round(
                    (observed - best) * max(dataset_heat, 1.0), 2
                )
                rec["reason"] = (
                    f"heat-weighted checkout cost {observed:.1f} exceeds "
                    f"µ={store.tolerance:g} × C*_avg={best:.1f}; run "
                    f"`orpheus optimize -d {dataset}`"
                )
        else:
            amp = checkout_amplification(heat, model)
            if amp is not None:
                rec["read_amplification"] = round(amp, 3)
                if amp > AMP_BUDGET:
                    sample = heat.samples[f"{model}|checkout"]
                    per_checkout = (
                        sample["rows_scanned"] - sample["rows_requested"]
                    ) / max(1, sample["events"])
                    rec["kind"] = "migrate"
                    rec["estimated_checkout_cost_delta"] = round(
                        per_checkout * max(dataset_heat, 1.0), 2
                    )
                    rec["reason"] = (
                        f"checkout scans {amp:.1f}× the requested rows on "
                        f"model {model} (budget {AMP_BUDGET:g}); migrate to "
                        f"partitioned_rlist"
                    )
        recommendations.append(rec)
    recommendations.sort(
        key=lambda r: (-r["estimated_checkout_cost_delta"], r["dataset"])
    )
    for rank, rec in enumerate(recommendations, start=1):
        rec["rank"] = rank
    return recommendations


def _heat_weighted_checkout_cost(
    cvd, heat: HeatAccountant, dataset: str, at: float
) -> float | None:
    """Average records scanned per checkout when versions are drawn by
    observed heat instead of uniformly — the live C_avg reweighted by
    what the workload actually asks for."""
    partitions = getattr(cvd.model, "_partitions", None)
    if partitions is None:
        return None
    total_weight = 0.0
    total_cost = 0.0
    for vid in cvd.versions.vids():
        entry = heat.versions.get(f"{dataset}:{vid}")
        if entry is None:
            continue
        weight = heat.current_heat(entry, at)
        if weight <= 0:
            continue
        index = partition_of(cvd, vid)
        if index >= len(partitions):
            continue
        total_weight += weight
        total_cost += weight * partitions[index].data_record_count()
    if total_weight <= 0:
        return None
    return total_cost / total_weight
