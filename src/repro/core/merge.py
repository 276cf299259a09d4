"""Merge conflict resolution (Section 3.3.1).

Multi-version checkout merges records in precedence order: the first
version listed wins any primary-key conflict. The paper notes other
strategies exist — "such as letting users resolve conflicted records
manually" — and adopts precedence for simplicity. This module implements
the family:

* :func:`merge_precedence` — the paper's default (first listed wins);
* :func:`merge_latest` — the most recently committed version wins;
* :func:`merge_manual` — conflicts are handed to a caller-supplied
  resolver (the "manual" strategy);
* :func:`merge_strict` — any conflict raises, for workflows that demand
  explicit resolution.

All return the merged rows plus a conflict report so callers can audit
what was decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.cvd import CVD
from repro.core.errors import CVDError


@dataclass(frozen=True)
class Conflict:
    """One primary key claimed by records from several versions."""

    key: tuple
    #: (vid, payload) candidates in the order versions were listed.
    candidates: tuple[tuple[int, tuple], ...]


@dataclass
class MergeResult:
    """Merged rows plus the audit trail."""

    rows: list[tuple]
    conflicts: list[Conflict] = field(default_factory=list)
    #: key -> vid whose record won.
    decisions: dict[tuple, int] = field(default_factory=dict)


class MergeConflictError(CVDError):
    """Raised by the strict strategy when versions disagree."""

    def __init__(self, conflicts: list[Conflict]) -> None:
        keys = [c.key for c in conflicts[:5]]
        super().__init__(
            f"{len(conflicts)} conflicting primary keys, e.g. {keys}"
        )
        self.conflicts = conflicts


Resolver = Callable[[Conflict], tuple]
"""Manual resolver: receives a conflict, returns the payload to keep."""


def _collect(cvd: CVD, vids: Sequence[int]):
    """Group candidate records by primary key across the versions."""
    key_positions = cvd.schema.key_positions()
    grouped: dict[tuple, list[tuple[int, tuple]]] = {}
    order: list[tuple] = []
    for vid in vids:
        for rid, payload in zip(*cvd.model.checkout_columns(vid)):
            key = (
                tuple(payload[i] for i in key_positions)
                if key_positions
                else (rid,)
            )
            bucket = grouped.get(key)
            if bucket is None:
                grouped[key] = [(vid, payload)]
                order.append(key)
            else:
                bucket.append((vid, payload))
    return grouped, order


def _merge(
    cvd: CVD,
    vids: Sequence[int],
    choose: Callable[[Conflict], tuple[int, tuple]],
) -> MergeResult:
    if not vids:
        raise ValueError("merge requires at least one version")
    for vid in vids:
        cvd.versions.get(vid)
    grouped, order = _collect(cvd, vids)
    result = MergeResult(rows=[])
    for key in order:
        candidates = grouped[key]
        distinct_payloads = {payload for _vid, payload in candidates}
        if len(distinct_payloads) <= 1:
            winner_vid, payload = candidates[0]
            result.rows.append(payload)
            result.decisions[key] = winner_vid
            continue
        conflict = Conflict(key=key, candidates=tuple(candidates))
        result.conflicts.append(conflict)
        winner_vid, payload = choose(conflict)
        result.rows.append(payload)
        result.decisions[key] = winner_vid
    return result


def merge_precedence(cvd: CVD, vids: Sequence[int]) -> MergeResult:
    """The paper's strategy: the earliest-listed version wins."""
    return _merge(cvd, vids, lambda conflict: conflict.candidates[0])


def merge_latest(cvd: CVD, vids: Sequence[int]) -> MergeResult:
    """The most recently committed conflicting version wins."""

    def choose(conflict: Conflict) -> tuple[int, tuple]:
        return max(
            conflict.candidates,
            key=lambda item: cvd.versions.get(item[0]).commit_time or 0.0,
        )

    return _merge(cvd, vids, choose)


def merge_manual(
    cvd: CVD, vids: Sequence[int], resolver: Resolver
) -> MergeResult:
    """Hand each conflict to ``resolver``; it returns the payload to keep.

    The resolver may return any of the candidate payloads, or a brand-new
    payload (e.g. a hand-edited reconciliation) — new payloads are
    attributed to the first candidate's version in the decision map.
    """

    def choose(conflict: Conflict) -> tuple[int, tuple]:
        payload = resolver(conflict)
        for vid, candidate in conflict.candidates:
            if candidate == payload:
                return vid, payload
        return conflict.candidates[0][0], payload

    return _merge(cvd, vids, choose)


def merge_strict(cvd: CVD, vids: Sequence[int]) -> MergeResult:
    """Raise :class:`MergeConflictError` on any disagreement."""
    conflicts: list[Conflict] = []

    def choose(conflict: Conflict) -> tuple[int, tuple]:
        conflicts.append(conflict)
        return conflict.candidates[0]

    result = _merge(cvd, vids, choose)
    if conflicts:
        raise MergeConflictError(conflicts)
    return result
