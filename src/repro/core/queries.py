"""Version-aware queries (Section 3.3.2).

Implements the query constructs OrpheusDB layers over plain SQL:

* ``SELECT ... FROM VERSION v1, v2 OF CVD c WHERE ... LIMIT n`` —
  :func:`select_from_versions`;
* ``SELECT vid, agg(...) FROM CVD c GROUP BY vid`` —
  :func:`aggregate_by_version`;
* the functional primitives ``ancestor``/``descendant``/``parent``,
  ``v_diff`` and ``v_intersect`` — exposed through :class:`VersionQuery`
  which lets them appear as predicates over versions.

Queries execute through the CVD's data model (real scans and joins), so
their cost reflects the physical design in use.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.cvd import CVD
from repro.relational.expressions import Expression
from repro.relational.query import Aggregate


def select_from_versions(
    cvd: CVD,
    vids: Sequence[int],
    columns: Sequence[str] = (),
    where: Expression | None = None,
    limit: int | None = None,
) -> list[tuple]:
    """``SELECT columns FROM VERSION vids OF CVD cvd WHERE ... LIMIT n``.

    Records appearing in several of the listed versions are returned
    once (they are the same immutable record).
    """
    schema = cvd.schema
    test = where.bind(schema) if where is not None else None
    project: Callable[[tuple], tuple] | None = None
    if columns:
        positions = schema.project_positions(columns)
        project = lambda row: tuple(row[i] for i in positions)  # noqa: E731

    seen_rids: set[int] = set()
    result: list[tuple] = []
    if limit is not None and limit <= 0:
        return result
    for vid in vids:
        for rid, payload in zip(*cvd.model.checkout_columns(vid)):
            if rid in seen_rids:
                continue
            seen_rids.add(rid)
            if test is not None and not test(payload):
                continue
            result.append(project(payload) if project else payload)
            if limit is not None and len(result) >= limit:
                return result
    return result


def aggregate_by_version(
    cvd: CVD,
    aggregates: Sequence[Aggregate],
    where: Expression | None = None,
    vids: Sequence[int] | None = None,
) -> list[tuple]:
    """``SELECT vid, aggs FROM CVD c [WHERE ...] GROUP BY vid``.

    Returns one row per version: ``(vid, agg1, agg2, ...)``.
    """
    schema = cvd.schema
    test = where.bind(schema) if where is not None else None
    bound = [
        aggregate.expr.bind(schema) if aggregate.expr is not None else None
        for aggregate in aggregates
    ]
    target_vids = list(vids) if vids is not None else cvd.versions.vids()
    result: list[tuple] = []
    for vid in target_vids:
        value_lists: list[list[object]] = [[] for _ in aggregates]
        for payload in cvd.model.checkout_columns(vid)[1]:
            if test is not None and not test(payload):
                continue
            for slot, evaluate in enumerate(bound):
                value_lists[slot].append(
                    evaluate(payload) if evaluate is not None else 1
                )
        row: list[object] = [vid]
        for aggregate, values in zip(aggregates, value_lists):
            row.append(aggregate.compute(values))
        result.append(tuple(row))
    return result


class VersionQuery:
    """A fluent query over *versions* (not records) of a CVD.

    Supports the graph primitives as filters, mirroring queries like
    "all versions within 2 commits of v1 with fewer than 100 records"::

        VersionQuery(cvd).within_hops(1, 2).where_record_count(lambda n: n < 100).vids()
    """

    def __init__(self, cvd: CVD) -> None:
        self._cvd = cvd
        self._candidates: set[int] = set(cvd.versions.vids())

    # ------------------------------------------------------------------
    # Graph predicates
    # ------------------------------------------------------------------
    def ancestors_of(self, vid: int, max_hops: int | None = None) -> "VersionQuery":
        self._candidates &= self._cvd.versions.ancestors(vid, max_hops)
        return self

    def descendants_of(self, vid: int, max_hops: int | None = None) -> "VersionQuery":
        self._candidates &= self._cvd.versions.descendants(vid, max_hops)
        return self

    def parents_of(self, vid: int) -> "VersionQuery":
        self._candidates &= set(self._cvd.versions.parents(vid))
        return self

    def within_hops(self, vid: int, hops: int) -> "VersionQuery":
        self._candidates &= self._cvd.versions.neighbors(vid, hops)
        return self

    def merges_only(self) -> "VersionQuery":
        self._candidates = {
            v for v in self._candidates if self._cvd.versions.is_merge(v)
        }
        return self

    # ------------------------------------------------------------------
    # Metadata and data predicates
    # ------------------------------------------------------------------
    def where_author(self, author: str) -> "VersionQuery":
        self._candidates = {
            v
            for v in self._candidates
            if self._cvd.versions.get(v).author == author
        }
        return self

    def where_record_count(
        self, test: Callable[[int], bool]
    ) -> "VersionQuery":
        self._candidates = {
            v
            for v in self._candidates
            if test(self._cvd.versions.get(v).record_count)
        }
        return self

    def where_matching_count(
        self, where: Expression, test: Callable[[int], bool]
    ) -> "VersionQuery":
        """Keep versions whose number of records matching ``where``
        satisfies ``test`` (e.g. "precisely 100 tuples with age > 50")."""
        bound = where.bind(self._cvd.schema)
        keep: set[int] = set()
        for vid in self._candidates:
            count = sum(
                1
                for payload in self._cvd.model.checkout_columns(vid)[1]
                if bound(payload)
            )
            if test(count):
                keep.add(vid)
        self._candidates = keep
        return self

    def where_delta_from_parent(
        self, test: Callable[[int], bool]
    ) -> "VersionQuery":
        """Keep versions whose symmetric record-diff from each parent
        satisfies ``test`` (e.g. "a bulk delete": > 100 records)."""
        keep: set[int] = set()
        for vid in self._candidates:
            parents = self._cvd.versions.parents(vid)
            if not parents:
                continue
            membership = set(self._cvd.membership(vid))
            for parent in parents:
                parent_membership = self._cvd.membership(parent)
                delta = len(membership.symmetric_difference(parent_membership))
                if test(delta):
                    keep.add(vid)
                    break
        self._candidates = keep
        return self

    # ------------------------------------------------------------------
    def vids(self) -> list[int]:
        """Matching version ids in commit order."""
        order = {v: i for i, v in enumerate(self._cvd.versions.vids())}
        return sorted(self._candidates, key=order.__getitem__)
