"""Single-pool vs multi-pool schema versioning (Section 4.3).

OrpheusDB adopts the *single pool* method of De Castro et al.: one record
pool whose schema is the union of all versions' attributes, NULL-padding
records that predate an attribute. The alternative *multi pool* method
stores records separately per schema version, duplicating any record
that survives a schema change. The paper asserts single pool "has fewer
records with duplicated attributes and therefore has less storage
consumption overall"; this module quantifies both policies for a given
history so the claim can be checked per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping


@dataclass(frozen=True)
class SchemaPolicyCosts:
    """Cell-count storage under both schema-versioning policies.

    Attributes:
        single_pool_cells: |R| x |A_union| — every distinct record stored
            once, padded to the union schema.
        single_pool_null_cells: How many of those cells are NULL padding.
        multi_pool_cells: Σ over schema pools of (records in pool x pool
            arity) — records are duplicated into every pool whose
            versions contain them.
        duplicated_records: Extra record copies the multi-pool method
            stores.
    """

    single_pool_cells: int
    single_pool_null_cells: int
    multi_pool_cells: int
    duplicated_records: int

    @property
    def single_pool_wins(self) -> bool:
        return self.single_pool_cells <= self.multi_pool_cells


def compare_schema_policies(
    membership: Mapping[int, Collection[int]],
    version_attributes: Mapping[int, frozenset[int]],
    record_attributes: Mapping[int, frozenset[int]] | None = None,
) -> SchemaPolicyCosts:
    """Compute both policies' storage for one history.

    Args:
        membership: vid -> rids of that version.
        version_attributes: vid -> attribute ids present in that version.
        record_attributes: rid -> attributes the record actually has
            values for; defaults to the attributes of the first version
            containing it.
    """
    union_attributes: set[int] = set()
    for attributes in version_attributes.values():
        union_attributes |= attributes

    all_records: set[int] = set()
    for rids in membership.values():
        all_records.update(rids)

    if record_attributes is None:
        record_attributes = {}
        for vid, rids in membership.items():
            for rid in rids:
                record_attributes.setdefault(
                    rid, version_attributes[vid]
                )

    # Single pool: one copy per record, padded to the union schema.
    single_cells = len(all_records) * len(union_attributes)
    null_cells = sum(
        len(union_attributes - record_attributes[rid])
        for rid in all_records
    )

    # Multi pool: group versions by schema; each pool stores the union of
    # its versions' records at the pool's arity.
    pools: dict[frozenset[int], set[int]] = {}
    for vid, rids in membership.items():
        pools.setdefault(version_attributes[vid], set()).update(rids)
    multi_cells = sum(
        len(rids) * len(attributes) for attributes, rids in pools.items()
    )
    stored_copies = sum(len(rids) for rids in pools.values())
    duplicated = stored_copies - len(all_records)

    return SchemaPolicyCosts(
        single_pool_cells=single_cells,
        single_pool_null_cells=null_cells,
        multi_pool_cells=multi_cells,
        duplicated_records=duplicated,
    )


def costs_from_cvd(cvd) -> SchemaPolicyCosts:
    """Policy comparison for a live CVD (uses its metadata table)."""
    membership = {vid: cvd.membership(vid) for vid in cvd.versions.vids()}
    version_attributes = {
        vid: frozenset(cvd.versions.get(vid).attribute_ids)
        for vid in cvd.versions.vids()
    }
    return compare_schema_policies(membership, version_attributes)


def simulate_evolving_history(
    num_versions: int,
    records_per_version: int,
    new_records_per_version: int,
    schema_change_every: int,
    base_attributes: int = 6,
) -> tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]]:
    """A deterministic evolving-schema history for analysis and tests.

    Every ``schema_change_every`` versions one attribute is added; each
    version carries over its parent's records minus churn plus
    ``new_records_per_version`` fresh ones.
    """
    membership: dict[int, frozenset[int]] = {}
    version_attributes: dict[int, frozenset[int]] = {}
    attributes = set(range(base_attributes))
    next_rid = 0
    current: set[int] = set()
    next_attribute = base_attributes
    for vid in range(1, num_versions + 1):
        if vid > 1 and schema_change_every and (vid - 1) % schema_change_every == 0:
            attributes = set(attributes)
            attributes.add(next_attribute)
            next_attribute += 1
        fresh = set(range(next_rid, next_rid + new_records_per_version))
        next_rid += new_records_per_version
        current = set(list(current)[: records_per_version - len(fresh)]) | fresh
        membership[vid] = frozenset(current)
        version_attributes[vid] = frozenset(attributes)
    return membership, version_attributes
