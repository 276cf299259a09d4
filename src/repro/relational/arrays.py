"""Integer arrays: a version's rids, their deltas, and slots indexed by
rid.

A version's rids are one ascending ``array('q')``, the rlist of Chapter
4, shared by the CVD's memo and the rlist row: nobody modifies one.
``x in rids`` is a linear scan, so a per-rid probe uses a hash set made
for the one call (:func:`rids_without`, :func:`rids_within`). Rids are
dense, so what a process keeps per record sits in :class:`Slots`. An
rlist row may instead hold a :class:`RidDelta`, the version's rids as a
change to another version's.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain, filterfalse, islice
from operator import lt
from typing import Container, Iterable, Sequence

#: A rid array's typecode: a signed 64-bit integer per rid.
RIDS = "q"


def rid_array(rids: Iterable[int] = ()) -> array:
    """``rids``, in the order given, as a rid array."""
    return array(RIDS, rids)


def ascending(rids: Sequence[int]) -> bool:
    """Whether ``rids`` strictly ascend (compared in C, without a sort)."""
    return all(map(lt, rids, islice(rids, 1, None)))


def rids_without(rids: Iterable[int], exclude: Container[int]) -> array:
    """The rids of ``rids`` that ``exclude`` lacks, in their order.
    ``exclude`` hashes (a set, a dict): it is probed once per rid."""
    return array(RIDS, filterfalse(exclude.__contains__, rids))


def rids_within(rids: Iterable[int], keep: Container[int]) -> array:
    """The rids of ``rids`` that ``keep`` holds, in their order.
    ``keep`` hashes (a set, a dict): it is probed once per rid."""
    return array(RIDS, filter(keep.__contains__, rids))


class RidDelta:
    """A version's rids stored as a change to version ``base``'s: the
    ascending rids it drops (``removed``) and adds (``added``). Its
    length is its members. It also records its recreation chain: R
    (``cost``), the rids decoded to rebuild the version, and ``depth``,
    the delta rows read to do so, so a row judged or built on this one
    reads no other row."""

    __slots__ = ("base", "removed", "added", "cost", "depth")

    def __init__(
        self,
        base: int,
        removed: Iterable[int],
        added: Iterable[int],
        cost: int | None = None,
        depth: int = 1,
    ) -> None:
        self.base = base
        self.removed = removed if type(removed) is array else rid_array(removed)
        self.added = added if type(added) is array else rid_array(added)
        self.cost = len(self) if cost is None else cost
        self.depth = depth

    @classmethod
    def between(
        cls,
        base: int,
        base_rids: array,
        rids: array,
        members: Container[int] = None,
        under: tuple[int, int] = (0, 0),
    ) -> "RidDelta":
        """``rids`` as a change to version ``base``, both ascending, on a
        base whose chain is ``under`` (its R and depth); ``members``
        hashes ``rids`` (a set is made when it is None). One probe per
        base rid finds the removed ones; when the rids up to the base's
        last are exactly those it kept (a commit's new rids come after
        every stored one), the rest are the added ones."""
        removed = rids_without(base_rids, set(rids) if members is None else members)
        cut = bisect_right(rids, base_rids[-1]) if base_rids else 0
        if cut == len(base_rids) - len(removed):
            added = rids[cut:]
        else:
            added = rids_without(rids, set(base_rids))
        cost, depth = under
        return cls(base, removed, added, cost + len(removed) + len(added), depth + 1)

    @classmethod
    def chained(cls, deltas: Sequence["RidDelta"]) -> "RidDelta":
        """The one delta that ``deltas`` make in turn, the first on its
        base and each on the version the one before built: set
        operations on their rids alone, never on a version's."""
        if len(deltas) == 1:
            return deltas[0]
        gone, new = set(), set()  # the base's rids dropped, others added
        for delta in deltas:
            removed, added = set(delta.removed), set(delta.added)
            gone |= removed - new  # dropping an added rid undoes it
            new -= removed
            new |= added - gone  # adding a dropped one back, too
            gone -= added
        return cls(deltas[0].base, sorted(gone), sorted(new))

    def __len__(self) -> int:
        return len(self.removed) + len(self.added)

    def apply(self, base_rids: array) -> array:
        """The version's ascending rids, from its base's. Added rids past
        the kept ones (a commit's new records) are appended; others (a
        merge's) are merged in by one sort of the two ascending runs."""
        kept = rids_without(base_rids, set(self.removed))
        added = self.added
        if not added or not kept or added[0] > kept[-1]:
            kept.extend(added)
            return kept
        return rid_array(sorted(chain(kept, added)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RidDelta):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __reduce__(self):
        return RidDelta, (
            self.base, self.removed.tolist(), self.added.tolist(), self.cost, self.depth
        )

    def __repr__(self) -> str:
        return f"RidDelta({self.base}, -{len(self.removed)}, +{len(self.added)})"


class Slots(list):
    """A map rid -> value kept as a list indexed by rid: rids are dense,
    so a slot costs a pointer where a dict entry costs an entry and a
    key. None is an empty slot. It grows by one ``extend`` and stores in
    bulk, so readers fill one without a lock: a race stores a value
    twice alike, or grows the list past what it needs. ``get``,
    ``update``, ``len`` and ``==`` read it as the map of its filled
    slots."""

    def get(self, rid: int):
        return self[rid] if rid < list.__len__(self) else None

    def grow(self, top: int) -> None:
        """Make room for rid ``top``."""
        self.extend([None] * (top + 1 - list.__len__(self)))

    def put(self, rids: Sequence[int], values: Iterable) -> None:
        """Store ``values`` in the slots of ``rids``, in order: a range
        of rids (a commit's new records) in one slice."""
        self.grow(max(rids, default=0))
        if isinstance(rids, range):
            self[rids.start : rids.stop] = values
        else:
            for rid, value in zip(rids, values):
                self[rid] = value

    def update(self, pairs) -> None:
        """Store each rid's value, from a mapping or (rid, value) pairs."""
        pairs = dict(pairs)
        self.put(pairs.keys(), pairs.values())

    def __len__(self) -> int:
        return list.__len__(self) - self.count(None)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, dict):
            return {r: v for r, v in enumerate(self) if v is not None} == other
        return isinstance(other, list) and list.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

