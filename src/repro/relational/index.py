"""Secondary index structures: hash and ordered (B-tree stand-in)."""

from __future__ import annotations

import bisect
from typing import Hashable, Iterator


class HashIndex:
    """A hash index from a key to the row positions holding it: a
    secondary index, whose keys repeat. (A primary key's index maps each
    key to its one position, a plain dict: see ``Table``.)"""

    def __init__(self) -> None:
        self._buckets: dict[Hashable, list[int]] = {}

    def add(self, key: Hashable, position: int) -> None:
        self._buckets.setdefault(key, []).append(position)

    def remove(self, key: Hashable, position: int) -> None:
        positions = self._buckets.get(key)
        if positions is None:
            return
        try:
            positions.remove(position)
        except ValueError:
            return
        if not positions:
            del self._buckets[key]

    def lookup(self, key: Hashable) -> list[int]:
        """Row positions with this key (empty list if absent)."""
        return list(self._buckets.get(key, ()))

    def contains(self, key: Hashable) -> bool:
        return key in self._buckets

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())


class OrderedIndex:
    """A sorted index supporting range scans, emulating a B-tree.

    Keys must be mutually comparable. Internally a sorted list of
    ``(key, position)`` pairs maintained with :mod:`bisect`; adequate for
    the scan patterns in the experiments (bulk build, point and range
    lookups, few deletes).
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Hashable, int]] = []

    def add(self, key: Hashable, position: int) -> None:
        bisect.insort(self._entries, (key, position))

    def remove(self, key: Hashable, position: int) -> None:
        i = bisect.bisect_left(self._entries, (key, position))
        if i < len(self._entries) and self._entries[i] == (key, position):
            del self._entries[i]

    def lookup(self, key: Hashable) -> list[int]:
        lo = bisect.bisect_left(self._entries, (key,))
        positions = []
        for stored_key, position in self._entries[lo:]:
            if stored_key != key:
                break
            positions.append(position)
        return positions

    def range(self, low: Hashable, high: Hashable) -> Iterator[tuple[Hashable, int]]:
        """Yield (key, position) pairs with low <= key <= high."""
        lo = bisect.bisect_left(self._entries, (low,))
        for stored_key, position in self._entries[lo:]:
            if stored_key > high:  # type: ignore[operator]
                break
            yield stored_key, position

    def __len__(self) -> int:
        return len(self._entries)
