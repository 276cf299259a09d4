"""Column data types and type coercion.

The engine supports the small set of types the dissertation's experiments
need: integers, floats, text, booleans, and integer arrays (the versioning
attribute ``vlist``/``rlist`` columns of Chapter 4 are ``INT_ARRAY``).

Schema evolution (Section 4.3) generalizes conflicting attribute types to a
more general type — integer widens to decimal, anything widens to string —
which :func:`generalize_types` implements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class DataType:
    """A column data type.

    Attributes:
        name: Canonical type name (``integer``, ``decimal``, ``text``,
            ``boolean``, ``integer[]``).
        python_type: The Python class values of this type must be an
            instance of (arrays are validated element-wise).
        byte_size: Approximate on-disk width of one value, used by the
            cost accountant. Arrays and text report a base width; the
            table adds per-value overhead for variable-size data.
    """

    name: str
    python_type: type
    byte_size: int

    def __reduce__(self):
        # Unpickle to the module singleton. States written before this
        # reduce existed still load as equal-but-distinct copies, which
        # is why the methods below compare names, not identity.
        return type_by_name, (self.name,)

    def validate(self, value: object) -> bool:
        """Return True if ``value`` is storable in a column of this type."""
        if value is None:
            return True
        name = self.name
        if name == INT_ARRAY.name:
            from repro.relational.arrays import RidDelta

            if isinstance(value, RidDelta):
                return True
            if isinstance(value, array):  # a rid array
                return value.typecode == "q"
            return isinstance(value, (list, tuple)) and all(
                map(isinstance, value, repeat(int))  # no call per member
            )
        if name == FLOAT.name:
            # Integers are acceptable in decimal columns.
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if name == INT.name:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, self.python_type)

    def coerce(self, value: object) -> object:
        """Coerce ``value`` into this type, e.g. when a column widens."""
        if value is None:
            return None
        name = self.name
        if name == INT_ARRAY.name:
            if isinstance(value, array):
                return value
            return list(value)  # type: ignore[arg-type]
        if name == TEXT.name:
            return str(value)
        if name == FLOAT.name:
            return float(value)  # type: ignore[arg-type]
        if name == INT.name:
            return int(value)  # type: ignore[arg-type]
        if name == BOOL.name:
            return bool(value)
        raise TypeError(f"cannot coerce into {self.name}")

    def sizeof(self, value: object) -> int:
        """Approximate storage bytes for one value of this type."""
        if value is None:
            return 1
        name = self.name
        if name == INT_ARRAY.name:
            return 4 * len(value) + 4  # a RidDelta's len is its members
        if name == TEXT.name:
            return len(str(value)) + 1
        return self.byte_size


INT = DataType("integer", int, 4)
FLOAT = DataType("decimal", float, 8)
TEXT = DataType("text", str, 8)
BOOL = DataType("boolean", bool, 1)
INT_ARRAY = DataType("integer[]", list, 4)

_BY_NAME = {t.name: t for t in (INT, FLOAT, TEXT, BOOL, INT_ARRAY)}

#: Widening order used by schema evolution: integer -> decimal -> text.
_GENERALITY = {BOOL.name: 0, INT.name: 1, FLOAT.name: 2, TEXT.name: 3}


def type_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its canonical name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown data type {name!r}") from None


def generalize_types(a: DataType, b: DataType) -> DataType:
    """Return the more general of two types (Section 4.3 widening rule).

    ``integer`` widens to ``decimal``; any scalar widens to ``text``.
    Arrays do not participate in widening and must match exactly.
    """
    if a == b:
        return a
    if INT_ARRAY in (a, b):
        raise ValueError("array types cannot be generalized with scalars")
    order_a = _GENERALITY[a.name]
    order_b = _GENERALITY[b.name]
    wider = a if order_a >= order_b else b
    # Booleans only widen through text: there is no numeric reading of a
    # boolean column in the paper's single-pool scheme.
    if BOOL in (a, b) and wider != TEXT:
        return TEXT
    return wider
