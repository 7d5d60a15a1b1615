"""Z-partitions, shift classes, Young diagrams, and one-step branching.

A Z-partition is a finite nonincreasing tuple of integers; its width is the
number of entries.  Adding the same integer to every entry does not change
which simple module the partition labels, so partitions are grouped into
shift classes; the canonical representative of a class pins the last entry
to 0, which keeps all entries nonnegative and makes enumeration bounds easy.

Young diagrams are recorded by their column lengths (strictly positive,
nonincreasing; the empty diagram is the empty tuple).

All arithmetic is exact: entries are Python integers and cannot silently
overflow.
"""

from __future__ import annotations

import math
from itertools import chain, combinations_with_replacement, product, repeat, starmap
from operator import add, attrgetter, contains
from typing import Iterator, Sequence

ZPartition = tuple[int, ...]
ShiftClass = tuple[int, ...]
YoungDiagram = tuple[int, ...]

DEFAULT_CEILING = 10_000_000  # elementary checks a suite or a CLI answer may cost unless configured


def fields_repr(obj) -> str:
    """``Name(field=value, ...)`` over the fields obj's class lists in ``_fields``."""
    return f"{type(obj).__qualname__}({', '.join(f'{name}={getattr(obj, name)!r}' for name in obj._fields)})"


def _fields_eq(obj, other):
    """obj == other: the same class and equal ``_field_values``, NotImplemented for an instance of another class."""
    if other.__class__ is obj.__class__:
        values = obj._field_values
        return values(obj) == values(other)
    return NotImplemented


def _fields_hash(obj):
    return hash(obj._field_values(obj))


def _cannot_assign(obj, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _cannot_delete(obj, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls an immutable value class: equal iff the same class and equal fields, with a repr of them.

    The class lists two or more fields in ``_fields`` and sets each one in
    ``__init__`` with ``object.__setattr__``; assigning or deleting one
    afterwards raises AttributeError.  Equality and the hash read the fields
    through one ``attrgetter(*_fields)`` per class, a tuple for two or more
    names, so the hash is that of the tuple of fields and a set of values
    iterates in a fixed order.  Few loops call them: a 20 000-query session
    none; the dominance suites, ``ideal-order`` and ``acc`` none;
    ``split-consistency``, the busiest suite, 6 426 times on codes and
    sequences; the eleven lattice commands together hash an Ideal 5 148 times.
    """
    cls._field_values = attrgetter(*cls._fields)
    cls.__eq__, cls.__hash__, cls.__repr__ = _fields_eq, _fields_hash, fields_repr
    cls.__setattr__, cls.__delattr__ = _cannot_assign, _cannot_delete
    return cls


def as_int(value, what: str) -> int:
    """Strict integer check: exactly int, so bool, float and str are refused, never coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def as_array(value, what: str) -> tuple:
    """Strict array check for decoded JSON: a list or tuple, so scalars, strings and objects are refused."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be an array, got {value!r}")
    return tuple(value)


def as_object(value, keys, what: str, required=()) -> dict:
    """Strict object check for decoded JSON: every required key, and no key outside keys, so typos are refused."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    unknown, missing = set(value) - set(keys), [key for key in required if key not in value]
    if unknown or missing:
        needed = ", ".join(required) or "none"
        raise ValueError(f"{what} takes the keys {', '.join(keys)} ({needed} required), got {value!r}")
    return value


def capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k) when it is at most cap, cap + 1 when it is larger; cheap for any n and k.

    C(n, k) >= 2**k for k <= n / 2, so a k (or n - k) past cap's bit length is
    past cap without computing C(n, k), which for n and k in the millions
    takes minutes.  Negative arguments raise ValueError, as in math.comb.
    """
    if 0 <= k <= n and min(k, n - k) > cap.bit_length():
        return cap + 1
    return min(math.comb(n, k), cap + 1)


def as_zpartition(entries: Sequence[int]) -> ZPartition:
    """Validate a Z-partition: nonincreasing integers (strictly int), width >= 1."""
    part = tuple(entries)
    if not part:
        raise ValueError("a Z-partition must have width >= 1")
    # Both checks run in C-level builtins: every dominance query passes here.
    if set(map(type, part)) != {int}:
        for v in part:
            as_int(v, "a Z-partition entry")  # the first non-int raises
    if sorted(part, reverse=True) != list(part):
        raise ValueError(f"Z-partition entries must be nonincreasing: {list(part)}")
    return part


def shift(lam: Sequence[int], d: int) -> ZPartition:
    """Add the integer d to every entry (another representative of the same class)."""
    return tuple(v + d for v in as_zpartition(lam))


def canonicalize(lam: Sequence[int]) -> ShiftClass:
    """Canonical representative of the shift class: subtract the last entry.

    Idempotent, and constant on shift orbits.
    """
    part = as_zpartition(lam)
    d = part[-1]
    if d == 0:
        return part
    return tuple(v - d for v in part)


def is_canonical(lam: Sequence[int]) -> bool:
    return as_zpartition(lam)[-1] == 0


def _child_boxes(lam: ShiftClass, floor: int = 0) -> Iterator[tuple]:
    # The canonical children of lam with first entry >= floor, as one box of
    # spans per shift d: each child is one tuple of the product of a box, and
    # lam is canonical with width >= 2.  Every child class has a
    # representative m with lam[i] >= m[i] >= lam[i + 1] (the shift D
    # absorbed into m), so generating all such m and canonicalizing is
    # exhaustive.  Canonicalizing an m with last entry d subtracts d, so the
    # canonical children ending that way are the tuples with
    # lam[i + 1] - d <= m[i] <= lam[i] - d, followed by 0: the box
    # (first span, *inner spans, (0,)).  The floor only narrows the first
    # span, and no d past lam[0] - floor leaves it nonempty.  Shifts run from
    # the largest down, which lets the chain search reach its targets through
    # about 6 % fewer intermediates than the other way.  A class can lie in
    # two boxes (under 0.1 % of the yields at widths 3-10), so a caller that
    # needs each child once collects a set.
    if len(lam) == 2:  # every shift d gives the one width-1 class
        if floor <= 0:
            yield ((0,),)
        return
    for d in range(min(lam[-2], lam[0] - floor), -1, -1):
        first = range(max(lam[1] - d, floor), lam[0] - d + 1)
        yield (first, *[range(lam[i + 1] - d, lam[i] - d + 1) for i in range(1, len(lam) - 2)], (0,))


def _iter_children(lam: ShiftClass, floor: int = 0) -> Iterator[ShiftClass]:
    # The children of _child_boxes, box by box, each box's product in order,
    # made lazily and without a Python frame per child.  _first_child mirrors
    # the first of them without building a box; tests/test_partitions.py pins
    # the two together.
    return chain.from_iterable(starmap(product, _child_boxes(lam, floor)))


def _is_child(lam: ShiftClass, floor: int, target: ShiftClass) -> bool:
    # target in _iter_children(lam, floor), for a target one width below lam,
    # tested one box at a time: target lies in a box iff each entry lies in
    # its span, so no child is built
    return any(all(map(contains, box, target)) for box in _child_boxes(lam, floor))


def _first_child(lam: ShiftClass, floor: int) -> ShiftClass | None:
    # next(_iter_children(lam, floor), None) as one tuple: the lowest corner
    # of the first box of _child_boxes, or None when there is no box.
    if len(lam) == 2:
        return (0,) if floor <= 0 else None
    top = lam[0] - floor
    d = lam[-2] if lam[-2] < top else top
    if d < 0:
        return None
    low = lam[1] - d
    if d == 0:  # lam's own tail, which ends in 0
        return (low if low > floor else floor, *lam[2:])
    return (low if low > floor else floor, *[v - d for v in lam[2:-1]], 0)


def gt_children(lam: Sequence[int]) -> frozenset[ShiftClass]:
    """All shift classes one width down reachable from lam by a branching step.

    The set is finite: canonical children have entries bounded by
    lam[0] - lam[-1].  Raises ValueError for width-1 input; width-0
    partitions are not modeled.
    """
    top = canonicalize(lam)
    if len(top) < 2:
        raise ValueError("width-1 partitions have no modeled restriction")
    # through a set, so the frozenset copies a known size into a tight table
    return frozenset(set(_iter_children(top)))


def enumerate_classes(width: int, entry_bound: int) -> list[ShiftClass]:
    """All canonical shift classes of a width with first entry <= entry_bound.

    Sorted; the count equals the number of partitions with at most
    width - 1 positive parts, each at most entry_bound.  No sort is needed:
    the combinations of the descending range entry_bound..0 come as the
    nonincreasing tuples in descending order, so their reverse is sorted.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    combos = combinations_with_replacement(range(entry_bound, -1, -1), width - 1)
    classes = list(map(add, combos, repeat((0,))))
    classes.reverse()
    return classes


def class_count(width: int, entry_bound: int, cap: int) -> int:
    """len(enumerate_classes(width, entry_bound)) without enumerating, capped at cap + 1.

    It is C(width - 1 + entry_bound, entry_bound), the number of tuples the enumeration chooses.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    return capped_comb(width - 1 + entry_bound, entry_bound, cap)


def as_young_diagram(columns: Sequence[int]) -> YoungDiagram:
    """Validate column lengths: strictly positive, nonincreasing; () is the empty diagram."""
    cols = tuple(columns)
    for v in cols:
        if as_int(v, "a column length") < 1:
            raise ValueError(f"column lengths must be positive integers, got {v!r}")
    if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
        raise ValueError(f"column lengths must be nonincreasing: {list(cols)}")
    return cols
