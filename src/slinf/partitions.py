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

from functools import cache
from itertools import combinations_with_replacement, product
from typing import Sequence

ZPartition = tuple[int, ...]
ShiftClass = tuple[int, ...]
YoungDiagram = tuple[int, ...]


def as_int(value, what: str) -> int:
    """Strict integer check: exactly int, so bool, float and str are refused, never coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def as_zpartition(entries: Sequence[int]) -> ZPartition:
    """Validate a Z-partition: nonincreasing integers (strictly int), width >= 1."""
    part = tuple(entries)
    if not part:
        raise ValueError("a Z-partition must have width >= 1")
    for v in part:
        if type(v) is not int:  # as_int, inlined: every dominance query passes here
            as_int(v, "a Z-partition entry")
    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
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


def is_gt_step(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """One-step branching relation: does some shift of mu interlace lam?

    True iff the width of mu is exactly one less than the width of lam and
    there is an integer D with lam[i] >= mu[i] + D >= lam[i + 1] for all i,
    decided as nonemptiness of the interval
    [max_i(lam[i+1] - mu[i]), min_i(lam[i] - mu[i])].
    Width mismatch returns False rather than raising.  Invariant under
    shifting either argument.
    """
    lam = as_zpartition(lam)
    mu = as_zpartition(mu)
    if len(mu) != len(lam) - 1:
        return False
    lo = max(lam[i + 1] - mu[i] for i in range(len(mu)))
    hi = min(lam[i] - mu[i] for i in range(len(mu)))
    return lo <= hi


@cache
def _children(lam: ShiftClass) -> frozenset[ShiftClass]:
    # lam is canonical with width >= 2.  Every child class has a
    # representative m with lam[i] >= m[i] >= lam[i + 1] (the shift D
    # absorbed into m), so generating all such m and canonicalizing is
    # exhaustive.
    spans = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
    out = set()
    for m in product(*spans):
        d = m[-1]
        out.add(m if d == 0 else tuple(v - d for v in m))
    return frozenset(out)


def gt_children(lam: Sequence[int]) -> frozenset[ShiftClass]:
    """All shift classes one width down reachable from lam by a branching step.

    The set is finite: canonical children have entries bounded by
    lam[0] - lam[-1].  Raises ValueError for width-1 input; width-0
    partitions are not modeled.
    """
    top = canonicalize(lam)
    if len(top) < 2:
        raise ValueError("width-1 partitions have no modeled restriction")
    return _children(top)


def enumerate_classes(width: int, entry_bound: int) -> list[ShiftClass]:
    """All canonical shift classes of a width with first entry <= entry_bound.

    Sorted; the count equals the number of partitions with at most
    width - 1 positive parts, each at most entry_bound.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if entry_bound < 0:
        raise ValueError("entry_bound must be >= 0")
    combos = combinations_with_replacement(range(entry_bound, -1, -1), width - 1)
    return sorted(t + (0,) for t in combos)


def as_young_diagram(columns: Sequence[int]) -> YoungDiagram:
    """Validate column lengths: strictly positive, nonincreasing; () is the empty diagram."""
    cols = tuple(columns)
    for v in cols:
        if as_int(v, "a column length") < 1:
            raise ValueError(f"column lengths must be positive integers, got {v!r}")
    if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
        raise ValueError(f"column lengths must be nonincreasing: {list(cols)}")
    return cols
