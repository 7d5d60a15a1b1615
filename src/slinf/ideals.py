"""Primitive-ideal data, sequence codes, the inclusion order, and highest weights.

A nonzero primitive ideal of U(sl(inf)) is named by a tuple (x, y, Yl, Yr):
x symmetric-algebra factors, y exterior-algebra factors, and two Young
diagrams.  Distinct tuples name distinct ideals, so equality is structural;
the zero ideal is carried along as the bottom element of the order.

Inclusion between nonzero ideals is decided exclusively through their
sequence-code unions (one code per split c + d = x) and the code inclusion
order -- the route that reproduces the maximality and ascending-chain
corollaries.  A direct closed-form condition on the diagram columns exists
in the literature but disagrees with those corollaries as printed; it is
kept here (``diagram_order_condition``) purely so the ``tord-discrepancy``
verify suite can report the disagreement, and is never used for decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .cls_codes import ClsCode, ExtSequence, code_rows, union_included
from .partitions import YoungDiagram, as_int, as_young_diagram


@dataclass(frozen=True)
class Ideal:
    """Canonical name of a primitive ideal: the zero ideal, or the data (x, y, Yl, Yr)."""

    x: int = 0
    y: int = 0
    yl: YoungDiagram = ()
    yr: YoungDiagram = ()
    zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "yl", as_young_diagram(self.yl))
        object.__setattr__(self, "yr", as_young_diagram(self.yr))
        if self.x < 0 or self.y < 0:
            raise ValueError("x and y must be nonnegative")
        if self.zero and (self.x or self.y or self.yl or self.yr):
            raise ValueError("the zero ideal carries no data")

    def sort_key(self):
        return (0 if self.zero else 1, self.x, self.y, self.yl, self.yr)

    def __str__(self) -> str:
        if self.zero:
            return "0"
        return f"I({self.x},{self.y},{list(self.yl)},{list(self.yr)})"

    def to_json(self) -> dict:
        if self.zero:
            return {"zero": True}
        return {"x": self.x, "y": self.y, "yl": list(self.yl), "yr": list(self.yr)}

    @classmethod
    def from_json(cls, obj: dict) -> "Ideal":
        if obj.get("zero"):
            return ZERO_IDEAL
        return cls(
            x=as_int(obj.get("x", 0), "x"),
            y=as_int(obj.get("y", 0), "y"),
            yl=tuple(obj.get("yl", [])),
            yr=tuple(obj.get("yr", [])),
        )


ZERO_IDEAL = Ideal(zero=True)
AUGMENTATION_IDEAL = Ideal()


def code_sequence(inf_count: int, base: int, diagram: Sequence[int]) -> ExtSequence:
    """One half of an ideal's code: inf_count infinities, then base + column, then base.

    The explicit entries are base + l_1, ..., base + l_s for the column
    lengths l of the diagram; the sequence is constant at base from position
    inf_count + s + 1 on.  Always normalized, since columns are positive.
    """
    diagram = as_young_diagram(diagram)
    if inf_count < 0:
        raise ValueError("inf_count must be >= 0")
    if base < 0:
        raise ValueError("base must be >= 0")
    return ExtSequence(inf_count, tuple(base + l for l in diagram), base)


@cache
def cls_union(ideal: Ideal) -> frozenset[ClsCode]:
    """The codes of a nonzero ideal: one per split c + d = x (x + 1 in all).

    The zero ideal has no code in this encoding and is rejected.
    """
    if ideal.zero:
        raise ValueError("the zero ideal has no sequence code")
    return frozenset(
        ClsCode(
            code_sequence(c, ideal.y, ideal.yl),
            code_sequence(ideal.x - c, ideal.y, ideal.yr),
        )
        for c in range(ideal.x + 1)
    )


@cache
def is_contained(inner: Ideal, outer: Ideal) -> bool:
    """Ideal inclusion inner <= outer, decided through the code unions.

    The zero ideal sits below everything and above nothing else.  For two
    nonzero ideals the inclusion reverses on codes: the smaller ideal
    annihilates more, so inner <= outer iff every code of *outer* is
    included in some code of *inner*.
    """
    if inner.zero:
        return True
    if outer.zero:
        return False
    return union_included(cls_union(outer), cls_union(inner))


def inclusion_rows(ideals: Sequence[Ideal]) -> list[int]:
    """The inclusion order as bitset rows: bit j of row i iff is_contained(ideals[i], ideals[j]).

    Built through the code route in one pass: each nonzero ideal becomes a
    bitmask over the distinct codes of the family, and code_rows gives the
    code order among them.  cov_i, the codes included in some code of ideal
    i, then decides the whole row: ideal i lies below ideal j iff every code
    of j is in cov_i.  The zero ideal lies below everything.
    """
    index: dict[ClsCode, int] = {}
    masks = [
        None if ideal.zero else sum(1 << index.setdefault(c, len(index)) for c in cls_union(ideal))
        for ideal in ideals
    ]
    codes = code_rows(list(index))
    full = (1 << len(masks)) - 1
    rows = []
    for mask in masks:
        if mask is None:
            rows.append(full)
            continue
        cov = sum(1 << k for k, row in enumerate(codes) if row & mask)
        rows.append(sum(1 << j for j, other in enumerate(masks) if other is not None and not other & ~cov))
    return rows


def _columns_fit(cols: YoungDiagram, outer_cols: YoungDiagram, drop: int, shove: int, padded: bool) -> bool:
    # cols_i - drop >= outer_cols_{i + shove} over the quantified 1-based i,
    # with columns read as 0 beyond their diagram.
    def at(seq, i):
        return seq[i - 1] if 1 <= i <= len(seq) else 0

    if padded:
        top = max(len(cols), len(outer_cols)) + 1
    else:
        top = len(cols)
    return all(at(cols, i) - drop >= at(outer_cols, i + shove) for i in range(1, top + 1))


def diagram_order_condition(inner: Ideal, outer: Ideal, padded: bool = True) -> bool:
    """Closed-form inclusion test stated directly on (x, y) and the columns.

    Requires x, y to weakly drop and searches nonnegative splits
    a + b = y_inner - y_outer, c + d = x_inner - x_outer such that
    l_i - a >= l'_{i+c} and r_j - b >= r'_{j+d} (primes: the outer ideal).

    With padded=True the inequalities are required at every index, columns
    being zero beyond their diagrams; that forces a = b = 0, so the test
    rejects every inclusion where y strictly drops -- the disagreement the
    ``tord-discrepancy`` suite reports.  With padded=False they are required
    only at the inner ideal's actual column indices, which instead
    over-accepts when the inner diagrams are short.  Documentation only:
    decisions always use ``is_contained``.
    """
    if inner.zero or outer.zero:
        raise ValueError("the diagram condition is defined for nonzero ideals only")
    dx = inner.x - outer.x
    dy = inner.y - outer.y
    if dx < 0 or dy < 0:
        return False
    for a in range(dy + 1):
        b = dy - a
        for c in range(dx + 1):
            d = dx - c
            if _columns_fit(inner.yl, outer.yl, a, c, padded) and _columns_fit(
                inner.yr, outer.yr, b, d, padded
            ):
                return True
    return False


def is_maximal(ideal: Ideal) -> bool:
    """Only the augmentation ideal I(0,0,(),()) is maximal; the zero ideal is not."""
    return ideal == AUGMENTATION_IDEAL


def acc_measure(ideal: Ideal) -> tuple[int, int]:
    """(x + y, total diagram cells): drops lexicographically along strict inclusions.

    That strict decrease is a tested contract (the ``acc`` suite), and gives
    the ascending-chain property on the enumerated families.
    """
    if ideal.zero:
        raise ValueError("the measure is defined for nonzero ideals only")
    return (ideal.x + ideal.y, sum(ideal.yl) + sum(ideal.yr))


@dataclass(frozen=True)
class Weight:
    """Formal weight: finitely many explicit coefficients plus a constant odd tail.

    A coefficient is a pair (u, v) standing for u + v*alpha with alpha a
    fixed transcendental marker; no field arithmetic is ever performed on
    it.  Positions beyond the explicit part carry odd_tail at odd indices
    and 0 at even ones.  Instances are normalized, so equality is canonical.
    """

    explicit: tuple[tuple[int, tuple[int, int]], ...]
    odd_tail: int

    def __post_init__(self):
        if self.odd_tail < 0:
            raise ValueError("odd_tail must be >= 0")
        items = dict(self.explicit)
        if len(items) != len(self.explicit):
            raise ValueError("duplicate explicit positions")
        if any(i < 1 for i in items):
            raise ValueError("positions are 1-indexed")
        normalized = _normalize_coefficients(items, self.odd_tail)
        object.__setattr__(self, "explicit", normalized)

    def coefficient(self, index: int) -> tuple[int, int]:
        """(u, v) at the 1-indexed position: explicit entry, tail value, or zero."""
        if index < 1:
            raise ValueError("positions are 1-indexed")
        for i, c in self.explicit:
            if i == index:
                return c
        top = self.explicit[-1][0] if self.explicit else 0
        if index > top and index % 2 == 1:
            return (self.odd_tail, 0)
        return (0, 0)

    def to_json(self) -> dict:
        return {
            "explicit": {str(i): list(c) for i, c in self.explicit},
            "odd_tail": self.odd_tail,
        }

    def __str__(self) -> str:
        terms = [f"({_coefficient_str(c)})e{i}" for i, c in self.explicit]
        body = " + ".join(terms) if terms else "0"
        return f"{body} [odd tail {self.odd_tail}]"


def _coefficient_str(coeff: tuple[int, int]) -> str:
    u, v = coeff
    if v == 0:
        return str(u)
    alpha = "α" if v == 1 else f"{v}α"
    if u == 0:
        return alpha
    return f"{u}+{alpha}"


def _normalize_coefficients(items: dict[int, tuple[int, int]], odd_tail: int):
    items = {int(i): (int(u), int(v)) for i, (u, v) in items.items()}
    while items:
        top = max(items)
        default = (odd_tail, 0) if top % 2 else (0, 0)
        if items[top] == default:
            del items[top]
            continue
        for i in [i for i in items if i != top and items[i] == (0, 0)]:
            del items[i]
        break
    return tuple(sorted(items.items()))


def make_weight(coefficients: Mapping[int, tuple[int, int]], odd_tail: int) -> Weight:
    """Build a normalized Weight from a position -> (u, v) mapping."""
    return Weight(tuple(sorted((int(i), (int(u), int(v))) for i, (u, v) in coefficients.items())), odd_tail)


def highest_weight(ideal: Ideal) -> Weight:
    """Highest-weight realization of a nonzero ideal for the fixed alternating Borel order.

    Odd position 2i-1 carries i*alpha + y for i <= x; the next s odd
    positions carry y + l_i for the left columns; every further odd position
    carries y.  Even position 2j carries the reversed right column r_{t+1-j}
    for j <= t; all other even positions are 0.
    """
    if ideal.zero:
        raise ValueError("the zero ideal has no highest-weight datum here")
    x, y = ideal.x, ideal.y
    coeffs: dict[int, tuple[int, int]] = {}
    for i in range(1, x + 1):
        coeffs[2 * i - 1] = (y, i)
    for i, col in enumerate(ideal.yl, start=1):
        coeffs[2 * (i + x) - 1] = (y + col, 0)
    t = len(ideal.yr)
    for j in range(1, t + 1):
        coeffs[2 * j] = (ideal.yr[t - j], 0)
    top = max(coeffs, default=0)
    for i in range(1, top, 2):
        coeffs.setdefault(i, (y, 0))
    return make_weight(coeffs, y)


def enumerate_diagrams(max_cols: int, max_len: int) -> list[YoungDiagram]:
    """All diagrams with at most max_cols columns of length at most max_len, sorted."""
    if max_cols < 0 or max_len < 0:
        raise ValueError("diagram bounds must be >= 0")
    out: list[YoungDiagram] = [()]
    for ncols in range(1, max_cols + 1):
        out.extend(combinations_with_replacement(range(max_len, 0, -1), ncols))
    return sorted(out)


def enumerate_ideals(max_x: int, max_y: int, max_cols: int, max_len: int) -> list[Ideal]:
    """The bounded family of nonzero ideals, in canonical order."""
    if max_x < 0 or max_y < 0:
        raise ValueError("family bounds must be >= 0")
    diagrams = enumerate_diagrams(max_cols, max_len)
    family = [
        Ideal(x, y, yl, yr)
        for x in range(max_x + 1)
        for y in range(max_y + 1)
        for yl in diagrams
        for yr in diagrams
    ]
    return sorted(family, key=Ideal.sort_key)


def containing_ideals(ideal: Ideal, width_cap: int) -> list[Ideal]:
    """All nonzero ideals containing this one, within explicit search bounds.

    x and y never grow along inclusions, and candidate column lengths are
    bounded by the first column plus y on each side; the number of columns
    is capped by width_cap because the full upset can be infinite (adding
    one-cell columns can absorb an exterior factor indefinitely).
    """
    if ideal.zero:
        raise ValueError("the upset of the zero ideal is the whole lattice; enumerate a family instead")
    if width_cap < 0:
        raise ValueError("width_cap must be >= 0")
    max_l = (ideal.yl[0] if ideal.yl else 0) + ideal.y
    max_r = (ideal.yr[0] if ideal.yr else 0) + ideal.y
    left = enumerate_diagrams(width_cap, max_l)
    right = enumerate_diagrams(width_cap, max_r)
    found = [
        cand
        for x in range(ideal.x + 1)
        for y in range(ideal.y + 1)
        for yl in left
        for yr in right
        if is_contained(ideal, cand := Ideal(x, y, yl, yr))
    ]
    return sorted(found, key=Ideal.sort_key)
