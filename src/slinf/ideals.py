"""Primitive-ideal data, sequence codes, the inclusion order, and highest weights.

A nonzero primitive ideal of U(sl(inf)) is named by a tuple (x, y, Yl, Yr):
x symmetric-algebra factors, y exterior-algebra factors, and two Young
diagrams.  Distinct tuples name distinct ideals, so equality is structural;
the zero ideal is carried along as the bottom element of the order.

Inclusion between nonzero ideals is the order of their sequence codes (one
code per split c + d = x) -- the route that reproduces the maximality and
ascending-chain corollaries.  A single ideal pair compares the outer ideal's
(x, 0) split with the inner ideal's codes, reading the code slacks directly
from the diagram columns (``is_contained``); an upset decides every
candidate at once from one table of column deficits, the same slacks
negated, as one bitmask row per (x', y', Yl) over the right diagrams, in
canonical order with no sort (``containing_ideals``); a whole family is
decided on the same slacks as bitset rows over the ideals, built by mask
algebra from one table of column slacks, with no code built
(``inclusion_rows``), and the
``split-consistency`` suite replays those rows against the full code
unions, which it does build.  Every route rests on one slack form:
a split a + b = d fits under two slacks s_p, s_q iff s_p >= 0, s_q >= 0 and
s_p + s_q >= d (``code_included``).  A direct closed-form condition on the
diagram columns exists in the literature but disagrees with those corollaries
as printed; it is kept here (``diagram_order_condition``, is_contained's
column form without the shift by dy, tabulated for a family by the engine
of ``inclusion_rows``) purely so the ``tord-discrepancy`` verify suite can
report the disagreement, and is never used for decisions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, reduce
from itertools import accumulate, chain, combinations_with_replacement
from math import comb
from operator import or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .cls_codes import (
    INF,
    ClsCode,
    ExtSequence,
    _split_fits,
    bit_indices,
)
from .partitions import YoungDiagram, as_array, as_int, as_object, as_young_diagram, capped_comb, frozen


@frozen
class Ideal:
    """Canonical name of a primitive ideal: the zero ideal, or the data (x, y, Yl, Yr)."""

    _fields = ("x", "y", "yl", "yr", "zero")

    def __init__(self, x: int = 0, y: int = 0, yl: YoungDiagram = (), yr: YoungDiagram = (), zero: bool = False):
        as_int(x, "x")
        as_int(y, "y")
        yl = as_young_diagram(yl)
        yr = as_young_diagram(yr)
        if x < 0 or y < 0:
            raise ValueError("x and y must be nonnegative")
        if zero and (x or y or yl or yr):
            raise ValueError("the zero ideal carries no data")
        setattr_ = object.__setattr__
        setattr_(self, "x", x)
        setattr_(self, "y", y)
        setattr_(self, "yl", yl)
        setattr_(self, "yr", yr)
        setattr_(self, "zero", zero)

    @classmethod
    def _trusted(cls, x: int, y: int, yl: YoungDiagram, yr: YoungDiagram) -> "Ideal":
        """A nonzero ideal without the checks of __init__, for enumerator output only: data valid by construction."""
        ideal = object.__new__(cls)
        # one attribute at a time, in the order __init__ sets them, keeps the
        # instance as small as a validated one; __dict__.update doubles it
        setattr_ = object.__setattr__
        setattr_(ideal, "x", x)
        setattr_(ideal, "y", y)
        setattr_(ideal, "yl", yl)
        setattr_(ideal, "yr", yr)
        setattr_(ideal, "zero", False)
        return ideal

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
        if "zero" in as_object(obj, ("x", "y", "yl", "yr", "zero"), "an ideal"):
            if len(obj) > 1 or obj["zero"] is not True:
                raise ValueError(f'the zero ideal is exactly {{"zero": true}}, got {obj!r}')
            return ZERO_IDEAL
        return cls(
            x=obj.get("x", 0),
            y=obj.get("y", 0),
            yl=as_array(obj.get("yl", []), "yl"),
            yr=as_array(obj.get("yr", []), "yr"),
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


def split_code(ideal: Ideal, c: int) -> ClsCode:
    """The code of a nonzero ideal's split c + d = x: c infinities on the left, d on the right."""
    if ideal.zero:
        raise ValueError("the zero ideal has no sequence code")
    return ClsCode(code_sequence(c, ideal.y, ideal.yl), code_sequence(ideal.x - c, ideal.y, ideal.yr))


def cls_union(ideal: Ideal) -> frozenset[ClsCode]:
    """The codes of a nonzero ideal: one per split c + d = x (x + 1 in all).

    The zero ideal has no code in this encoding and is rejected.  Not memoized.
    """
    return frozenset(split_code(ideal, c) for c in range(ideal.x + 1))


def is_contained(inner: Ideal, outer: Ideal) -> bool:
    """Ideal inclusion inner <= outer, decided on code slacks read from the columns.

    The zero ideal sits below everything and above nothing else.  For two
    nonzero ideals the inclusion reverses on codes: the smaller ideal
    annihilates more, so inner <= outer iff every code of *outer* is
    included in some code of *inner*.  Comparing outer's (x, 0) split alone
    is exact: split c of outer is that split with x - c leading infinities
    moved from the left half to the right, and moving as many in inner's
    code leaves both seq_slacks unchanged.

    No code is built.  With dx = inner.x - outer.x, dy = inner.y - outer.y
    and inner's split c0 = outer.x + s, s in 0..dx (fewer left infinities
    give -inf), seq_slack of the p halves is exactly
    dy + _column_slack(inner.yl, outer.yl, s, padded=True), and of the q
    halves the same with the right diagrams and shove dx - s.  Past outer's
    infinities both heads are y plus a column, and seq_slack pads both with
    their tails, y plus a zero column; the padded column reading pads with
    zeros, and the positions it reads beyond seq_slack's compare 0 with 0.
    So this is code_included's slack criterion on those slacks.

    The deficit form: a padded column slack is never positive, since at its
    last index the inner column reads 0 and the outer one at least 0.  So
    with the deficits e_L = -_column_slack(inner.yl, outer.yl, s, padded=True)
    and e_R, the same on the right diagrams at shove dx - s, both >= 0, the
    criterion _split_fits(dy, dy - e_L, dy - e_R) reduces to e_L + e_R <= dy:
    inner <= outer iff some s in 0..dx has e_L + e_R <= dy.
    """
    if inner.zero or outer.zero:
        return inner.zero
    return _columns_fit(inner, outer, inner.y - outer.y, True)


def inclusion_rows(ideals: Sequence[Ideal]) -> list[int]:
    """The inclusion order as bitset rows: bit j of row i iff is_contained(ideals[i], ideals[j]).

    Decided on the columns, as is_contained decides, but for every pair at
    once and with no code built: _column_rows(ideals, shifted=True,
    padded=True).  The zero ideal lies below everything and above nothing
    else; duplicates and any order of the list are fine.  The
    ``split-consistency`` suite replays these rows against the full code
    unions, a route that builds the codes.
    """
    return _column_rows(ideals, True, True)


def _column_slack(cols: YoungDiagram, outer_cols: YoungDiagram, shove: int, padded: bool) -> int | float:
    # min of cols_i - outer_cols_{i + shove} over the quantified 1-based i, with
    # columns read as 0 beyond their diagram; +inf when no i is quantified.
    top = max(len(cols), len(outer_cols)) + 1 if padded else len(cols)
    high = outer_cols[shove : shove + top]
    return min(map(sub, cols + (0,) * (top - len(cols)), high + (0,) * (top - len(high))), default=INF)


def diagram_order_condition(inner: Ideal, outer: Ideal, padded: bool = True) -> bool:
    """Closed-form inclusion test stated directly on (x, y) and the columns.

    Requires x, y to weakly drop and asks for nonnegative splits
    a + b = y_inner - y_outer, c + d = x_inner - x_outer such that
    l_i - a >= l'_{i+c} and r_j - b >= r'_{j+d} (primes: the outer ideal).

    Decided by column slacks, with the argument of code_included: the left
    inequalities hold for a exactly when a <= sL(c), the minimum of
    l_i - l'_{i+c} over the quantified i (+inf when there is none), and the
    right ones when b <= sR(d), likewise.  So the condition holds iff some
    c + d = dx has a split of dy under the slacks: sL(c) >= 0, sR(d) >= 0
    and sL(c) + sR(d) >= dy (_columns_fit).  A column slack reads only
    two diagrams, a shove and the reading, so this takes at most 2(dx + 1)
    minima per pair, where the split search it replaces tried up to
    (dx + 1)(dy + 1) pairs of splits; a whole family takes them from one
    table per reading instead (``_column_rows`` without the shift, the
    engine of ``inclusion_rows``).

    With padded=True the inequalities are required at every index, columns
    being zero beyond their diagrams; the last padded index then gives a
    slack of at most 0, which forces a = b = 0, so the test rejects every
    inclusion where y strictly drops.  ``is_contained`` is this padded form
    with both slacks shifted by dy (every code entry carries y), and at
    dy = 0 that shift is 0: so the padded reading holds exactly where
    is_contained holds and y does not drop.  It is never unsound, and the
    inclusions the ``tord-discrepancy`` suite reports it missing are exactly
    those where y drops (tested, though the suite still evaluates the
    printed condition on its own tables).  With padded=False the
    inequalities are required only at the inner ideal's actual column
    indices, which instead over-accepts when the inner diagrams are short.
    Documentation only: decisions always use ``is_contained``.
    """
    if inner.zero or outer.zero:
        raise ValueError("the diagram condition is defined for nonzero ideals only")
    return _columns_fit(inner, outer, 0, padded)


def _columns_fit(inner: Ideal, outer: Ideal, shift: int, padded: bool) -> bool:
    """Whether dx, dy >= 0 and some c + d = dx has _split_fits(dy, shift + sL(c), shift + sR(d)).

    sL and sR are the column slacks of diagram_order_condition.  With
    shift = dy and padded=True they are is_contained's code slacks.
    """
    dx = inner.x - outer.x
    dy = inner.y - outer.y
    if dx < 0 or dy < 0:
        return False
    for c in range(dx + 1):
        s_p = shift + _column_slack(inner.yl, outer.yl, c, padded)
        # a left half that fails already decides, so its right slack is not computed
        if s_p >= 0 and _split_fits(dy, s_p, shift + _column_slack(inner.yr, outer.yr, dx - c, padded)):
            return True
    return False


def _column_rows(ideals: Sequence[Ideal], shifted: bool, padded: bool) -> list[int]:
    """Bitset rows of _columns_fit: bit j of row i iff it holds for (ideals[i], ideals[j]) at shift dy (or 0).

    The shift is dy when shifted, else 0; a zero inner ideal gives a full
    row, and a zero outer ideal is above nothing else.  Built by mask
    algebra over the list, never pair by pair.  The outers of a pair
    (dx, dy) form one group mask, of x' = x - dx and y' = y - dy.  Among
    them, _columns_fit needs some c + d = dx with shift + sL(c) >= 0,
    shift + sR(d) >= 0 and sL(c) + sR(d) >= dy - 2 shift.  The column
    slacks read two diagrams and a shove, so one table holds them all:
    every distinct diagram against every other, at every shove below the
    spread of x.  For an inner left diagram and a shove c the outers fall
    into buckets of equal sL(c), each the OR of the masks of the left
    diagrams at that slack; on the right, the buckets of sR(d) are ORed
    from the top down, so the outers with sR(d) >= t are one mask.  So
    one mask per distinct (Yl, Yr, dx, dy) takes one AND per occupied left
    bucket and shove, and row i is the OR over (dx, dy) of the group mask
    ANDed with that mask.
    """
    members: dict[tuple[int, int], list[int]] = {}
    by_left: dict[YoungDiagram, int] = {}
    by_right: dict[YoungDiagram, int] = {}
    for j, ideal in enumerate(ideals):
        if not ideal.zero:
            members.setdefault((ideal.x, ideal.y), []).append(j)
            for masks, key in ((by_left, ideal.yl), (by_right, ideal.yr)):
                masks[key] = masks.get(key, 0) | 1 << j
    groups = {xy: sum(1 << j for j in js) for xy, js in members.items()}
    xs = [x for x, _ in groups]
    shoves = range(max(xs, default=0) - min(xs, default=0) + 1)
    diagrams = by_left.keys() | by_right.keys()
    slacks = {(a, b): [_column_slack(a, b, c, padded) for c in shoves] for a in diagrams for b in diagrams}

    def buckets(a: YoungDiagram, c: int, by: dict) -> list[tuple]:
        # (slack, mask of the outers at that slack) for inner diagram a at shove c, occupied slacks ascending
        at: dict = {}
        for b, mask in by.items():
            at[slacks[a, b][c]] = at.get(slacks[a, b][c], 0) | mask
        return sorted(at.items())

    def at_least(values, masks) -> tuple:
        # the slacks, and at k the outers whose slack is values[k] or more; 0 past the last
        return values, list(accumulate(reversed(masks), or_))[::-1] + [0]

    left = {(a, c): buckets(a, c, by_left) for a in by_left for c in shoves}
    right = {(a, c): at_least(*zip(*buckets(a, c, by_right))) for a in by_right for c in shoves}

    @cache
    def fits(yl: YoungDiagram, yr: YoungDiagram, dx: int, dy: int) -> int:
        # the outers, of any x and y, whose diagrams fit under (yl, yr) at (dx, dy)
        shift = dy if shifted else 0
        mask = 0
        for c in range(dx + 1):
            values, above = right[yr, dx - c]
            for s, outers in left[yl, c]:
                if s + shift >= 0:
                    mask |= outers & above[bisect_left(values, max(-shift, dy - 2 * shift - s))]
        return mask

    rows = [(1 << len(ideals)) - 1] * len(ideals)  # the zero ideal's, full
    for (x, y), js in members.items():
        # the groups of outers at or below (x, y), one (x, y) at a time: all at once would take #groups**2
        below = [(g, x - gx, y - gy) for (gx, gy), g in groups.items() if gx <= x and gy <= y]
        for j in js:
            yl, yr = ideals[j].yl, ideals[j].yr
            rows[j] = reduce(or_, [g & fits(yl, yr, dx, dy) for g, dx, dy in below], 0)
    return rows


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


@frozen
class Weight:
    """Formal weight: finitely many coefficients plus a constant odd tail.

    A coefficient is a pair (u, v) standing for u + v*alpha with alpha a
    fixed transcendental marker; no field arithmetic is ever performed on
    it.  coefficients[i - 1] is position i; positions past the tuple carry
    odd_tail at odd indices and 0 at even ones.  Trailing coefficients equal
    to that default are dropped, so equality is canonical.
    """

    _fields = ("coefficients", "odd_tail")

    def __init__(self, coefficients: tuple[tuple[int, int], ...], odd_tail: int):
        if odd_tail < 0:
            raise ValueError("odd_tail must be >= 0")
        # a pair that is already a 2-tuple of exact ints is kept, not copied
        coefficients = [
            c if type(c) is tuple and len(c) == 2 and type(c[0]) is int and type(c[1]) is int else _int_pair(c)
            for c in coefficients
        ]
        object.__setattr__(self, "odd_tail", odd_tail)
        while coefficients and coefficients[-1] == self._past_end(len(coefficients)):
            coefficients.pop()
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def _past_end(self, index: int) -> tuple[int, int]:
        return (self.odd_tail, 0) if index % 2 else (0, 0)

    def coefficient(self, index: int) -> tuple[int, int]:
        """(u, v) at the 1-indexed position."""
        if index < 1:
            raise ValueError("positions are 1-indexed")
        if index <= len(self.coefficients):
            return self.coefficients[index - 1]
        return self._past_end(index)

    def _listed(self, positions: Iterable[int] | None = None) -> Iterator[tuple[int, tuple[int, int]]]:
        # (position, coefficient) for the nonzero coefficients and the last one,
        # read at the given positions of the tuple (all of them, in order, by default)
        coefficients, last = self.coefficients, len(self.coefficients)
        if positions is None:
            positions = range(1, last + 1)
        return ((i, c) for i in positions if (c := coefficients[i - 1]) != (0, 0) or i == last)

    def to_json(self) -> dict:
        return {"explicit": {str(i): list(c) for i, c in self._listed()}, "odd_tail": self.odd_tail}

    def __str__(self) -> str:
        body = " + ".join(f"({_coefficient_str(c)})e{i}" for i, c in self._listed()) or "0"
        return f"{body} [odd tail {self.odd_tail}]"


def _int_pair(pair) -> tuple[int, int]:
    u, v = pair
    return int(u), int(v)


def _coefficient_str(coeff: tuple[int, int]) -> str:
    u, v = coeff
    if v == 0:
        return str(u)
    alpha = "α" if v == 1 else f"{v}α"
    if u == 0:
        return alpha
    return f"{u}+{alpha}"


def make_weight(coefficients: Mapping[int, tuple[int, int]], odd_tail: int) -> Weight:
    """Build a Weight from a position -> (u, v) mapping; unlisted positions up to the largest are (0, 0)."""
    if any(i < 1 for i in coefficients):
        raise ValueError("positions are 1-indexed")
    return Weight(tuple(coefficients.get(i, (0, 0)) for i in range(1, max(coefficients, default=0) + 1)), odd_tail)


def highest_weight(ideal: Ideal) -> Weight:
    """Highest-weight realization of a nonzero ideal for the fixed alternating Borel order.

    Odd position 2i-1 carries i*alpha + y for i <= x; the next s odd
    positions carry y + l_i for the left columns; every further odd position
    carries y.  Even position 2j carries the reversed right column r_{t+1-j}
    for j <= t; all other even positions are 0.
    """
    if ideal.zero:
        raise ValueError("the zero ideal has no highest-weight datum here")
    y = ideal.y
    odd = [(y, i) for i in range(1, ideal.x + 1)] + [(y + col, 0) for col in ideal.yl]
    even = [(col, 0) for col in reversed(ideal.yr)]
    n = max(len(odd), len(even))
    odd += [(y, 0)] * (n - len(odd))
    even += [(0, 0)] * (n - len(even))
    return Weight(tuple(chain.from_iterable(zip(odd, even))), y)


def enumerate_diagrams(max_cols: int, max_len: int) -> list[YoungDiagram]:
    """All diagrams with at most max_cols columns of length at most max_len, sorted."""
    if max_cols < 0 or max_len < 0:
        raise ValueError("diagram bounds must be >= 0")
    out: list[YoungDiagram] = [()]
    for ncols in range(1, max_cols + 1 if max_len else 1):
        out.extend(combinations_with_replacement(range(max_len, 0, -1), ncols))
    return sorted(out)


def diagram_count(max_cols: int, max_len: int, cap: int) -> int:
    """len(enumerate_diagrams(max_cols, max_len)) = C(max_len + max_cols, max_cols), capped at cap + 1."""
    if max_cols < 0 or max_len < 0:
        raise ValueError("diagram bounds must be >= 0")
    return capped_comb(max_len + max_cols, max_cols, cap)


def enumerate_ideals(max_x: int, max_y: int, max_cols: int, max_len: int) -> list[Ideal]:
    """The bounded family of nonzero ideals, in canonical order."""
    if max_x < 0 or max_y < 0:
        raise ValueError("family bounds must be >= 0")
    diagrams = enumerate_diagrams(max_cols, max_len)
    # the loops run in Ideal.sort_key order, as the diagrams are sorted
    return [
        Ideal._trusted(x, y, yl, yr)
        for x in range(max_x + 1)
        for y in range(max_y + 1)
        for yl in diagrams
        for yr in diagrams
    ]


def family_size(max_x: int, max_y: int, max_cols: int, max_len: int, cap: int) -> int:
    """len(enumerate_ideals(...)) without enumerating: exact up to cap, some number past cap beyond it."""
    if max_x < 0 or max_y < 0:
        raise ValueError("family bounds must be >= 0")
    diagrams = diagram_count(max_cols, max_len, cap)
    return (max_x + 1) * (max_y + 1) * diagrams * diagrams


def inclusion_rows_checks(max_x: int, max_y: int, max_cols: int, max_len: int, cap: int) -> int:
    """The work of inclusion_rows on enumerate_ideals(...), counted without enumerating, in 64-bit words.

    With D diagrams, A = C(max_x + 2, 2) and B = C(max_y + 2, 2), the n
    ideals are (max_x + 1)(max_y + 1) groups of D**2, one per (x, y), laid
    out x by x.  inclusion_rows ANDs each ideal's fits mask with every
    group at or below its (x, y): D**2 A B ANDs.  The group of (x', y')
    ends at bit (x' (max_y + 1) + y' + 1) D**2, so one AND with it reads
    that many bits over 64, and D**2 (max_x - x' + 1)(max_y - y' + 1)
    ideals make one: D**4 ((max_y + 1) C(max_x + 2, 3) B + A C(max_y + 3, 3))
    / 64 words in all.  Its fits masks take one step per shove,
    D**2 A (max_y + 1).  No code is built.  Exact up to cap, some number
    past cap beyond it, like family_size.
    """
    n = family_size(max_x, max_y, max_cols, max_len, cap)
    if n > cap:
        return n
    groups = diagram_count(max_cols, max_len, cap) ** 2
    a, b = comb(max_x + 2, 2), comb(max_y + 2, 2)
    words = groups * groups * ((max_y + 1) * comb(max_x + 2, 3) * b + a * comb(max_y + 3, 3)) // 64
    return groups * a * b + words + groups * a * (max_y + 1)


def upset_size(ideal: Ideal, width_cap: int, cap: int) -> int:
    """How much work containing_ideals does: exact up to cap, some number past cap beyond it.

    Per y', it decides (x + 1)·#left·#right candidates, and decides the rows
    with up to sum_x' (x - x' + 1)·#left = C(x + 2, 2)·#left split tries:
    row (x', y', L) tries the splits x'..x, each reading a left deficit from
    a table of (x + 1)·#left made once.  The (y + 1)(x + 1)·#right term
    counts the table: (y + 1)(x + 1) masks over the right diagrams.  So the
    work grows as x**2 even when the candidates grow only as x.
    """
    if ideal.zero or width_cap < 0:
        return 0  # containing_ideals refuses these before deciding anything
    max_l, max_r = _longest_columns(ideal)
    left = diagram_count(width_cap, max_l, cap)
    right = diagram_count(width_cap, max_r, cap)
    x = ideal.x  # the candidates, the table, the rows
    return (ideal.y + 1) * ((x + 1) * left * right + (x + 1) * right + capped_comb(x + 2, 2, cap) * left)


def _longest_columns(ideal: Ideal) -> tuple[int, int]:
    # columns of a containing ideal are at most the first column plus y, on each side
    return (ideal.yl[0] if ideal.yl else 0) + ideal.y, (ideal.yr[0] if ideal.yr else 0) + ideal.y


def containing_ideals(ideal: Ideal, width_cap: int) -> list[Ideal]:
    """All nonzero ideals containing this one, within explicit search bounds.

    x and y never grow along inclusions, and candidate column lengths are
    bounded by the first column plus y on each side; the number of columns
    is capped by width_cap because the full upset can be infinite (adding
    one-cell columns can absorb an exterior factor indefinitely).

    The ideals of _upset_rows' rows, in canonical (Ideal.sort_key) order
    with no sort.  The tests check the answers against the full code unions
    (union_included over cls_union), a route independent of this one.
    """
    right, rows = _upset_rows(ideal, width_cap)
    return [Ideal._trusted(x, y, yl, right[j]) for x, y, yl, mask in rows for j in bit_indices(mask)]


def _upset_rows(
    ideal: Ideal, width_cap: int
) -> tuple[list[YoungDiagram], Iterator[tuple[int, int, YoungDiagram, int]]]:
    """The upset as rows: the sorted right diagrams, and (x', y', L, mask) for each candidate row that is not empty.

    Decided in is_contained's deficit form, never candidate by candidate:
    J = (x', y', L, R) contains the ideal iff some split c0 in x'..x has
    e_L(L, c0 - x') + e_R(R, x - c0) <= d = y - y'.  The right deficits see
    neither x' nor y', so one table, within[c0][k] = {R : e_R(R, x - c0) <= k}
    for k = 0..y as bitmasks over the right diagrams, serves every
    candidate, and each (x', y', L) ORs within[c0][d - e_L] over the splits
    with e_L <= d: bit j of its mask is the candidate with R = right[j].
    The left deficits see neither x' nor y' apart from the shove c0 - x', so
    they too are computed once, per left diagram and shove.
    The rows come x' by x', y' by y', left diagram by left diagram, and the
    diagrams are enumerated sorted, so reading each mask bit by bit gives
    the canonical order.  The refusals and the table come at the call; the
    rows are decided as they are read.
    """
    if ideal.zero:
        raise ValueError("the upset of the zero ideal is the whole lattice; enumerate a family instead")
    if width_cap < 0:
        raise ValueError("width_cap must be >= 0")
    max_l, max_r = _longest_columns(ideal)
    left = enumerate_diagrams(width_cap, max_l)
    right = enumerate_diagrams(width_cap, max_r)
    within = []  # within[c0][k]: the right diagrams of deficit <= k at shove x - c0
    for c0 in range(ideal.x + 1):
        deficits = [-_column_slack(ideal.yr, yr, ideal.x - c0, True) for yr in right]
        within.append([sum(1 << j for j, e in enumerate(deficits) if e <= k) for k in range(ideal.y + 1)])
    full = (1 << len(right)) - 1

    def rows() -> Iterator[tuple[int, int, YoungDiagram, int]]:
        # deficits[i][s] = e_L(left[i], s) for each shove s = c0 - x'
        deficits = [[-_column_slack(ideal.yl, yl, s, True) for s in range(ideal.x + 1)] for yl in left]
        for x in range(ideal.x + 1):
            for y in range(ideal.y + 1):
                d = ideal.y - y
                for yl, shoves in zip(left, deficits):
                    row = 0
                    for e, masks in zip(shoves, within[x:]):  # the splits c0 = x..ideal.x
                        if e <= d:
                            row |= masks[d - e]
                            if row == full:
                                break
                    if row:
                        yield x, y, yl, row

    return right, rows()
