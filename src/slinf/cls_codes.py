"""Sequence codes for coherent local systems and their inclusion order.

A coherent local system is encoded by a pair of nonincreasing sequences over
the nonnegative integers together with +infinity, both converging to the
same finite constant m.  Such a sequence is stored exactly as the triple
(number of leading infinities, explicit head, eventual constant), so every
comparison reduces to finitely many index checks.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import compress
from operator import or_, sub

from .partitions import as_array, as_int, as_object, frozen

INF = float("inf")


@frozen
class ExtSequence:
    """Nonincreasing sequence: inf_count leading infinities, a head, then the tail forever.

    Head entries must be nonincreasing and >= tail; a *normalized* sequence
    has every head entry > tail (trailing copies of the tail are absorbed).
    """

    _fields = ("inf_count", "head", "tail")

    def __init__(self, inf_count: int, head: tuple[int, ...], tail: int):
        head = tuple(head)
        if as_int(inf_count, "inf_count") < 0:
            raise ValueError("inf_count must be >= 0")
        if as_int(tail, "tail") < 0:
            raise ValueError("tail must be >= 0")
        for v in head:
            if as_int(v, "a head entry") < tail:
                raise ValueError(f"head entry {v} below the tail {tail}")
        if any(head[i] < head[i + 1] for i in range(len(head) - 1)):
            raise ValueError(f"head must be nonincreasing: {list(head)}")
        setattr_ = object.__setattr__
        setattr_(self, "inf_count", inf_count)
        setattr_(self, "head", head)
        setattr_(self, "tail", tail)

    @classmethod
    def constant(cls, m: int) -> "ExtSequence":
        return cls(0, (), m)

    @property
    def significant_length(self) -> int:
        """Number of leading positions before the sequence settles at the tail."""
        return self.inf_count + len(self.head)

    def value_at(self, i: int) -> int | float:
        """1-indexed entry; infinities come out as float('inf')."""
        if i < 1:
            raise ValueError("positions are 1-indexed")
        if i <= self.inf_count:
            return INF
        j = i - self.inf_count
        return self.head[j - 1] if j <= len(self.head) else self.tail

    @property
    def is_normalized(self) -> bool:
        return not self.head or self.head[-1] > self.tail

    def normalized(self) -> "ExtSequence":
        """Absorb trailing head entries equal to the tail; encodes the same sequence."""
        head = self.head
        while head and head[-1] == self.tail:
            head = head[:-1]
        return self if len(head) == len(self.head) else ExtSequence(self.inf_count, head, self.tail)

    def to_json(self) -> dict:
        return {"inf": self.inf_count, "head": list(self.head), "tail": self.tail}

    @classmethod
    def from_json(cls, obj: dict) -> "ExtSequence":
        as_object(obj, ("inf", "head", "tail"), "a sequence", required=("tail",))
        return cls(obj.get("inf", 0), as_array(obj.get("head", []), "head"), obj["tail"])


@frozen
class ClsCode:
    """A pair of extended sequences sharing one eventual constant (the code's limit)."""

    _fields = ("p", "q")

    def __init__(self, p: ExtSequence, q: ExtSequence):
        if p.tail != q.tail:
            raise ValueError(f"both halves must share their limit: {p.tail} != {q.tail}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def limit(self) -> int:
        return self.p.tail

    def normalized(self) -> "ClsCode":
        return ClsCode(self.p.normalized(), self.q.normalized())

    def sort_key(self):
        return (
            self.p.inf_count, self.p.head, self.p.tail,
            self.q.inf_count, self.q.head, self.q.tail,
        )

    def to_json(self) -> dict:
        return {"p": self.p.to_json(), "q": self.q.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "ClsCode":
        as_object(obj, ("p", "q"), "a code", required=("p", "q"))
        return cls(ExtSequence.from_json(obj["p"]), ExtSequence.from_json(obj["q"]))


def seq_leq_shifted(inner: ExtSequence, outer: ExtSequence, a: int) -> bool:
    """Pointwise inner_i <= outer_i - a at every position, with inf - a = inf.

    Anything is <= infinity; infinity is <= nothing finite.  Decided on the
    finite index range covering both explicit parts plus one tail position.
    Antitone in a: once true for a, true for every smaller shift.  Not memoized.
    """
    if a < 0:
        raise ValueError("the shift a must be >= 0")
    return _below_shifted(_aligned_values(inner, outer), a)


def _aligned_values(inner: ExtSequence, outer: ExtSequence) -> list[tuple[int | float, int | float]]:
    """(inner_i, outer_i) at the positions seq_leq_shifted reads: both explicit parts plus one tail position."""
    n = max(inner.significant_length, outer.significant_length) + 1
    return [(inner.value_at(i), outer.value_at(i)) for i in range(1, n + 1)]


def _below_shifted(values, a: int) -> bool:
    """The pointwise test of seq_leq_shifted on aligned values: inner_i <= outer_i - a at every position."""
    return all(low <= high - a for low, high in values)


def seq_slack(inner: ExtSequence, outer: ExtSequence) -> int | float:
    """Largest shift a with inner <= outer - a pointwise: min_i (outer_i - inner_i).

    Taken over the positions seq_leq_shifted reads.  A position where outer
    is infinite imposes no bound; one where only inner is infinite gives
    -inf ("never").  Past outer's infinities both sequences are finite, so
    inner's head is read from the same position on and both heads are
    padded with their tails up to one position past the longer; the last
    position compares the two tails.  The result is an integer or -inf, and
    seq_leq_shifted(inner, outer, a) holds exactly when
    0 <= a <= seq_slack(inner, outer).  The cost grows with the heads, not
    with the number of infinities.
    """
    if inner.inf_count > outer.inf_count:
        return -INF  # position outer.inf_count + 1 is infinite in inner only
    low = inner.head[outer.inf_count - inner.inf_count :]
    high = outer.head
    n = max(len(low), len(high)) + 1
    return min(map(sub, high + (outer.tail,) * (n - len(high)), low + (inner.tail,) * (n - len(low))))


def code_included(inner: ClsCode, outer: ClsCode) -> bool:
    """Inclusion of coherent systems decided on their codes.

    True iff d = m - m' >= 0 (m, m' the limits of outer and inner) and some
    split a + b = d with a, b >= 0 has inner.p <= outer.p - a and
    inner.q <= outer.q - b pointwise.  Decided in closed form: with
    s_p = seq_slack(inner.p, outer.p) and s_q likewise, the split exists iff
    s_p >= 0, s_q >= 0 and s_p + s_q >= d.  This is exact because
    seq_leq_shifted is antitone in the shift, so the admissible a form the
    interval [max(0, d - s_q), min(d, s_p)].  ``code_included_oracle`` keeps
    the split search; the ``code-slack`` suite replays one against the
    other.  Insensitive to normalization.
    """
    d = outer.limit - inner.limit
    if d < 0:
        return False
    slack_p = seq_slack(inner.p, outer.p)
    # a p half that fails already decides, so its q slack is not computed
    return slack_p >= 0 and _split_fits(d, slack_p, seq_slack(inner.q, outer.q))


def _split_fits(d, slack_p, slack_q) -> bool:
    """Is there a split a + b = d with 0 <= a <= slack_p and 0 <= b <= slack_q?  A slack may be +-inf."""
    return slack_p >= 0 and slack_q >= 0 and 0 <= d <= slack_p + slack_q


def code_included_oracle(inner: ClsCode, outer: ClsCode) -> bool:
    """Split-search reference for code_included: the same relation, searched.

    True iff the limits satisfy m' <= m and, for some split a + b = m - m'
    with a, b >= 0, both halves compare pointwise:
    inner.p <= outer.p - a and inner.q <= outer.q - b.  Searched as one AND
    over every split (_shift_masks).  Insensitive to normalization.
    """
    return bool(_shift_masks(inner.p, outer.p)[0] & _shift_masks(inner.q, outer.q)[1])


def _shift_masks(inner: ExtSequence, outer: ExtSequence) -> tuple[int, int]:
    """The shifts a in 0..d with seq_leq_shifted(inner, outer, a), as bit a of one mask and bit d - a of another.

    d = outer.tail - inner.tail; both masks are 0 when d < 0.  The two value
    lists are read once, and each shift is tested on them pointwise, with no
    antitonicity and no slack, so the oracle stays an independent reference.
    """
    d = outer.tail - inner.tail
    values = _aligned_values(inner, outer)
    fits = [a for a in range(d + 1) if _below_shifted(values, a)]
    return sum(1 << a for a in fits), sum(1 << (d - a) for a in fits)


def _intern(index: dict, code: ClsCode) -> tuple[int, int, int]:
    """(limit, p, q) of a code, each half numbered by index, which interns it on first sight."""
    return code.limit, index.setdefault(code.p, len(index)), index.setdefault(code.q, len(index))


def _pair_table(fn, index: dict) -> list[list]:
    """fn over every ordered pair of the sequences interned in index: table[a][b] = fn(seqs[a], seqs[b])."""
    seqs = list(index)
    return [[fn(a, b) for b in seqs] for a in seqs]


def code_rows(codes) -> list[int]:
    """The code order as bitset rows: bit j of row i iff code_included(codes[i], codes[j]).

    The sequences are interned and their slacks tabulated once, one
    seq_slack per pair of distinct sequences.  The rows then come from
    masks over the codes, not from a test per pair of codes.  A slack never
    exceeds the difference of the two tails (seq_slack reads the tails
    last), so with d = m_j - m_i the q-deficit d - s_q is >= 0, and the
    slack criterion of code_included (s_p >= 0, s_q >= 0, s_p + s_q >= d)
    is exactly s_p >= d - s_q with s_q finite.  Both sides depend on a pair
    of sequences only, not on d.  So with T the distinct finite deficits,
    ge_p[a][t] the codes whose p half b has slack[a][b] >= t (t in T) and
    at_q[c][t] the codes whose q half has deficit exactly t from c, row i
    is the OR over t of ge_p[p_i][t] & at_q[q_i][t].  Past the slack table
    that is O(S**2) steps to build the masks (S sequences), |T| masks per
    p half, and at most |T| ANDs per row, each over one N-bit integer (N
    codes).  |T| does not grow with the spread of the limits: on an
    ideal family every deficit is at most the longest column.
    """
    return _order_rows(codes, down=False)


def _order_rows(codes, down: bool) -> list[int]:
    """code_rows (down=False), or its transpose (down=True): bit j of row i iff codes[j] is included in codes[i].

    The down-sets read the same slack table with its orientation
    transposed: slack[b][a] instead of slack[a][b], and the tail
    difference taken the other way round.
    """
    index: dict[ExtSequence, int] = {}
    keys = [_intern(index, c)[1:] for c in codes]
    seqs = list(index)
    has_p, has_q = [0] * len(seqs), [0] * len(seqs)
    for j, (p, q) in enumerate(keys):
        has_p[p] |= 1 << j
        has_q[q] |= 1 << j
    slack = _pair_table((lambda a, b: seq_slack(b, a)) if down else seq_slack, index)
    sign = -1 if down else 1
    at_q: dict[int, dict] = {}
    for q in {q for _, q in keys}:
        at = at_q[q] = {}
        for c, s in enumerate(slack[q]):
            if has_q[c] and s >= 0:
                t = sign * (seqs[c].tail - seqs[q].tail) - s
                at[t] = at.get(t, 0) | has_q[c]
    levels = sorted({t for at in at_q.values() for t in at})

    def thresholds(a: int) -> dict[int, int]:
        # ge[t] = OR of has_p[b] over the b with slack[a][b] >= t, t in levels
        ge = [0] * (len(levels) + 1)
        for b, s in enumerate(slack[a]):
            if has_p[b] and s >= 0:
                ge[bisect_right(levels, s)] |= has_p[b]
        for k in range(len(levels), 1, -1):
            ge[k - 1] |= ge[k]
        return dict(zip(levels, ge[1:]))

    ge_p = {p: thresholds(p) for p in {p for p, _ in keys}}
    return [reduce(or_, [ge_p[p][t] & mask for t, mask in at_q[q].items()], 0) for p, q in keys]


_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def or_of_rows(rows, mask: int) -> int:
    """The OR of rows[j] over the set bits j of mask, 0 for an empty mask.

    One C-level pass: bin(mask) read from its low end becomes a byte string
    of 0/1 selectors for itertools.compress, and functools.reduce ORs what
    it selects, with no Python step per bit.
    """
    return reduce(or_, compress(rows, bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)), 0)


def cover_walk(rows, i: int) -> tuple[int, int]:
    """(picks, union) of row i: its strict edges walked nearest first, one OR per pick rather than per edge.

    The edges above i go from the lowest up, then the edges below i from
    the highest down.  Each step takes the next edge p still left as a
    pick, ORs rows[p] & ~(1 << p) into union, and clears rows[p] | 1 << p
    from what is left, so every edge of row i is a pick or lies in a
    pick's row.  On a partial order, whatever the index order, the covers
    of i are exactly picks & ~union.  A cover of i lies in no other
    pick's row, so it is picked and is not in union.  A pick p that is no
    cover lies above some cover c, so in the strict row of c; c is picked,
    and after p, since p would have been cleared otherwise, so p is in
    union.
    """
    left = rows[i] & ~(1 << i)
    above = left >> (i + 1) << (i + 1)  # the part of left above i
    picks = union = 0
    while left:
        p = (above & -above if above else left).bit_length() - 1
        taken = rows[p] | 1 << p
        picks |= 1 << p
        union |= taken ^ 1 << p
        left &= ~taken
        above &= ~taken
    return picks, union


def bit_indices(mask: int):
    """Indices of the set bits of a bitset row, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_included(inner_codes, outer_codes) -> bool:
    """Is every code on the left included in some code on the right?

    Sound as a union-inclusion test when the left members are irreducible
    codes (every union an ideal produces consists of such), because an
    irreducible system contained in a finite union is contained in one
    member.  Irreducibility itself is a documented precondition, not decided
    here.
    """
    outer = tuple(outer_codes)
    return all(any(code_included(ic, oc) for oc in outer) for ic in inner_codes)
