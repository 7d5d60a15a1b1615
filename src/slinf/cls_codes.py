"""Sequence codes for coherent local systems and their inclusion order.

A coherent local system is encoded by a pair of nonincreasing sequences over
the nonnegative integers together with +infinity, both converging to the
same finite constant m.  Such a sequence is stored exactly as the triple
(number of leading infinities, explicit head, eventual constant), so every
comparison reduces to finitely many index checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import as_int

INF = float("inf")


@dataclass(frozen=True)
class ExtSequence:
    """Nonincreasing sequence: inf_count leading infinities, a head, then the tail forever.

    Head entries must be nonincreasing and >= tail; a *normalized* sequence
    has every head entry > tail (trailing copies of the tail are absorbed).
    """

    inf_count: int
    head: tuple[int, ...]
    tail: int

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        if self.inf_count < 0:
            raise ValueError("inf_count must be >= 0")
        if self.tail < 0:
            raise ValueError("tail must be >= 0")
        for v in self.head:
            if not isinstance(v, int):
                raise ValueError(f"head entries must be integers, got {v!r}")
            if v < self.tail:
                raise ValueError(f"head entry {v} below the tail {self.tail}")
        if any(self.head[i] < self.head[i + 1] for i in range(len(self.head) - 1)):
            raise ValueError(f"head must be nonincreasing: {list(self.head)}")

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
        return cls(
            as_int(obj.get("inf", 0), "inf"),
            tuple(as_int(v, "a head entry") for v in obj.get("head", [])),
            as_int(obj["tail"], "tail"),
        )


def normalize(seq: ExtSequence) -> ExtSequence:
    """Normalization as a free function; same as seq.normalized()."""
    return seq.normalized()


@dataclass(frozen=True)
class ClsCode:
    """A pair of extended sequences sharing one eventual constant (the code's limit)."""

    p: ExtSequence
    q: ExtSequence

    def __post_init__(self):
        if self.p.tail != self.q.tail:
            raise ValueError(
                f"both halves must share their limit: {self.p.tail} != {self.q.tail}"
            )

    @property
    def limit(self) -> int:
        return self.p.tail

    @property
    def is_normalized(self) -> bool:
        return self.p.is_normalized and self.q.is_normalized

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
        return cls(ExtSequence.from_json(obj["p"]), ExtSequence.from_json(obj["q"]))


@lru_cache(maxsize=None)
def seq_leq_shifted(inner: ExtSequence, outer: ExtSequence, a: int) -> bool:
    """Pointwise inner_i <= outer_i - a at every position, with inf - a = inf.

    Anything is <= infinity; infinity is <= nothing finite.  Decided on the
    finite index range covering both explicit parts plus one tail position.
    Antitone in a: once true for a, true for every smaller shift.
    """
    if a < 0:
        raise ValueError("the shift a must be >= 0")
    n = max(inner.significant_length, outer.significant_length) + 1
    return all(inner.value_at(i) <= outer.value_at(i) - a for i in range(1, n + 1))


@lru_cache(maxsize=None)
def seq_slack(inner: ExtSequence, outer: ExtSequence) -> int | float:
    """Largest shift a with inner <= outer - a pointwise: min_i (outer_i - inner_i).

    Taken over the positions seq_leq_shifted reads.  A position where outer
    is infinite imposes no bound; one where only inner is infinite gives
    -inf ("never").  The last position compares the two finite tails, so the
    result is an integer or -inf, and seq_leq_shifted(inner, outer, a) holds
    exactly when 0 <= a <= seq_slack(inner, outer).
    """
    n = max(inner.significant_length, outer.significant_length) + 1
    return min(outer.value_at(i) - inner.value_at(i) for i in range(1, n + 1) if outer.value_at(i) != INF)


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
    if slack_p < 0:
        return False
    slack_q = seq_slack(inner.q, outer.q)
    return slack_q >= 0 and slack_p + slack_q >= d


def code_included_oracle(inner: ClsCode, outer: ClsCode) -> bool:
    """Split-search reference for code_included: the same relation, searched.

    True iff the limits satisfy m' <= m and, for some split a + b = m - m'
    with a, b >= 0, both halves compare pointwise:
    inner.p <= outer.p - a and inner.q <= outer.q - b.  The a-search runs
    over the finite range 0..(m - m').  Insensitive to normalization.
    """
    d = outer.limit - inner.limit
    if d < 0:
        return False
    return any(
        seq_leq_shifted(inner.p, outer.p, a) and seq_leq_shifted(inner.q, outer.q, d - a)
        for a in range(d + 1)
    )


def code_rows(codes) -> list[int]:
    """The code order as bitset rows: bit j of row i iff code_included(codes[i], codes[j]).

    The sequences are interned and their slacks tabulated once, so the
    relation costs one seq_slack per pair of distinct sequences plus a table
    lookup per pair of codes.
    """
    index: dict[ExtSequence, int] = {}
    keys = [(index.setdefault(c.p, len(index)), index.setdefault(c.q, len(index)), c.limit) for c in codes]
    seqs = list(index)
    slack = [[seq_slack(a, b) for b in seqs] for a in seqs]
    rows = []
    for p, q, m in keys:
        sp, sq = slack[p], slack[q]
        # the slack criterion of code_included, written out; bit j is the j-th digit from the right
        bits = "".join(
            "1" if m2 >= m and sp[p2] >= 0 and sq[q2] >= 0 and sp[p2] + sq[q2] >= m2 - m else "0"
            for p2, q2, m2 in reversed(keys)
        )
        rows.append(int(bits, 2))
    return rows


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
