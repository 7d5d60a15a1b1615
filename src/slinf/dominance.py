"""The dominance order on Z-partitions.

lam dominates mu when a chain of one-step branchings leads from lam down to
mu (at equal widths: equal shift classes).  Decisions use the closed form
``dominates_interlace`` (Gelfand-Tsetlin interlacing of some shift of mu
into lam).  The chain search ``dominates_oracle`` is the brute-force
reference that the ``interlace``, ``lgts2``, ``lemmas`` and ``pmain`` suites
replay the closed forms against; no default decision route runs it.

A one-step child m of lam has lam_i >= m_i >= lam_{i+1}, so its canonical
spread m[0] - m[-1] never exceeds lam's.  Spreads only shrink down a chain,
so no chain through an intermediate narrower in spread than mu can end at
mu.  The search generates each intermediate's children lazily, with the
spread of mu as a floor on their first entry, so those dead branches are
never built.  It tries the first child before starting the enumerator,
which answers most searches without one, and stops at the first child that
reaches mu.  It prunes nothing else and never consults a closed form, so a
True answer is still witnessed by an explicit chain and the suites that
replay the oracle still compare two independent routes.

The search memoizes per target: it takes a dict from intermediates to their
answers against one mu, and the caller chooses how long that dict lives.
``dominates_oracle`` keeps one per mu for the life of the process; each
suite keeps its own for one target or one run, and drops it after.

The remaining predicates test HYPOTHESES of closed-form sufficient
conditions; their conclusion (dominance) is enforced by the verify suites,
never inside the predicates, so each piece stays falsifiable on its own.

Each public predicate validates its arguments (the oracle also
canonicalizes them) and then calls a private kernel on the validated
tuples: ``_oracle_column``, ``_interlaces``, ``_gap_column``,
``_equal_ends``, ``_tight_gaps`` and ``_wide_window``.  A kernel keeps only
the checks that relate its arguments, such as the oracle's depth limit; the
oracle's kernel also takes the memo for its target.
The chain oracle and the gap criterion have one kernel each, a column: the
answers of one lam against a list of mus of one width.  The checks that read
only the widths, refusals included, run once per column, and a per-pair
caller asks for a column of one.  The verify suites validate each grid class
once and call the same kernels, so a pair costs no validation and the suites
replay the code that the public predicates run; wrappers set on the public
names see no suite pairs.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from .partitions import ShiftClass, ZPartition, _first_child, _iter_children, as_zpartition, canonicalize


# The search recurses once per width step, at one interpreter frame a step
# (_dominates, from the first-child probe or from the loop; the children
# generator is off the stack while they recurse), so it refuses width gaps
# past this: about a quarter of the default recursion limit of 1000 frames,
# which leaves the rest to its callers.
MAX_CHAIN_DEPTH = 240

# dominates_oracle's memo: target -> {intermediate: answer}, shared by every
# public query and never evicted; the suites pass memos of their own
_ORACLE_MEMOS: dict[ShiftClass, dict[ShiftClass, bool]] = {}


def _dominates(top: ShiftClass, target: ShiftClass, memo: dict[ShiftClass, bool]) -> bool:
    # Both arguments canonical, len(top) >= len(target), top[0] >= target[0].
    # memo maps the intermediates searched against this one target to their
    # answers; the caller chooses its scope, and queries that share it share
    # all intermediate results.  The answer for top is stored in it, and a
    # child found in it is read, not searched again, so a child yielded
    # twice is searched once.  A child never outgrows its parent's spread,
    # so a child narrower in spread than target has no chain down to it and
    # is never generated; every child generated satisfies the invariant.  The
    # enumerator's first child is tried before the generator starts, and it
    # is almost always in the memo already, because the suites search
    # narrower targets first; the generator yields it again as one memo hit,
    # so the order and the memoized intermediates are those of the enumerator
    # alone.  Only dead branches are cut, so a True answer is still a chain
    # found by search, and no closed form is consulted: this stays the oracle.
    if len(top) == len(target):
        answer = top == target
    else:
        floor = target[0]
        first = _first_child(top, floor)
        answer = False
        if first is not None:
            answer = memo.get(first)
            if answer is None:
                answer = _dominates(first, target, memo)
            if not answer:
                for child in _iter_children(top, floor):
                    answer = memo.get(child)
                    if answer is None:
                        answer = _dominates(child, target, memo)
                    if answer:
                        break
    memo[top] = answer
    return answer


def dominates_oracle(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Chain oracle for dominance: search one-step restrictions from lam down to mu.

    Intermediates are canonicalized at every step, which keeps the search
    space finite (entries stay bounded by lam[0] - lam[-1]); those narrower
    in spread than mu are never generated.  Shifting either argument does not
    change the answer.  A wider mu yields False.  A width gap past
    MAX_CHAIN_DEPTH raises ValueError.  Answers are memoized per mu, for
    the life of the process.
    """
    target = canonicalize(mu)
    return _oracle_column(target, [canonicalize(lam)], _ORACLE_MEMOS.setdefault(target, {}))[0]


def _oracle_column(target: ShiftClass, tops: list[ShiftClass], memo: dict[ShiftClass, bool]) -> list[bool]:
    # whether each top dominates target, for a nonempty list of canonical tops
    # of one width, with the caller's memo for target: the width checks are
    # made once, and each top gets the spread test and the memoized search in
    # order, so the memo holds the intermediates of one search per top
    gap = len(tops[0]) - len(target)
    if gap < 0:
        return [False] * len(tops)
    if gap > MAX_CHAIN_DEPTH:
        raise ValueError(
            f"the chain oracle searches width gaps up to MAX_CHAIN_DEPTH = {MAX_CHAIN_DEPTH}, "
            f"got {gap}; decide wider inputs with dominates_interlace (--method interlace)"
        )
    floor, get = target[0], memo.get
    answers = []
    for top in tops:
        answer = top[0] >= floor and get(top)
        if answer is None:
            answer = _dominates(top, target, memo)
        answers.append(answer)
    return answers


def dominates_interlace(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Closed-form dominance test: some shift of mu interlaces lam.

    True iff #lam >= #mu and there is an integer D with
    lam_i >= mu_i + D >= lam_{i + #lam - #mu} for 1 <= i <= #mu, decided as
    an interval-nonemptiness check.  Contract: agrees with dominates_oracle
    on every input of the acceptance grid; any disagreement fails the build.
    """
    return _interlaces(as_zpartition(lam), as_zpartition(mu))


def _interlaces(lam: ZPartition, mu: ZPartition) -> bool:
    # dominates_interlace on validated partitions
    gap = len(lam) - len(mu)
    if gap < 0:
        return False
    return max(map(sub, lam[gap:], mu)) <= min(map(sub, lam, mu))


def is_gt_step(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """One-step branching relation: interlacing at a width gap of exactly one (False at any other)."""
    return dominates_interlace(lam, mu) and len(lam) - len(mu) == 1


def gap_criterion(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """All-pairs gap test: mu_k - mu_{#mu - #lam + l} >= lam_k - lam_l for 1 <= k < l <= #lam.

    Defined whenever #mu >= #lam (ValueError otherwise, since the indices
    make no sense for a narrower mu).  Once #mu >= 4 * #lam this criterion
    is taken to characterize dominance of lam by mu.  That equivalence is
    checked, not cited: the ``lgts2`` suite replays it against the chain
    oracle only on its grid (lam width 2, lam bound 3, mu widths 8-9, mu
    bound 6).  Invariant under shifting either argument.
    """
    mu = as_zpartition(mu)
    return _gap_column(as_zpartition(lam), [mu])[0]


def _gap_column(lam: ZPartition, mus: list[ZPartition]) -> list[bool]:
    # gap_criterion(mu, lam) for each mu of a nonempty list of validated mus
    # of one width, with lam's index pairs and their gaps listed once
    off = len(mus[0]) - len(lam)
    if off < 0:
        raise ValueError(f"need #mu >= #lam, got {len(mus[0])} < {len(lam)}")
    pairs = [(k, off + l, lam[k] - lam[l]) for k in range(len(lam)) for l in range(k + 1, len(lam))]
    answers = []
    for mu in mus:
        for k, j, gap in pairs:
            if mu[k] - mu[j] < gap:
                answers.append(False)
                break
        else:
            answers.append(True)
    return answers


def equal_ends_hypotheses(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Hypotheses of the equal-endpoints sandwich condition (mu is the wide one).

    True iff #mu >= #lam, lam and mu share their first and last entries, and
    mu_i >= lam_i >= mu_{#mu - #lam + i} for 1 <= i <= #lam.  The tested
    conclusion -- mu dominates lam -- lives in the ``lemmas`` suite.
    """
    return _equal_ends(as_zpartition(lam), as_zpartition(mu))


def _equal_ends(lam: ZPartition, mu: ZPartition) -> bool:
    # equal_ends_hypotheses on validated partitions
    if len(mu) < len(lam):
        return False
    if lam[0] != mu[0] or lam[-1] != mu[-1]:
        return False
    off = len(mu) - len(lam)
    return all(mu[i] >= lam[i] >= mu[off + i] for i in range(len(lam)))


def tight_gaps_hypotheses(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Hypotheses of the tight-gap condition: majorized gaps with one equality.

    True iff #mu >= 2 * #lam, mu_k - mu_{#mu - #lam + l} >= lam_k - lam_l for
    every pair 1 <= k < l <= #lam, and equality holds for at least one pair.
    Conclusion (mu dominates lam) is enforced by the ``lemmas`` suite.
    """
    return _tight_gaps(as_zpartition(lam), as_zpartition(mu))


def _tight_gaps(lam: ZPartition, mu: ZPartition) -> bool:
    # tight_gaps_hypotheses on validated partitions
    if len(mu) < 2 * len(lam) or not _gap_column(lam, [mu])[0]:
        return False
    off = len(mu) - len(lam)
    n = len(lam)
    return any(mu[k] - mu[off + l] == lam[k] - lam[l] for k in range(n) for l in range(k + 1, n))


def wide_window_hypotheses(lam: Sequence[int], mu: Sequence[int], i: int) -> bool:
    """Hypotheses of the wide-middle-window condition at position i (1-indexed).

    True iff #lam <= i <= #mu - i and mu_i - mu_{#mu - i + 1} >= lam_1 - lam_#lam:
    the i-th entries from both ends of mu straddle the full spread of lam.
    Conclusion (mu dominates lam) is enforced by the ``lemmas`` suite.
    """
    lam = as_zpartition(lam)
    mu = as_zpartition(mu)
    if i < 1:
        raise ValueError("i must be a positive index")
    return _wide_window(lam, mu, i)


def _wide_window(lam: ZPartition, mu: ZPartition, i: int) -> bool:
    # wide_window_hypotheses on validated partitions with i >= 1
    if not len(lam) <= i <= len(mu) - i:
        return False
    return mu[i - 1] - mu[len(mu) - i] >= lam[0] - lam[-1]
