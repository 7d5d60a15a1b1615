"""Width-indexed families of shift classes and their coherence checks.

A local system assigns to every width n >= 2 a set of shift classes.  Here
systems are membership predicates, never materialized sets (each level is
infinite); truncation lives in the test window.  A system is *precoherent*
when membership is closed downward under dominance, and *coherent* when in
addition every member extends one width up to a dominating member.

Dominance is the reflexive-transitive closure of one branching step, and a
child never outgrows its parent's canonical spread, so every chain from a
window member stays in the window: the window checks look one step down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .dominance import dominates_oracle
from .partitions import ShiftClass, _children, as_zpartition, canonicalize, enumerate_classes


@dataclass(frozen=True)
class LevelWindow:
    """Finite test window: widths n_min..n_max, canonical entries <= entry_bound."""

    n_min: int
    n_max: int
    entry_bound: int

    def __post_init__(self):
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError(f"need 2 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.entry_bound < 0:
            raise ValueError("entry_bound must be >= 0")

    def widths(self) -> range:
        return range(self.n_min, self.n_max + 1)


@dataclass(frozen=True)
class LocalSystem:
    """Membership predicate on Z-partitions plus a human-readable descriptor.

    The predicate must be shift-invariant (all systems built here are, since
    they only compare entry differences or canonical classes).
    """

    contains: Callable[[Sequence[int]], bool]
    description: str


def avoiding_system_contains(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Membership of mu in the largest dominance-closed system avoiding lam.

    Everything of smaller width belongs; at lam's width everything except
    lam's own class; above lam's width exactly the classes that do not
    dominate lam.
    """
    lam = as_zpartition(lam)
    mu = as_zpartition(mu)
    if len(mu) < len(lam):
        return True
    if len(mu) == len(lam):
        return canonicalize(mu) != canonicalize(lam)
    return not dominates_oracle(mu, lam)


def avoiding_system(lam: Sequence[int]) -> LocalSystem:
    lam_c = canonicalize(lam)
    return LocalSystem(
        contains=lambda mu: avoiding_system_contains(lam_c, mu),
        description=f"largest dominance-closed system avoiding {list(lam_c)}",
    )


def gap_system_contains(k: int, l: int, v: int, width: int, mu: Sequence[int]) -> bool:
    """Membership in the single-gap system: mu_k - mu_{#mu - width + l} < v.

    Indices are 1-based with 1 <= k < l <= width (ValueError otherwise).
    Below the reference width every class belongs: the gap indices are
    undefined there, and only large widths matter for system equivalence.
    """
    if not 1 <= k < l <= width:
        raise ValueError(f"need 1 <= k < l <= width, got k={k}, l={l}, width={width}")
    mu = as_zpartition(mu)
    if len(mu) < width:
        return True
    return mu[k - 1] - mu[len(mu) - width + l - 1] < v


def gap_union_contains(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Membership in the union of gap systems over all index pairs of lam.

    mu belongs iff mu_k - mu_{#mu - #lam + l} < lam_k - lam_l for some pair
    1 <= k < l <= #lam.  Needs #lam >= 2 (no pairs exist otherwise).
    """
    lam = as_zpartition(lam)
    if len(lam) < 2:
        raise ValueError("the gap union needs a partition of width >= 2")
    mu = as_zpartition(mu)
    n = len(lam)
    return any(
        gap_system_contains(k, l, lam[k - 1] - lam[l - 1], n, mu)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def gap_union_system(lam: Sequence[int]) -> LocalSystem:
    lam_c = canonicalize(lam)
    if len(lam_c) < 2:
        raise ValueError("the gap union needs a partition of width >= 2")
    return LocalSystem(
        contains=lambda mu: gap_union_contains(lam_c, mu),
        description=f"union of gap systems of {list(lam_c)}",
    )


def forbidden_to_coherent(lams: Iterable[Sequence[int]]) -> LocalSystem:
    """The coherent stand-in for the intersection of the avoiding systems.

    Given a nonempty set of forbidden partitions (each of width >= 2),
    returns the intersection of their gap unions.  At widths at least four
    times the largest forbidden width this agrees pointwise with the
    intersection of the avoiding systems; the agreement is a tested
    property, not an assumption.
    """
    canon = sorted({canonicalize(lam) for lam in lams})
    if not canon:
        raise ValueError("need at least one forbidden partition")
    if any(len(lam) < 2 for lam in canon):
        raise ValueError("every forbidden partition must have width >= 2")
    return LocalSystem(
        contains=lambda mu: all(gap_union_contains(lam, mu) for lam in canon),
        description=f"coherent intersection forbidding {[list(c) for c in canon]}",
    )


def _closed_on_window(system: LocalSystem, window: LevelWindow, slack: int | None) -> bool:
    # One membership test per class and width.  With a slack, the widths above
    # n_min double as witness levels, with entries up to entry_bound + slack.
    bound = window.entry_bound
    levels = {
        w: set(filter(system.contains, enumerate_classes(w, bound + (slack or 0) if w > window.n_min else bound)))
        for w in window.widths()
    }
    for w in range(window.n_min + 1, window.n_max + 1):
        children = {lam: _children(lam) for lam in levels[w]}
        if any(lam[0] <= bound and not kids <= levels[w - 1] for lam, kids in children.items()):
            return False
        if slack is None:
            continue
        reached = set().union(*children.values())
        if any(mu[0] <= bound and mu not in reached for mu in levels[w - 1]):
            return False
    return True


def is_precoherent_on_window(system: LocalSystem, window: LevelWindow) -> bool:
    """Downward closure under dominance inside the window: members' children are members."""
    return _closed_on_window(system, window, None)


def is_coherent_on_window(system: LocalSystem, window: LevelWindow, search_slack: int) -> bool:
    """Precoherence plus one-width-up extension witnesses inside the window.

    A member at width w < n_max has a witness iff it is a child of a member at
    width w + 1 with entries up to entry_bound + search_slack.  A False verdict
    is definitive only for the given slack: the bounded search makes
    incompleteness explicit instead of silent.
    """
    if search_slack < 0:
        raise ValueError("search_slack must be >= 0")
    return _closed_on_window(system, window, search_slack)
