"""Width-indexed families of shift classes and their coherence checks.

A local system assigns to every width n >= 2 a set of shift classes.  Here
systems are membership columns, never materialized sets (each level is
infinite); truncation lives in the test window.  A system is *precoherent*
when membership is closed downward under dominance, and *coherent* when in
addition every member extends one width up to a dominating member.

Membership is decided in closed form, one column of canonical classes of one
width at a time: the avoiding system by Gelfand-Tsetlin interlacing, the gap
union by ``_gap_union_column``, which lists lam's index pairs once per column.
A window check asks one column per level; ``LocalSystem.contains`` validates
one user partition and asks a column of one.

Dominance is the reflexive-transitive closure of one branching step, and a
child never outgrows its parent's canonical spread, so every chain from a
window member stays in the window: the window checks look one step down.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Sequence

from .dominance import _gap_column, _interlaces, dominates_interlace
from .partitions import ShiftClass, ZPartition, _iter_children, as_zpartition, canonicalize, enumerate_classes, frozen


@frozen
class LevelWindow:
    """Finite test window: widths n_min..n_max, canonical entries <= entry_bound."""

    _fields = ("n_min", "n_max", "entry_bound")

    def __init__(self, n_min: int, n_max: int, entry_bound: int):
        if not 2 <= n_min <= n_max:
            raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
        if entry_bound < 0:
            raise ValueError("entry_bound must be >= 0")
        setattr_ = object.__setattr__
        setattr_(self, "n_min", n_min)
        setattr_(self, "n_max", n_max)
        setattr_(self, "entry_bound", entry_bound)

    def widths(self) -> range:
        return range(self.n_min, self.n_max + 1)


@frozen
class LocalSystem:
    """Membership column on shift classes plus a human-readable descriptor.

    ``members(mus)`` answers, for a nonempty list of canonical classes of one
    width, whether each belongs, in order.  It reads the classes unvalidated,
    and must be shift-invariant (all systems built here are, since they only
    compare entry differences or canonical classes).
    """

    _fields = ("members", "description")

    def __init__(self, members: Callable[[list[ShiftClass]], list[bool]], description: str):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "description", description)

    def contains(self, mu: Sequence[int]) -> bool:
        """Membership of one Z-partition: validated, then asked as a column of its class."""
        return self.members([canonicalize(mu)])[0]


def avoiding_system_contains(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Membership of mu in the largest dominance-closed system avoiding lam.

    Everything of smaller width belongs; at lam's width everything except
    lam's own class; above lam's width exactly the classes that do not
    dominate lam.  That is the definition read through dominance, which is
    the class equality at equal widths and False for a narrower mu, so it is
    decided by interlacing at any width gap.  The ``pmain`` suite replays the
    same membership through the chain oracle.
    """
    return not dominates_interlace(mu, lam)


def avoiding_system(lam: Sequence[int]) -> LocalSystem:
    lam_c = canonicalize(lam)
    return LocalSystem(
        members=lambda mus: [not _interlaces(mu, lam_c) for mu in mus],
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
    1 <= k < l <= #lam, or #mu < #lam.  Needs #lam >= 2 (no pairs exist
    otherwise).  The same test as gap_system_contains over every pair, with
    mu validated once.  It asks ``_gap_union_column``, the kernel that the
    ``pmain`` suite calls on whole columns of classes it has validated, for a
    column of one.
    """
    lam = as_zpartition(lam)
    return _gap_union_column(lam, [as_zpartition(mu)])[0]


def _gap_union_column(lam: ZPartition, mus: list[ZPartition]) -> list[bool]:
    # gap_union_contains(lam, mu) for each mu of a nonempty list of validated
    # mus of one width: a pair k < l admits mu exactly where the gap
    # criterion fails on it
    if len(lam) < 2:
        raise ValueError("the gap union needs a partition of width >= 2")
    if len(mus[0]) < len(lam):
        return [True] * len(mus)
    return [not fits for fits in _gap_column(lam, mus)]


def gap_union_system(lam: Sequence[int]) -> LocalSystem:
    lam_c = canonicalize(lam)
    if len(lam_c) < 2:
        raise ValueError("the gap union needs a partition of width >= 2")
    return LocalSystem(
        members=lambda mus: _gap_union_column(lam_c, mus),
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

    def members(mus: list[ShiftClass]) -> list[bool]:
        return [all(row) for row in zip(*(_gap_union_column(lam, mus) for lam in canon))]

    return LocalSystem(
        members=members,
        description=f"coherent intersection forbidding {[list(c) for c in canon]}",
    )


def _closed_on_window(system: LocalSystem, window: LevelWindow, slack: int | None) -> bool:
    # One membership column per width.  enumerate_classes yields canonical
    # classes, so the column reads them unvalidated, as the children below are
    # read.  With a slack, the widths above n_min double as witness levels,
    # with entries up to entry_bound + slack.  Precoherence reads a member's
    # children as they are generated and stops at the first one outside the
    # level below; coherence also needs the children every member reaches, so
    # it collects them, one set per member.
    bound = window.entry_bound
    levels = {}
    for w in window.widths():
        classes = enumerate_classes(w, bound + (slack or 0) if w > window.n_min else bound)
        levels[w] = set(compress(classes, system.members(classes)))
    for w in range(window.n_min + 1, window.n_max + 1):
        below = levels[w - 1]
        if slack is None:  # every member is within the bound
            if not all(below.issuperset(_iter_children(lam)) for lam in levels[w]):
                return False
            continue
        reached = set()
        for lam in levels[w]:
            kids = set(_iter_children(lam))
            if lam[0] <= bound and not kids <= below:
                return False
            reached |= kids
        if any(mu[0] <= bound and mu not in reached for mu in below):
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
