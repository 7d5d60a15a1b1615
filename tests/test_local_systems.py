import random

import pytest
from hypothesis import given, settings, strategies as st

from slinf import local_systems
from slinf.dominance import (
    MAX_CHAIN_DEPTH,
    dominates_interlace,
    dominates_oracle,
    equal_ends_hypotheses,
    gap_criterion,
    tight_gaps_hypotheses,
    wide_window_hypotheses,
)
from slinf.local_systems import (
    LevelWindow,
    LocalSystem,
    avoiding_system,
    avoiding_system_contains,
    forbidden_to_coherent,
    gap_system_contains,
    gap_union_contains,
    gap_union_system,
    is_coherent_on_window,
    is_precoherent_on_window,
)
from slinf.partitions import canonicalize, enumerate_classes, shift
from slinf.verify import run_suite


def test_avoiding_system_examples():
    assert avoiding_system_contains((1, 0), (2, 0)) is True
    assert avoiding_system_contains((1, 0), (1, 0)) is False
    # (1,0,0) dominates (1,0) by one branching step, so it is excluded
    assert dominates_oracle((1, 0, 0), (1, 0)) is True
    assert avoiding_system_contains((1, 0), (1, 0, 0)) is False


def test_avoiding_system_smaller_width_always_member():
    assert avoiding_system_contains((1, 0, 0), (5, 0)) is True
    assert avoiding_system_contains((1, 0, 0), (7,)) is True


def test_gap_system_examples():
    assert gap_system_contains(1, 2, 1, 2, (0,) * 8) is True
    assert gap_system_contains(1, 2, 1, 2, (1, 0, 0, 0, 0, 0, 0, 0)) is False
    assert gap_system_contains(1, 2, 0, 2, (0, 0)) is False


def test_gap_system_below_reference_width_is_full():
    assert gap_system_contains(1, 3, 2, 3, (4, 0)) is True


def test_gap_system_index_validation():
    with pytest.raises(ValueError):
        gap_system_contains(2, 2, 1, 2, (0, 0))
    with pytest.raises(ValueError):
        gap_system_contains(1, 3, 1, 2, (0, 0))


def test_gap_union_is_the_union_of_its_single_gap_systems():
    # the identity gap_union_contains' docstring states, on a grid: lam widths
    # 2-3 and mu widths #lam..#lam + 5, entries <= 4, each mu also shifted up
    # and down (negative entries too); gaps of mu equal to each v occur
    checked = 0
    for n in (2, 3):
        for lam in enumerate_classes(n, 4):
            gaps = [(k, l, lam[k - 1] - lam[l - 1]) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
            for width in range(n, n + 6):
                for mu in enumerate_classes(width, 4):
                    for d in (0, 3, -2):
                        mu_d = shift(mu, d)
                        union = any(gap_system_contains(k, l, v, n, mu_d) for k, l, v in gaps)
                        assert gap_union_contains(lam, mu_d) is union, (lam, mu_d)
                        checked += 1
    assert checked == 3 * (5 * 461 + 15 * 786)


def test_gap_union_examples():
    assert gap_union_contains((1, 0), (0,) * 8) is True
    assert gap_union_contains((1, 0), (1, 1, 1, 1, 0, 0, 0, 0)) is False
    for mu in enumerate_classes(2, 3) + enumerate_classes(5, 3):
        assert gap_union_contains((0, 0), mu) is False


def test_gap_union_needs_width_two():
    with pytest.raises(ValueError):
        gap_union_contains((3,), (1, 0))
    with pytest.raises(ValueError):
        gap_union_system((3,))


def test_precoherent_window_examples():
    window = LevelWindow(2, 5, 3)
    assert is_precoherent_on_window(avoiding_system((1, 0)), window) is True

    only_at_two = LocalSystem(
        members=lambda mus: [len(mu) == 2 and canonicalize(mu) == (1, 0) or len(mu) < 2 for mu in mus],
        description="only the class (1,0) at width 2",
    )
    assert is_precoherent_on_window(only_at_two, LevelWindow(2, 3, 2)) is True

    broken = LocalSystem(
        members=lambda mus: [len(mu) == 3 and canonicalize(mu) == (1, 0, 0) for mu in mus],
        description="(1,0,0) without its restriction (1,0)",
    )
    assert is_precoherent_on_window(broken, LevelWindow(2, 3, 2)) is False


def test_coherent_window_examples():
    # the gap union genuinely extends upward
    assert is_coherent_on_window(gap_union_system((1, 0)), LevelWindow(8, 10, 2), 1) is True
    # the avoiding system of (1,0) is not coherent near its own width: any
    # width-3 class dominating (2,0) has spread >= 2 and therefore also
    # dominates (1,0), so (2,0) has no admissible extension at any slack
    assert is_coherent_on_window(avoiding_system((1, 0)), LevelWindow(2, 3, 2), 2) is False
    empty = LocalSystem(members=lambda mus: [False] * len(mus), description="empty")
    assert is_coherent_on_window(empty, LevelWindow(2, 4, 2), 0) is True


def test_coherent_window_rejects_negative_slack():
    with pytest.raises(ValueError):
        is_coherent_on_window(gap_union_system((1, 0)), LevelWindow(2, 3, 2), -1)


def test_forbidden_examples():
    system = forbidden_to_coherent([(1, 0)])
    assert system.contains((0,) * 8) is True
    pair = forbidden_to_coherent([(1, 0), (2, 0)])
    assert pair.contains((1, 1, 1, 1, 0, 0, 0, 0)) is False
    zero_only = forbidden_to_coherent([(0, 0)])
    for mu in enumerate_classes(3, 2) + enumerate_classes(8, 2):
        assert zero_only.contains(mu) is False


def test_forbidden_validation():
    with pytest.raises(ValueError):
        forbidden_to_coherent([])
    with pytest.raises(ValueError):
        forbidden_to_coherent([(3,)])


def test_intersection_agrees_with_coherent_standin_at_quadruple_widths():
    lams = enumerate_classes(2, 3)
    sets = [[a] for a in lams] + [[a, b] for i, a in enumerate(lams) for b in lams[i + 1:]]
    mus = [c for w in (8, 9) for c in enumerate_classes(w, 6)]
    for forbidden in sets:
        system = forbidden_to_coherent(forbidden)
        for mu in mus:
            direct = all(avoiding_system_contains(lam, mu) for lam in forbidden)
            assert system.contains(mu) == direct, (forbidden, mu)


def test_precoherence_monotone_in_entry_bound():
    # enlarging the bound never flips a downward-closed system to "not closed"
    for system in (avoiding_system((2, 1, 0)), gap_union_system((2, 0))):
        verdicts = [
            is_precoherent_on_window(system, LevelWindow(2, 4, bound))
            for bound in (2, 3, 4)
        ]
        assert verdicts[0] is True
        assert verdicts == sorted(verdicts, reverse=True)  # never False -> True


def test_window_validation():
    with pytest.raises(ValueError):
        LevelWindow(1, 3, 2)
    with pytest.raises(ValueError):
        LevelWindow(4, 3, 2)
    with pytest.raises(ValueError):
        LevelWindow(2, 3, -1)


# The all-pairs chain-oracle definitions of the window checks, kept as the
# reference for the one-step closure in the library.
def precoherent_reference(system, window):
    member = {
        w: {c for c in enumerate_classes(w, window.entry_bound) if system.contains(c)}
        for w in window.widths()
    }
    for w_hi in window.widths():
        for lam in member[w_hi]:
            for w_lo in range(window.n_min, w_hi + 1):
                for mu in enumerate_classes(w_lo, window.entry_bound):
                    if mu not in member[w_lo] and dominates_oracle(lam, mu):
                        return False
    return True


def coherent_reference(system, window, search_slack):
    if not precoherent_reference(system, window):
        return False
    for w in range(window.n_min, window.n_max):
        for mu in enumerate_classes(w, window.entry_bound):
            if not system.contains(mu):
                continue
            witnesses = enumerate_classes(w + 1, window.entry_bound + search_slack)
            if not any(
                system.contains(lam) and dominates_oracle(lam, mu) for lam in witnesses
            ):
                return False
    return True


def arbitrary_system(seed):
    """A seeded shift-invariant predicate: a spread threshold per width, some classes flipped.

    Thresholds that never grow with the width give a closed system; the flips
    and unsorted thresholds give systems that are not closed.
    """
    rng = random.Random(seed)
    thresholds = [rng.randint(-1, 5) for _ in range(8)]
    if rng.random() < 0.5:
        thresholds.sort(reverse=True)
    flip = rng.choice((0.0, 0.0, 0.05, 0.3))

    def contains(mu):
        c = canonicalize(mu)
        return (c[0] <= thresholds[len(c)]) != (random.Random(hash((seed, c))).random() < flip)

    return LocalSystem(members=lambda mus: [contains(mu) for mu in mus], description=f"arbitrary system {seed}")


small_lams = st.sampled_from(enumerate_classes(2, 3) + enumerate_classes(3, 2))
systems = st.one_of(
    small_lams.map(avoiding_system),
    small_lams.map(gap_union_system),
    st.lists(small_lams, min_size=1, max_size=2).map(forbidden_to_coherent),
    st.integers(0, 2**32).map(arbitrary_system),
)


def built_in_systems():
    """(system, public predicate) for every built-in system over the lams of widths 2-3 at bound 3:
    each avoiding system, each gap union, and forbidden systems of one and of two lams."""
    lams = enumerate_classes(2, 3) + enumerate_classes(3, 3)
    cases = []
    for lam in lams:
        cases.append((avoiding_system(lam), lambda mu, lam=lam: avoiding_system_contains(lam, mu)))
        cases.append((gap_union_system(lam), lambda mu, lam=lam: gap_union_contains(lam, mu)))
    for forbidden in [[lam] for lam in lams] + [[a, b] for a, b in zip(lams, lams[1:])] + [[lams[0], lams[-1]]]:
        cases.append((
            forbidden_to_coherent(forbidden),
            lambda mu, forbidden=forbidden: all(gap_union_contains(lam, mu) for lam in forbidden),
        ))
    return cases


def test_members_column_matches_contains_and_the_public_predicates():
    levels = [enumerate_classes(w, 4) for w in range(2, 10)]
    answers = set()
    for system, predicate in built_in_systems():
        for classes in levels:
            column = system.members(classes)
            assert column == [system.contains(c) for c in classes], system.description
            assert column == [predicate(c) for c in classes], system.description
            # contains reads a shifted representative as its class
            assert column == [system.contains(tuple(v + 3 for v in c)) for c in classes], system.description
            answers.update(column)
    assert answers == {True, False}


def test_window_checks_ask_one_column_per_level(monkeypatch):
    def refuse(self, mu):
        raise AssertionError("a window check asked contains")

    monkeypatch.setattr(LocalSystem, "contains", refuse)
    windows = ((LevelWindow(2, 5, 3), None), (LevelWindow(3, 6, 2), 1), (LevelWindow(8, 9, 2), 0))
    for system, _ in built_in_systems():
        for window, slack in windows:
            widths = []

            def members(mus, _members=system.members):
                assert mus and len({len(mu) for mu in mus}) == 1
                widths.append(len(mus[0]))
                return _members(mus)

            counted = LocalSystem(members=members, description=system.description)
            if slack is None:
                is_precoherent_on_window(counted, window)
            else:
                is_coherent_on_window(counted, window, slack)
            assert widths == list(window.widths()), (system.description, window)


def test_window_checks_stop_at_the_first_member_outside(monkeypatch):
    # no class of width 2 belongs and every class of width 3 does, so the first member read fails
    calls = []
    real = local_systems._iter_children

    def counted(lam, *args):
        calls.append(lam)
        return real(lam, *args)

    monkeypatch.setattr(local_systems, "_iter_children", counted)
    system = LocalSystem(members=lambda mus: [len(mu) > 2 for mu in mus], description="widths >= 3")
    window = LevelWindow(2, 3, 6)
    assert len(enumerate_classes(3, 6)) == 28
    assert not is_precoherent_on_window(system, window)
    assert len(calls) == 1
    calls.clear()
    assert not is_coherent_on_window(system, window, 0)
    assert len(calls) == 1


def test_window_checks_match_all_pairs_reference():
    verdicts = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(systems, st.integers(2, 6), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
    def check(system, n_min, extra, bound, slack):
        window = LevelWindow(n_min, min(n_min + extra, 6), bound)
        pre = is_precoherent_on_window(system, window)
        co = is_coherent_on_window(system, window, slack)
        assert pre == precoherent_reference(system, window), (system.description, window)
        assert co == coherent_reference(system, window, slack), (system.description, window, slack)
        verdicts.update({("pre", pre), ("co", co)})

    check()
    # both answers of both checks occur, so the agreement is not vacuous
    assert verdicts == {("pre", True), ("pre", False), ("co", True), ("co", False)}


def test_membership_keeps_validating_each_argument():
    bad_inputs = {
        (): "a Z-partition must have width >= 1",
        (2, 1.5, 0): "a Z-partition entry must be an integer, got 1.5",
        (True, 0): "a Z-partition entry must be an integer, got True",
        (2, "1", True): "a Z-partition entry must be an integer, got '1'",
        (0, 1): "Z-partition entries must be nonincreasing: [0, 1]",
    }
    good = (2, 1, 0)

    def wide_window_at_1(lam, mu):
        return wide_window_hypotheses(lam, mu, 1)

    for decide in (
        avoiding_system_contains, gap_union_contains, dominates_oracle, dominates_interlace, gap_criterion,
        equal_ends_hypotheses, tight_gaps_hypotheses, wide_window_at_1,
    ):
        for bad, message in bad_inputs.items():
            for args in ((bad, good), (good, bad)):
                with pytest.raises(ValueError) as info:
                    decide(*args)
                assert str(info.value) == message, (decide.__name__, args)


def test_pair_preconditions_refuse_through_entry_points_and_suites():
    # these checks relate the two arguments, so the kernels keep them and the
    # suites, which call the kernels on classes they validated, refuse the same way
    width_message = "the gap union needs a partition of width >= 2"

    def depth_message(gap):
        return (f"the chain oracle searches width gaps up to MAX_CHAIN_DEPTH = {MAX_CHAIN_DEPTH}, got {gap}; "
                "decide wider inputs with dominates_interlace (--method interlace)")

    for call, message in (
        (lambda: gap_criterion((1, 0), (2, 1, 0)), "need #mu >= #lam, got 2 < 3"),
        (lambda: gap_union_contains((1,), (1, 0)), width_message),
        (lambda: run_suite("lgts2", {"lam_width": 3, "mu_widths": [2]}), "need #mu >= #lam, got 2 < 3"),
        (lambda: run_suite("pmain", {"lam_width": 1}), width_message),
        # the first pair's chain search is refused before a later pair's narrow mu
        (lambda: run_suite("lgts2", {"lam_width": 3, "lam_bound": 1, "mu_widths": [300, 2], "mu_bound": 1}),
         depth_message(297)),
        # at one pair the avoiding system's chain search comes before the gap union
        (lambda: run_suite("pmain", {"lam_width": 1, "mu_widths": [300], "mu_bound": 1}), depth_message(299)),
        (lambda: run_suite("pmain", {"lam_width": 1, "mu_widths": [2, 300], "mu_bound": 1}), width_message),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    # the gap union admits every narrower mu, so pmain answers where lgts2 refuses
    report = run_suite("pmain", {"lam_width": 3, "lam_bound": 1, "mu_widths": [2, 8], "mu_bound": 1})
    assert (report.checked, report.failed) == (30, 0)
    with pytest.raises(ValueError, match="i must be a positive index"):
        wide_window_hypotheses((1, 0), (2, 1, 0), 0)
