import importlib
import inspect
import pkgutil
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import slinf
from slinf import dominance, partitions
from slinf.cli import main
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
    _gap_union_column,
    avoiding_system_contains,
    forbidden_to_coherent,
    gap_union_contains,
    gap_union_system,
)
from slinf.partitions import _iter_children, canonicalize, enumerate_classes, gt_children, shift
from slinf.verify import _SUITES, _agreement_suite, _avoiding_column, load_grid_config, run_suite

small_partitions = st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def all_classes(max_width, bound, min_width=1):
    return [c for w in range(min_width, max_width + 1) for c in enumerate_classes(w, bound)]


def cold_oracle_table():
    # the public oracle's per-target memos, emptied as a fresh process has them
    dominance._ORACLE_MEMOS.clear()
    return dominance._ORACLE_MEMOS


def memo_entries(table):
    # the (target, intermediate) pairs a table of per-target memos holds
    return sum(map(len, table.values()))


def slinf_modules():
    # the package and every module in it that can be imported without running
    return [slinf] + [
        importlib.import_module(f"slinf.{info.name}")
        for info in pkgutil.iter_modules(slinf.__path__)
        if info.name != "__main__"
    ]


def patch_everywhere(monkeypatch, original, replacement):
    # bind replacement at every slinf module that binds original
    for module in slinf_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def test_oracle_examples():
    assert dominates_oracle((1, 0), (0,)) is True
    assert dominates_oracle((2, 0), (2, 0)) is True
    assert dominates_oracle((1, 0), (2, 0)) is False


def test_oracle_rejects_wider_target():
    assert dominates_oracle((1, 0), (1, 0, 0)) is False


@given(small_partitions, small_partitions, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)  # first oracle call per class warms a shared memo
def test_oracle_shift_invariant(lam, mu, d1, d2):
    assert dominates_oracle(lam, mu) == dominates_oracle(shift(lam, d1), shift(mu, d2))


def test_interlace_examples():
    assert dominates_interlace((1, 1, 1, 1, 0, 0, 0, 0), (1, 0)) is True
    # cross-check of the same example against the chain oracle
    assert dominates_oracle((1, 1, 1, 1, 0, 0, 0, 0), (1, 0)) is True
    assert dominates_interlace((0, 0, 0), (1, 0)) is False
    assert dominates_interlace((3, 1, 0), (3, 1, 0)) is True


def test_interlace_equal_width_is_class_equality():
    for lam in enumerate_classes(3, 3):
        for mu in enumerate_classes(3, 3):
            assert dominates_interlace(lam, mu) == (canonicalize(lam) == canonicalize(mu))


def test_interlace_matches_oracle_small_grid():
    # quick module-level slice; the full acceptance grid runs in the
    # interlace verify suite
    classes = all_classes(4, 3)
    for lam in classes:
        for mu in classes:
            if len(mu) <= len(lam):
                assert dominates_interlace(lam, mu) == dominates_oracle(lam, mu), (lam, mu)


def test_dominance_partial_order_laws():
    classes = all_classes(4, 3)
    for a in classes:
        assert dominates_oracle(a, a)
    for a in classes:
        for b in classes:
            if len(a) == len(b) and dominates_oracle(a, b):
                assert a == b
    # transitivity across widths
    for a in classes:
        bs = [b for b in classes if dominates_oracle(a, b)]
        for b in bs:
            for c in classes:
                if dominates_oracle(b, c):
                    assert dominates_oracle(a, c), (a, b, c)


def test_gap_criterion_examples():
    assert gap_criterion((1, 1, 1, 1, 0, 0, 0, 0), (1, 0)) is True
    assert gap_criterion((0, 0, 0, 0, 0, 0, 0, 0), (1, 0)) is False
    assert gap_criterion((2, 0, 0, 0, 0, 0, 0, 0), (1, 0)) is True


def test_gap_criterion_rejects_narrow_mu():
    with pytest.raises(ValueError):
        gap_criterion((1, 0), (1, 0, 0))


@given(small_partitions, small_partitions, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_gap_criterion_shift_invariant(mu, lam, d1, d2):
    if len(mu) < len(lam):
        mu, lam = lam, mu
    if len(mu) < len(lam):
        return
    assert gap_criterion(mu, lam) == gap_criterion(shift(mu, d1), shift(lam, d2))


def test_necessity_direction_in_quadruple_width_regime():
    # dominance implies the gap criterion; asserted where the closed form is
    # claimed, reported (not asserted) on the wider range below
    lams = all_classes(2, 3)
    for lam in lams:
        for w in range(4 * len(lam), 4 * len(lam) + 2):
            for mu in enumerate_classes(w, 3):
                if dominates_oracle(mu, lam):
                    assert gap_criterion(mu, lam), (mu, lam)


def test_necessity_direction_wider_range_report(capsys):
    # informational only: agreement of "dominance => gap criterion" whenever
    # #mu >= #lam, outside the guaranteed regime
    agree = disagree = 0
    for lam in all_classes(3, 3):
        for mu in all_classes(6, 3):
            if len(mu) < len(lam) or not dominates_oracle(mu, lam):
                continue
            if gap_criterion(mu, lam):
                agree += 1
            else:
                disagree += 1
    print(f"necessity direction on #mu >= #lam: holds {agree}, fails {disagree}")
    assert agree > 0  # the sweep itself must not be vacuous


def test_equal_ends_examples():
    assert equal_ends_hypotheses((1, 0), (1, 1, 0, 0)) is True
    assert equal_ends_hypotheses((1, 0), (2, 0)) is False
    assert equal_ends_hypotheses((0, 0), (0, 0, 0)) is True


def test_tight_gaps_examples():
    assert tight_gaps_hypotheses((1, 0), (1, 1, 0, 0)) is True
    assert tight_gaps_hypotheses((1, 0), (3, 0, 0, 0)) is False
    assert tight_gaps_hypotheses((0, 0), (0, 0, 0, 0)) is True


def test_wide_window_examples():
    assert wide_window_hypotheses((1, 0), (1, 1, 0, 0), 2) is True
    assert wide_window_hypotheses((2, 0), (1, 1, 0, 0), 2) is False
    assert wide_window_hypotheses((0,), (0, 0), 1) is True


def test_wide_window_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        wide_window_hypotheses((1, 0), (1, 1, 0, 0), 0)


def test_equal_ends_implies_dominance_wide_lambda_grid():
    # wider lambda range than the acceptance grid: every width up to 6
    mus = all_classes(6, 3)
    lams = all_classes(6, 3)
    fired = 0
    for lam in lams:
        for mu in mus:
            if equal_ends_hypotheses(lam, mu):
                fired += 1
                assert dominates_oracle(mu, lam), (lam, mu)
    assert fired > 0


@cache
def _dominates_unpruned(top, target):
    # the chain search before spread pruning, over whole child sets, as the reference
    if len(top) == len(target):
        return top == target
    return any(_dominates_unpruned(child, target) for child in gt_children(top))


def _dominates_by_enumerator(top, target, memo):
    # the pruned search with no first-child probe: the enumerator alone, in
    # its order, as the reference for the memo the probe leaves behind
    if top not in memo:
        if len(top) == len(target):
            memo[top] = top == target
        else:
            memo[top] = any(_dominates_by_enumerator(child, target, memo) for child in _iter_children(top, target[0]))
    return memo[top]


def dominates_reference(lam, mu):
    top, target = canonicalize(lam), canonicalize(mu)
    return len(top) >= len(target) and _dominates_unpruned(top, target)


def avoiding_reference(lam, mu):
    if len(mu) < len(lam):
        return True
    if len(mu) == len(lam):
        return canonicalize(mu) != canonicalize(lam)
    return not dominates_reference(mu, lam)


def pruned_search_space(top, target):
    """Every class the pruned search may memoize: reachable from top through spreads >= target's."""
    if len(top) < len(target) or top[0] < target[0]:
        return set()
    seen, todo = {top}, [top]
    while todo:
        lam = todo.pop()
        if len(lam) > len(target):
            fresh = {c for c in gt_children(lam) if c[0] >= target[0]} - seen
            seen |= fresh
            todo.extend(fresh)
    return seen


def shifted_partition(width):
    return st.tuples(
        st.lists(st.integers(0, 6), min_size=width, max_size=width), st.integers(-5, 5)
    ).map(lambda t: tuple(sorted((v + t[1] for v in t[0]), reverse=True)))


@st.composite
def wide_pairs(draw):
    # past the frozen interlace grid (widths <= 5, entries <= 4), in any shift;
    # width gaps of at most 3 keep false answers common
    width = draw(st.integers(1, 8))
    narrower = min(8, max(1, width - draw(st.integers(-1, 3))))
    return draw(shifted_partition(width)), draw(shifted_partition(narrower))


@given(wide_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pruned_oracle_matches_unpruned_search(pair):
    lam, mu = pair
    table = cold_oracle_table()
    assert dominates_oracle(lam, mu) == dominates_reference(lam, mu), (lam, mu)
    # the pruning is taken: no class of smaller spread than mu is searched,
    # and a root of smaller spread answers before the search starts
    space = pruned_search_space(canonicalize(lam), canonicalize(mu))
    assert memo_entries(table) <= len(space), (lam, mu)
    assert avoiding_system_contains(lam, mu) == avoiding_reference(lam, mu), (lam, mu)
    assert avoiding_system_contains(mu, lam) == avoiding_reference(mu, lam), (lam, mu)


def test_oracle_decides_by_chain_search_alone(monkeypatch):
    # the suites replay the closed forms against the oracle, so it must not consult them
    def forbidden(*args):
        raise AssertionError("the chain oracle consulted a closed form")

    closed_forms = (
        "dominates_interlace", "gap_criterion",
        "_interlaces", "_gap_column", "_equal_ends", "_tight_gaps", "_wide_window",
    )
    for name in closed_forms:
        monkeypatch.setattr(dominance, name, forbidden)
    monkeypatch.setattr("slinf.dominance.is_gt_step", forbidden)
    cold_oracle_table()
    classes = all_classes(5, 3)
    for lam in classes:
        for mu in classes:
            assert dominates_oracle(lam, mu) == dominates_reference(lam, mu), (lam, mu)
    # the oracle column, by which the agreement suites ask, searches the same way
    for target in classes:
        memo = {}
        for width in range(1, 6):
            tops = enumerate_classes(width, 3)
            assert dominance._oracle_column(target, tops, memo) == [dominates_reference(top, target) for top in tops]


def answers_or_refusal(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def test_columns_equal_their_per_pair_kernels():
    # every lam against the mus of each width, narrower ones and refusals
    # included: a whole column answers, and refuses, as its columns of one do
    # in pair order, and as the public predicates do pair by pair; the whole
    # columns and the columns of one keep memos apart, one per target lam
    classes = {w: enumerate_classes(w, 4) for w in range(1, 7)}
    column_memos, pair_memos = {}, {}

    def memos(lam):
        return column_memos.setdefault(lam, {}), pair_memos.setdefault(lam, {})

    columns = (
        (dominance._oracle_column, lambda lam, mu: dominates_oracle(mu, lam)),
        (_avoiding_column, lambda lam, mu: not dominates_oracle(mu, lam)),
        (lambda lam, mus, memo: dominance._gap_column(lam, mus), lambda lam, mu: gap_criterion(mu, lam)),
        (lambda lam, mus, memo: _gap_union_column(lam, mus), gap_union_contains),
    )

    def agree(column, predicate, lam, mus):
        whole = answers_or_refusal(lambda: column(lam, mus, memos(lam)[0]))
        ones = answers_or_refusal(lambda: [column(lam, [mu], memos(lam)[1])[0] for mu in mus])
        public = answers_or_refusal(lambda: [predicate(lam, mu) for mu in mus])
        assert whole == ones == public, (column, lam, len(mus))
        return whole

    cold_oracle_table()
    for lam in all_classes(6, 4):
        for mus in classes.values():
            for column, predicate in columns:
                agree(column, predicate, lam, mus)
    # the oracle's depth refusal, and a narrower top answered past it
    deep = enumerate_classes(MAX_CHAIN_DEPTH + 3, 1)
    for column, predicate in columns[:2]:
        assert "MAX_CHAIN_DEPTH" in agree(column, predicate, (1, 0), deep)
        agree(column, predicate, deep[0], [(1, 0), (0, 0)])


def test_routes_and_suites_share_one_kernel(monkeypatch, capsys):
    # every per-pair route asks its criterion's column kernel for a column of
    # one and answers what the kernel answers, and the suites call the same
    # kernels on whole columns
    calls = []
    for kernel in (dominance._gap_column, dominance._oracle_column, _gap_union_column):

        def recorder(*args, _kernel=kernel):
            answers = _kernel(*args)
            calls.append((_kernel.__name__, len(args[1]), answers))
            return answers

        patch_everywhere(monkeypatch, kernel, recorder)

    def reached(kernel, route):
        calls.clear()
        answer = route()
        ones = [answers[0] for name, size, answers in calls if name == kernel and size == 1]
        assert ones, (kernel, route)
        return answer, ones

    def cli(*argv):
        code = main(list(argv))
        capsys.readouterr()
        assert code in (0, 1), argv
        return code == 0

    cold_oracle_table()
    routes = (
        ("_gap_column", lambda: gap_criterion((1, 1, 1, 1, 0, 0, 0, 0), (1, 0))),
        ("_gap_column", lambda: gap_criterion((2, 1, 0, 0, 0, 0, 0, 0), (2, 0))),
        ("_gap_column", lambda: tight_gaps_hypotheses((1, 0), (1, 1, 0, 0))),
        ("_gap_column", lambda: cli("dominates", "[1,1,1,1,0,0,0,0]", "[1,0]", "--method", "criterion4x")),
        ("_gap_column", lambda: cli("dominates", "[2,1,0,0,0,0,0,0]", "[2,0]", "--method", "criterion4x")),
        ("_gap_union_column", lambda: gap_union_contains((1, 0), (0, 0, 0, 0))),
        ("_gap_union_column", lambda: gap_union_contains((1, 0), (1, 1, 0, 0))),
        ("_gap_union_column", lambda: gap_union_system((2, 1, 0)).contains((2, 2, 1, 0, 0))),
        ("_gap_union_column", lambda: gap_union_system((2, 1, 0)).contains((3, 2, 1, 1, 0))),
        ("_gap_union_column", lambda: cli("qlambda", "[1,0]", "[0,0,0,0,0,0,0,0]")),
        ("_gap_union_column", lambda: cli("qlambda", "[1,0]", "[1,1,1,1,0,0,0,0]")),
        ("_oracle_column", lambda: dominates_oracle((2, 1, 0), (1, 0))),
        ("_oracle_column", lambda: dominates_oracle((2, 2, 0), (2, 1))),
        ("_oracle_column", lambda: cli("dominates", "[3,1,0]", "[2,0]", "--method", "oracle")),
    )
    answers = set()
    for kernel, route in routes:
        answer, ones = reached(kernel, route)
        assert ones == [answer], (kernel, route)
        answers.add(answer)
    assert tight_gaps_hypotheses((1, 0), (1, 1, 0, 0)) and answers == {True, False}
    # the intersection asks one column of one per forbidden partition
    for mu in ((1, 1, 0, 0, 0, 0, 0, 0), (2, 1, 1, 1, 0, 0, 0, 0), (1, 0)):
        contains = forbidden_to_coherent([(1, 0), (2, 1, 0)]).contains
        answer, ones = reached("_gap_union_column", lambda: contains(mu))
        assert answer == all(ones), mu
    # (lgts2 holds the oracle column itself, bound when _SUITES is built)
    for suite, kernels in (
        ("lgts2", {"_gap_column"}),
        ("pmain", {"_gap_union_column", "_gap_column", "_oracle_column"}),
        ("interlace", {"_oracle_column"}),
        ("lemmas", {"_gap_column", "_oracle_column"}),
    ):
        calls.clear()
        assert run_suite(suite).failed == 0
        assert {name for name, size, answers in calls} == kernels, suite
        if suite in ("lgts2", "pmain"):
            assert max(size for name, size, answers in calls) > 1, suite


def test_a_fault_in_the_gap_kernel_reaches_the_routes_and_the_suite(monkeypatch):
    # the gap criterion's one loop with < made <=: the public predicate and
    # the lgts2 suite both change
    source = inspect.getsource(dominance._gap_column)
    assert source.count("] < gap:") == 1
    namespace = dict(vars(dominance))
    exec(source.replace("] < gap:", "] <= gap:"), namespace)
    mu, lam = (1, 1, 1, 1, 0, 0, 0, 0), (1, 0)
    before = gap_criterion(mu, lam), run_suite("lgts2").failed
    patch_everywhere(monkeypatch, dominance._gap_column, namespace["_gap_column"])
    after = gap_criterion(mu, lam), run_suite("lgts2").failed
    assert before == (True, 0)
    assert after[0] is False and after[1] > 0


def test_cold_suites_search_once_per_memo_entry(monkeypatch):
    # the memos a suite passes to the search hold, summed, one
    # (target, intermediate) entry per search, and the search runs once per
    # entry; the entries are the intermediates wider than their target, since
    # the last width step tests membership in the children without a search
    real = dominance._dominates
    passed = {}
    searches = 0

    def recording(top, target, memo):
        nonlocal searches
        searches += 1
        passed[id(memo)] = memo
        return real(top, target, memo)

    monkeypatch.setattr(dominance, "_dominates", recording)
    for suite, pairs in (("pmain", 41_894), ("lgts2", 21_940), ("interlace", 3_525), ("lemmas", 479)):
        passed.clear()
        searches = 0
        assert run_suite(suite).failed == 0
        assert sum(map(len, passed.values())) == searches == pairs, suite


def per_pair_report(grid, first, first_fn, second, second_fn):
    # an agreement suite as a plain loop over its pairs: (failed, stored counterexamples)
    lams = enumerate_classes(grid["lam_width"], grid["lam_bound"])
    mus = [mu for w in grid["mu_widths"] for mu in enumerate_classes(w, grid["mu_bound"])]
    bad = []
    for lam in lams:
        for mu in mus:
            a, b = first_fn(lam, mu), second_fn(lam, mu)
            if a != b:
                bad.append({"lam": list(lam), "mu": list(mu), first: a, second: b})
    return len(bad), bad[:50]


@pytest.mark.parametrize("overrides", [{}, {"lam_bound": 2, "mu_widths": [4, 3], "mu_bound": 3}])
def test_agreement_suites_report_counterexamples_in_pair_order(monkeypatch, overrides):
    # a closed-form column flipped on every mu with mu[1] == 3 must fail the
    # suite on exactly those pairs, stored in pair order
    def flipped(mu):
        return len(mu) > 1 and mu[1] == 3

    def flip_column(column):
        # a closed-form column, which takes no memo, in the agreement suites' signature
        return lambda lam, mus, memo: [answer != flipped(mu) for answer, mu in zip(column(lam, mus), mus)]

    def flip_pair(fn):
        return lambda lam, mu: fn(lam, mu) != flipped(mu)

    cases = (
        ("lgts2", "gap_criterion", flip_column(dominance._gap_column), flip_pair(lambda lam, mu: gap_criterion(mu, lam)),
         "chain_oracle", dominance._oracle_column, lambda lam, mu: dominates_oracle(mu, lam)),
        ("pmain", "avoiding_system", _avoiding_column, lambda lam, mu: not dominates_oracle(mu, lam),
         "gap_union", flip_column(_gap_union_column), flip_pair(gap_union_contains)),
    )
    for suite, first, first_column, first_fn, second, second_column, second_fn in cases:
        monkeypatch.setitem(_SUITES, suite, _agreement_suite(suite, first, first_column, second, second_column))
        report = run_suite(suite, overrides)
        grid = {**load_grid_config()["suites"][suite], **overrides}
        failed, stored = per_pair_report(grid, first, first_fn, second, second_fn)
        assert failed > 0 and (report.failed, report.counterexamples) == (failed, stored), suite
        assert report.details.get("counterexamples_truncated", False) == (failed > 50), suite


def test_oracle_never_materializes_a_child_set(monkeypatch):
    # the oracle takes children one at a time from the enumerator, above its
    # spread floor, and builds no whole child set
    classes = all_classes(5, 3)
    expected = {(lam, mu): dominates_reference(lam, mu) for lam in classes for mu in classes}

    def forbidden(*args):
        raise AssertionError("a whole child set was built")

    for module in slinf_modules():
        if getattr(module, "gt_children", None) is gt_children:
            monkeypatch.setattr(module, "gt_children", forbidden)
    cold_oracle_table()
    for (lam, mu), answer in expected.items():
        assert dominates_oracle(lam, mu) == answer, (lam, mu)
    report = run_suite("pmain")
    assert report.checked > 0 and report.failed == 0


def test_oracle_memory_stays_flat_in_the_spread():
    # (10**6, 0, 0) has 10**6 + 1 children, and the only one its floor lets
    # through is the target
    cold_oracle_table()
    tracemalloc.start()
    try:
        assert dominates_oracle((10**6, 0, 0), (10**6, 0)) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_first_child_probe_keeps_the_search_space():
    # probing the first child before starting the enumerator changes neither
    # the answer nor the intermediates, and their answers, a cold search
    # memoizes; the reference memoizes every class it visits, while the
    # oracle scans the last width step's children for mu without memoizing
    # them, so only the reference's classes wider than mu are compared
    # (the gap-1 pairs here also pin that scan against the reference)
    classes = all_classes(6, 4)
    for lam in classes:
        for mu in classes:
            if len(lam) < len(mu) or lam[0] < mu[0]:
                continue  # _oracle_column answers these before any search
            table = cold_oracle_table()
            reference = {}
            answer = dominates_oracle(lam, mu)
            assert answer == _dominates_by_enumerator(lam, mu, reference), (lam, mu)
            wider = {top: known for top, known in reference.items() if len(top) > len(mu)}
            assert table == ({mu: wider} if wider else {}), (lam, mu)


def test_pairs_answered_without_a_search_leave_no_memo():
    # a wider mu, an equal-width pair, a lam narrower in spread than mu and a
    # refused width gap are answered before any search, and a per-target memo
    # kept for them would stay empty for the life of the process
    table = cold_oracle_table()
    assert dominates_oracle((2, 0), (2, 1, 0)) is False
    assert dominates_oracle((3, 1, 0), (3, 1, 0)) is True
    assert dominates_oracle((3, 2, 0), (3, 1, 0)) is False
    assert dominates_oracle((1, 1, 0), (2, 0)) is False
    with pytest.raises(ValueError, match="MAX_CHAIN_DEPTH"):
        dominates_oracle((1,) + (0,) * (MAX_CHAIN_DEPTH + 2), (1, 0))
    assert table == {}
    assert dominates_oracle((3, 1, 0), (2, 0)) is True
    assert list(table) == [(2, 0)] and table[2, 0]


def test_oracle_memory_stays_flat_in_the_first_span():
    # the first child of (10**6, 0, 0) under the floor 5 is the target, so
    # the search answers before the enumerator builds its 10**6 - 4 values
    cold_oracle_table()
    tracemalloc.start()
    try:
        assert dominates_oracle((10**6, 0, 0), (5, 0)) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


BAD_CLASSES = {
    # each class is wrong in the one way that one check of a block looks for
    "float-entry": lambda c: (float(c[0]), *c[1:]),
    "true-entry": lambda c: (True, *[0] * (len(c) - 1)),
    "increasing": lambda c: (-1, *[0] * (len(c) - 1)),
    "nonzero-last-entry": lambda c: (1,) * len(c),
    "one-entry-short": lambda c: (*c[:-2], 0),
    "list": list,
}


@pytest.mark.parametrize("case", list(BAD_CLASSES))
def test_dominance_suites_refuse_a_bad_class_block(monkeypatch, capsys, case):
    # the suites check each block of enumerated classes once, by columns, and
    # the kernels take the classes as they are: a block with one class that
    # is not a canonical Z-partition of the block's width is refused, not
    # canonicalized away or read past its end
    real = partitions.enumerate_classes

    def with_one_bad_class(width, bound):
        classes = real(width, bound)
        if width >= 2:
            classes[len(classes) // 2] = BAD_CLASSES[case](classes[len(classes) // 2])
        return classes

    monkeypatch.setattr("slinf.verify.enumerate_classes", with_one_bad_class)
    for suite in ("pmain", "lgts2", "interlace", "lemmas"):
        with pytest.raises(ValueError, match="not a canonical Z-partition"):
            run_suite(suite)
        code = main(["verify", suite])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1, (suite, err)


def test_chain_depth_limit_refuses_wider_gaps():
    # (1, 0, ..., 0) reaches (1, 0) along one chain, so the deepest allowed
    # search is cheap, and it must fit in the interpreter's stack under pytest
    cold_oracle_table()  # no memoized tail may shorten the recursion
    deepest = (1,) + (0,) * (MAX_CHAIN_DEPTH + 1)
    assert dominates_oracle(deepest, (1, 0)) is True
    too_deep = deepest + (0,)
    with pytest.raises(ValueError, match=f"MAX_CHAIN_DEPTH = {MAX_CHAIN_DEPTH}.*--method interlace"):
        dominates_oracle(too_deep, (1, 0))
    # a narrower top answers False without searching, at any width gap
    assert dominates_oracle((1, 0), too_deep) is False
    # the avoiding system decides by interlacing, so it answers past the limit
    wide = (1,) + (0,) * 1500
    assert avoiding_system_contains((1, 0), deepest) is False
    assert avoiding_system_contains((1, 0), wide) is False
    assert avoiding_system_contains((2, 0), wide) is True
