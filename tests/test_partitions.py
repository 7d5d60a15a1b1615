import math
import time

import pytest
from hypothesis import given, strategies as st

from slinf.dominance import dominates_oracle, is_gt_step
from slinf.partitions import (
    _first_child,
    _iter_children,
    as_young_diagram,
    as_zpartition,
    canonicalize,
    enumerate_classes,
    gt_children,
    is_canonical,
    shift,
)

zpartitions = st.lists(st.integers(-6, 6), min_size=1, max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def brute_gt_step(lam, mu):
    """Independent oracle: scan every feasible shift D explicitly."""
    if len(mu) != len(lam) - 1:
        return False
    span = range(min(lam) - max(mu) - 1, max(lam) - min(mu) + 2)
    return any(
        all(lam[i] >= mu[i] + d >= lam[i + 1] for i in range(len(mu))) for d in span
    )


def test_canonicalize_examples():
    assert canonicalize((3, 2, 2)) == (1, 0, 0)
    assert canonicalize((0, 0)) == (0, 0)
    assert canonicalize((-1, -4)) == (3, 0)


@given(zpartitions, st.integers(-5, 5))
def test_canonicalize_idempotent_and_shift_invariant(lam, d):
    assert canonicalize(canonicalize(lam)) == canonicalize(lam)
    assert canonicalize(shift(lam, d)) == canonicalize(lam)
    assert is_canonical(canonicalize(lam))


def test_gt_step_examples():
    assert is_gt_step((2, 1, 0), (1, 0)) is True
    assert is_gt_step((1, 0), (1, 0)) is False
    assert is_gt_step((1, 1, 0), (1, 0)) is True


@given(zpartitions, zpartitions)
def test_gt_step_matches_brute_shift_scan(lam, mu):
    assert is_gt_step(lam, mu) == brute_gt_step(lam, mu)


@given(zpartitions, zpartitions, st.integers(-5, 5), st.integers(-5, 5))
def test_gt_step_shift_invariant(lam, mu, d1, d2):
    assert is_gt_step(lam, mu) == is_gt_step(shift(lam, d1), shift(mu, d2))


def test_gt_children_examples():
    assert gt_children((1, 0)) == frozenset({(0,)})
    assert gt_children((2, 0, 0)) == frozenset({(0, 0), (1, 0), (2, 0)})
    assert gt_children((0, 0)) == frozenset({(0,)})


def test_iter_children_yields_the_children_above_its_floor():
    # the floor narrows the generated spans, not a test on each built child
    for width in range(2, 8):
        for lam in enumerate_classes(width, 5):
            children = gt_children(lam)
            for floor in range(lam[0] + 2):
                got = list(_iter_children(lam, floor))
                assert set(got) == {c for c in children if c[0] >= floor}, (lam, floor)
                assert all(len(c) == width - 1 and is_canonical(c) for c in got), (lam, floor)


def test_first_child_is_the_enumerators_first_yield():
    # the chain oracle probes _first_child before it starts the enumerator,
    # so the probe must be exactly the first yield, or None when there is none
    for width in range(2, 9):
        for lam in enumerate_classes(width, 5):
            for floor in range(lam[0] + 2):
                assert _first_child(lam, floor) == next(_iter_children(lam, floor), None), (lam, floor)


def test_width_two_child_is_yielded_once():
    # every shift d of a width-2 class gives the same child, so it is
    # yielded once, not lam[0] + 1 times
    assert list(_iter_children((10**9, 0))) == [(0,)]
    start = time.perf_counter()
    assert gt_children((10**9, 0)) == {(0,)}
    assert dominates_oracle((10**8, 0), (0,)) is True
    assert time.perf_counter() - start < 1.0


def test_gt_children_rejects_width_one():
    with pytest.raises(ValueError):
        gt_children((5,))


def test_gt_children_agrees_with_gt_step_exhaustively():
    # every width <= 5, canonical entries <= 4; membership must coincide with
    # the step relation on any representative
    for width in range(2, 6):
        for lam in enumerate_classes(width, 4):
            children = gt_children(lam)
            for mu in enumerate_classes(width - 1, lam[0]):
                expected = mu in children
                for d in (-2, 0, 3):
                    assert is_gt_step(lam, shift(mu, d)) == expected
            # nothing outside the candidate bound can be a child
            assert all(child[0] <= lam[0] for child in children)


def test_enumerate_classes_examples():
    assert enumerate_classes(2, 2) == [(0, 0), (1, 0), (2, 0)]
    assert enumerate_classes(1, 5) == [(0,)]
    assert enumerate_classes(3, 1) == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]


@pytest.mark.parametrize("width,bound", [(1, 4), (2, 3), (4, 2), (6, 5)])
def test_enumerate_classes_count(width, bound):
    classes = enumerate_classes(width, bound)
    assert len(classes) == math.comb(width - 1 + bound, bound)
    assert all(is_canonical(c) and len(c) == width and c[0] <= bound for c in classes)
    assert classes == sorted(set(classes))


def test_validation_errors():
    with pytest.raises(ValueError):
        as_zpartition(())
    with pytest.raises(ValueError):
        as_zpartition((1, 2))
    with pytest.raises(ValueError):
        as_zpartition((1, "x"))
    with pytest.raises(ValueError):
        enumerate_classes(0, 3)
    with pytest.raises(ValueError):
        enumerate_classes(2, -1)


def test_young_diagram_validation():
    assert as_young_diagram(()) == ()
    assert as_young_diagram((3, 1)) == (3, 1)
    with pytest.raises(ValueError):
        as_young_diagram((0,))
    with pytest.raises(ValueError):
        as_young_diagram((1, 2))
