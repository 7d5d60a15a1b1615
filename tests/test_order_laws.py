"""The partial-order law check against a per-edge reference, on random relations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from slinf import verify
from slinf.cls_codes import bit_indices, code_rows, or_of_rows
from slinf.ideals import enumerate_ideals, inclusion_rows
from slinf.verify import MAX_STORED_COUNTEREXAMPLES, _Collector, _partial_order_violations


def per_edge_violations(items, rows, render, bad):
    """The law check as one Python step per edge: the reference for _partial_order_violations."""
    n = len(items)
    for i in range(n):
        if not (rows[i] >> i) & 1:
            bad.add({"law": "reflexivity", "item": render(items[i])})
    checked = n * n + n  # the relation entries and the reflexivity checks
    for i in range(n):
        for j in bit_indices(rows[i] & ~(1 << i)):
            if i < j and (rows[j] >> i) & 1:
                bad.add({"law": "antisymmetry", "a": render(items[i]), "b": render(items[j])})
            checked += 1
            missing = rows[j] & ~rows[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                bad.add({
                    "law": "transitivity",
                    "a": render(items[i]), "b": render(items[j]), "c": render(items[k]),
                })
    return checked


def both_checks(rows):
    items = list(range(len(rows)))
    fast, slow = _Collector(), _Collector()
    checks = _partial_order_violations(items, rows, str, fast)
    assert checks == per_edge_violations(items, rows, str, slow)
    assert (fast.count, fast.stored) == (slow.count, slow.stored)
    return fast


def product_order(points):
    """Rows of the componentwise order on distinct points: a genuine partial order."""
    return [
        sum(1 << j for j, b in enumerate(points) if all(u <= v for u, v in zip(a, b)))
        for a in points
    ]


# distinct points of a 4 x 4 x 2 grid, in the drawn order
genuine_orders = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)), unique=True, max_size=24
).map(product_order)


@given(genuine_orders, st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_law_check_matches_reference_on_orders_with_flipped_bits(rows, flips):
    for i, j in flips:
        if i < len(rows) and j < len(rows):
            rows[i] ^= 1 << j
    bad = both_checks(rows)
    if not flips:
        assert bad.count == 0


def walk_no_edge(rows):
    """The law check with the exact walk's helpers made to raise: a genuine order must need neither."""
    def forbidden(*args):
        raise AssertionError("an edge was walked")

    items = list(range(len(rows)))
    expected = per_edge_violations(items, rows, str, _Collector())
    bad = _Collector()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "bit_indices", forbidden)
        patch.setattr(verify, "or_of_rows", forbidden)
        checked = _partial_order_violations(items, rows, str, bad)
    assert (bad.count, checked) == (0, expected)


@given(genuine_orders)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_genuine_order_walks_no_edge(rows):
    # the points in their drawn order, so rows have edges on both sides
    walk_no_edge(rows)


def test_the_frozen_order_suites_walk_no_edge():
    grids = verify.load_grid_config()["suites"]
    _, codes = verify._code_grid(grids["tiap-order"])
    walk_no_edge(code_rows(codes))
    grid = grids["ideal-order"]
    walk_no_edge(inclusion_rows(enumerate_ideals(grid["max_x"], grid["max_y"], grid["max_cols"], grid["max_len"])))


@given(st.integers(0, 24), st.sampled_from([0.05, 0.3, 0.7, 0.95]), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_law_check_matches_reference_on_random_relations(n, density, seed):
    rng = random.Random(seed)
    both_checks([sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)])


def test_law_check_truncates_like_the_reference():
    rng = random.Random(7)
    rows = [sum(1 << j for j in range(30) if rng.random() < 0.5) for _ in range(30)]
    bad = both_checks(rows)
    assert bad.count > MAX_STORED_COUNTEREXAMPLES == len(bad.stored)


@given(st.lists(st.integers(0, 2**40), max_size=40), st.integers(0, 2**45))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_or_of_rows_is_the_or_over_set_bits(rows, mask):
    expected = 0
    for j in bit_indices(mask):
        if j < len(rows):
            expected |= rows[j]
    assert or_of_rows(rows, mask) == expected
