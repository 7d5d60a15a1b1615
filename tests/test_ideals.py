import importlib
import pkgutil
import tracemalloc
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

import slinf
from slinf.cls_codes import ClsCode, ExtSequence, _order_rows, bit_indices, code_included, seq_slack, union_included
from slinf.hasse import covering_relations
from slinf.ideals import (
    AUGMENTATION_IDEAL,
    ZERO_IDEAL,
    Ideal,
    _column_rows,
    _column_slack,
    _upset_rows,
    acc_measure,
    cls_union,
    code_sequence,
    containing_ideals,
    diagram_order_condition,
    enumerate_diagrams,
    enumerate_ideals,
    highest_weight,
    inclusion_rows,
    is_contained,
    is_maximal,
    make_weight,
    split_code,
)
from slinf.partitions import YoungDiagram
from slinf.verify import _full_union_rows, run_suite


def test_code_sequence_examples():
    assert code_sequence(1, 2, (3, 1)) == ExtSequence(1, (5, 3), 2)
    assert code_sequence(0, 0, ()) == ExtSequence.constant(0)
    assert code_sequence(0, 1, ()) == ExtSequence.constant(1)


def test_code_sequence_always_normalized():
    assert code_sequence(2, 3, (4, 2, 1)).is_normalized


def test_cls_union_examples():
    aug = cls_union(AUGMENTATION_IDEAL)
    assert aug == frozenset({ClsCode(ExtSequence.constant(0), ExtSequence.constant(0))})
    two_splits = cls_union(Ideal(1, 0))
    assert two_splits == frozenset({
        ClsCode(ExtSequence(1, (), 0), ExtSequence.constant(0)),
        ClsCode(ExtSequence.constant(0), ExtSequence(1, (), 0)),
    })
    assert cls_union(Ideal(0, 1)) == frozenset({
        ClsCode(ExtSequence.constant(1), ExtSequence.constant(1))
    })


def test_cls_union_size_is_number_of_splits():
    for x in range(4):
        assert len(cls_union(Ideal(x, 1, (2,), (1,)))) == x + 1


def test_cls_union_rejects_zero():
    with pytest.raises(ValueError):
        cls_union(ZERO_IDEAL)


def test_inclusion_examples():
    assert is_contained(Ideal(0, 1), AUGMENTATION_IDEAL) is True
    assert is_contained(Ideal(2, 1, (3,), ()), Ideal(2, 1, (3,), ())) is True
    assert is_contained(Ideal(0, 0, (2,)), Ideal(0, 0, (1,))) is True
    assert is_contained(Ideal(0, 0, (1,)), Ideal(0, 0, (2,))) is False


def test_inclusion_zero_cases():
    assert is_contained(ZERO_IDEAL, ZERO_IDEAL) is True
    assert is_contained(ZERO_IDEAL, Ideal(1, 1)) is True
    assert is_contained(AUGMENTATION_IDEAL, ZERO_IDEAL) is False


def test_diagram_order_condition_examples():
    assert diagram_order_condition(Ideal(0, 1), AUGMENTATION_IDEAL) is False
    assert diagram_order_condition(Ideal(0, 0, (2,)), Ideal(0, 0, (1,))) is True
    ideal = Ideal(2, 1, (3, 1), (2,))
    assert diagram_order_condition(ideal, ideal) is True


def test_diagram_order_condition_unpadded_reading():
    # the unpadded reading accepts the y-drop instance the padded one rejects
    assert diagram_order_condition(Ideal(0, 1), AUGMENTATION_IDEAL, padded=False) is True
    # but over-accepts when the inner diagrams are shorter
    assert diagram_order_condition(AUGMENTATION_IDEAL, Ideal(0, 0, (1,)), padded=False) is True
    assert is_contained(AUGMENTATION_IDEAL, Ideal(0, 0, (1,))) is False


def _columns_fit(cols: YoungDiagram, outer_cols: YoungDiagram, drop: int, shove: int, padded: bool) -> bool:
    # cols_i - drop >= outer_cols_{i + shove} over the quantified 1-based i,
    # with columns read as 0 beyond their diagram.
    top = max(len(cols), len(outer_cols)) + 1 if padded else len(cols)
    high = outer_cols[shove : shove + top]
    return all(c - drop >= o for c, o in zip(cols + (0,) * (top - len(cols)), high + (0,) * (top - len(high))))


def diagram_order_search(inner: Ideal, outer: Ideal, padded: bool = True) -> bool:
    """The split search diagram_order_condition used before its slack form, kept verbatim as its reference.

    Searches nonnegative splits a + b = y_inner - y_outer, c + d = x_inner -
    x_outer with l_i - a >= l'_{i+c} and r_j - b >= r'_{j+d} at the
    quantified indices, trying every (a, c).
    """
    if inner.zero or outer.zero:
        raise ValueError("the diagram condition is defined for nonzero ideals only")
    dx = inner.x - outer.x
    dy = inner.y - outer.y
    if dx < 0 or dy < 0:
        return False
    for a in range(dy + 1):
        b = dy - a
        for c in range(dx + 1):
            d = dx - c
            if _columns_fit(inner.yl, outer.yl, a, c, padded) and _columns_fit(
                inner.yr, outer.yr, b, d, padded
            ):
                return True
    return False


# past the frozen family (x, y <= 2, diagrams of <= 2 columns of length <= 2)
condition_diagrams = st.sampled_from(enumerate_diagrams(3, 3))


@given(st.builds(Ideal, st.integers(0, 3), st.integers(0, 3), condition_diagrams, condition_diagrams), st.data())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_diagram_order_condition_slack_form_equals_split_search(inner, data):
    # mostly drops >= 0, where the condition has splits to search
    drop_x, drop_y = (st.one_of(st.integers(0, v), st.integers(0, 3)) for v in (inner.x, inner.y))
    outer = data.draw(st.builds(Ideal, drop_x, drop_y, condition_diagrams, condition_diagrams))
    for padded in (True, False):
        assert diagram_order_condition(inner, outer, padded) == diagram_order_search(inner, outer, padded)


def test_diagram_order_condition_rejects_zero():
    with pytest.raises(ValueError):
        diagram_order_condition(ZERO_IDEAL, AUGMENTATION_IDEAL)


def test_is_maximal_examples():
    assert is_maximal(AUGMENTATION_IDEAL) is True
    assert is_maximal(ZERO_IDEAL) is False
    assert is_maximal(Ideal(2, 1, (3,), ())) is False


def test_acc_measure_examples():
    assert acc_measure(AUGMENTATION_IDEAL) == (0, 0)
    assert acc_measure(Ideal(1, 1, (3, 1), ())) == (2, 4)
    assert acc_measure(Ideal(0, 0, (1, 1), (2,))) == (0, 4)
    with pytest.raises(ValueError):
        acc_measure(ZERO_IDEAL)


def test_highest_weight_examples():
    w = highest_weight(Ideal(0, 0, (2,), (1,)))
    assert w.coefficient(1) == (2, 0)
    assert w.coefficient(2) == (1, 0)
    assert w.coefficient(3) == (0, 0)
    assert w.odd_tail == 0

    zero_weight = highest_weight(AUGMENTATION_IDEAL)
    assert zero_weight == make_weight({}, 0)

    w = highest_weight(Ideal(1, 1))
    assert w.coefficient(1) == (1, 1)  # alpha + 1
    assert w.coefficient(3) == (1, 0)
    assert w.coefficient(2) == (0, 0)
    assert w.odd_tail == 1


def test_highest_weight_right_diagram_reversed():
    # column r_{t+1-j} lands at even position 2j
    w = highest_weight(Ideal(0, 0, (), (3, 1)))
    assert w.coefficient(2) == (1, 0)
    assert w.coefficient(4) == (3, 0)
    assert w.coefficient(6) == (0, 0)


def test_highest_weight_fills_interior_odd_positions():
    w = highest_weight(Ideal(0, 1, (), (2,)))
    assert w.coefficient(1) == (1, 0)  # explicit interior odd entry
    assert w.coefficient(2) == (2, 0)
    assert w.coefficient(3) == (1, 0)  # from the odd tail
    assert w.coefficient(4) == (0, 0)


def test_weight_normalization_and_equality():
    assert make_weight({1: (1, 0)}, 1) == make_weight({1: (1, 0), 3: (1, 0)}, 1)
    assert make_weight({2: (0, 0)}, 0) == make_weight({}, 0)
    assert make_weight({1: (2, 0)}, 0) != make_weight({1: (2, 0)}, 1)


def test_weight_refusals_and_a_kept_trailing_zero():
    with pytest.raises(ValueError, match="1-indexed"):
        make_weight({0: (1, 0)}, 0)
    with pytest.raises(ValueError, match="1-indexed"):
        make_weight({1: (1, 0)}, 0).coefficient(0)
    with pytest.raises(ValueError, match="odd_tail"):
        make_weight({}, -1)
    # a (0, 0) at an odd position differs from a nonzero odd tail, so it stays listed
    w = make_weight({5: (0, 0)}, 2)
    assert w.to_json() == {"explicit": {"5": [0, 0]}, "odd_tail": 2}
    assert str(w) == "(0)e5 [odd tail 2]"
    assert [w.coefficient(i) for i in range(1, 8)] == [(0, 0)] * 6 + [(2, 0)]


def test_weight_keeps_exact_int_pairs_and_coerces_the_rest():
    # one nonzero entry far out: the 10**6 - 1 shared (0, 0) pairs are kept,
    # not re-created, so the peak is the dense tuple and one list of it
    tracemalloc.start()
    try:
        w = make_weight({10**6: (1, 0)}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20, peak
    assert w.coefficient(10**6) == (1, 0) and w.coefficient(10**6 - 1) == (0, 0)
    coerced = make_weight({1: (True, 2.0), 2: [3, 4]}, 0).coefficients
    assert coerced == ((1, 2), (3, 4)) and all(type(c) is tuple and set(map(type, c)) == {int} for c in coerced)


def test_weight_json():
    w = highest_weight(Ideal(1, 0, (), (1,)))
    assert w.to_json() == {"explicit": {"1": [0, 1], "2": [1, 0]}, "odd_tail": 0}


def test_highest_weight_injective_on_family():
    family = enumerate_ideals(2, 2, 2, 2)
    weights = {highest_weight(ideal) for ideal in family}
    assert len(weights) == len(family)


def test_containing_ideals_examples():
    assert containing_ideals(AUGMENTATION_IDEAL, 5) == [AUGMENTATION_IDEAL]
    assert containing_ideals(Ideal(0, 0, (1,)), 4) == [
        AUGMENTATION_IDEAL,
        Ideal(0, 0, (1,)),
    ]
    upset = containing_ideals(Ideal(1, 1), 2)
    assert Ideal(0, 0, (1, 1)) in upset
    assert all(is_contained(Ideal(1, 1), found) for found in upset)


def test_containing_ideals_rejects_zero():
    with pytest.raises(ValueError):
        containing_ideals(ZERO_IDEAL, 3)
    with pytest.raises(ValueError):
        _upset_rows(ZERO_IDEAL, 3)  # at the call, before any row is read


def test_containing_ideals_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="width_cap"):
        containing_ideals(Ideal(1, 1), -1)
    with pytest.raises(ValueError, match="width_cap"):
        _upset_rows(Ideal(1, 1), -1)


def test_upset_rows_compute_each_deficit_once(monkeypatch):
    # one right deficit per (split, right diagram) and one left deficit per (shove, left diagram),
    # however many y' and x' read them
    calls = []

    def counted(*args):
        calls.append(args)
        return _column_slack(*args)

    monkeypatch.setattr("slinf.ideals._column_slack", counted)
    ideal = Ideal.from_json({"x": 3, "y": 3, "yl": [3, 2], "yr": [3, 1]})
    right, rows = _upset_rows(ideal, 4)
    assert sum(bin(mask).count("1") for *_, mask in rows) == 190_442
    left = enumerate_diagrams(4, 3 + 3)
    assert len(left) == len(right) == 210
    assert len(calls) <= (ideal.x + 1) * (len(left) + len(right))


def test_enumerate_diagrams():
    assert enumerate_diagrams(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert enumerate_diagrams(0, 5) == [()]
    assert enumerate_diagrams(3, 0) == [()]


def test_enumerate_ideals_count():
    family = enumerate_ideals(2, 2, 2, 2)
    assert len(family) == 3 * 3 * 6 * 6
    assert len(set(family)) == len(family)
    assert family == sorted(family, key=Ideal.sort_key)


# the ideals of the benchmark's lattice upsets, all at width cap 4
LATTICE_UPSETS = [
    Ideal(2, 2, (2, 2), (2, 1)),
    Ideal(2, 2, (2, 1), (2, 2)),
    Ideal(1, 2, (2, 1), (1,)),
    Ideal(1, 2, (1,), (2, 1)),
]


@pytest.mark.parametrize("upset_of", [None, *LATTICE_UPSETS], ids=lambda i: "frozen-family" if i is None else str(i))
def test_enumerated_ideals_equal_validated_ones(upset_of):
    # both enumerators build their ideals without the checks of __init__; each
    # must be the ideal that validated construction gives, field for field and
    # in the order __init__ sets the fields
    built = enumerate_ideals(2, 2, 2, 2) if upset_of is None else containing_ideals(upset_of, 4)
    for ideal in built:
        validated = Ideal(**ideal.to_json())
        assert (ideal, hash(ideal), list(vars(ideal).items()), repr(ideal)) == (
            validated, hash(validated), list(vars(validated).items()), repr(validated)
        )


def test_ideal_validation_and_json():
    with pytest.raises(ValueError):
        Ideal(-1, 0)
    with pytest.raises(ValueError):
        Ideal(0, 0, (2, 3))
    with pytest.raises(ValueError):
        Ideal(1, 0, zero=True)
    assert Ideal.from_json({"zero": True}) == ZERO_IDEAL
    ideal = Ideal(2, 1, (3, 1), (2,))
    assert Ideal.from_json(ideal.to_json()) == ideal
    assert ZERO_IDEAL.to_json() == {"zero": True}
    assert str(ideal) == "I(2,1,[3, 1],[2])"


def test_constructor_refuses_non_integers():
    # Ideal(x=1.0) used to construct and then fail with a TypeError in cls_union
    for kwargs in ({"x": True}, {"x": 1.0}, {"y": False}, {"y": 2.5}, {"x": "1"}):
        with pytest.raises(ValueError, match="must be an integer"):
            Ideal(**kwargs)


def test_split_consistency_spot_checks():
    # replacing the outer union by its (x, 0) split must not change decisions
    from slinf.cls_codes import union_included

    pairs = [
        (Ideal(1, 1), Ideal(1, 0)),
        (Ideal(2, 0), Ideal(1, 1)),
        (Ideal(1, 0, (1,)), Ideal(1, 0)),
        (Ideal(2, 2, (2, 1), (1,)), Ideal(1, 1, (1,), ())),
    ]
    for inner, outer in pairs:
        single = ClsCode(
            code_sequence(outer.x, outer.y, outer.yl),
            code_sequence(0, outer.y, outer.yr),
        )
        assert union_included((single,), cls_union(inner)) == is_contained(inner, outer)


# past the frozen grids (x, y <= 2, diagrams of <= 2 columns of length <= 2),
# where split-consistency replays the single split against the full unions
ideals = st.one_of(
    st.just(ZERO_IDEAL),
    st.builds(
        Ideal,
        st.integers(0, 5),
        st.integers(0, 3),
        st.sampled_from(enumerate_diagrams(3, 3)),
        st.sampled_from(enumerate_diagrams(3, 3)),
    ),
)


@given(st.lists(ideals, max_size=10), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_inclusion_rows_match_pointwise_inclusion(family, data):
    # inclusion_rows and is_contained decide on each outer (x, 0) split with
    # its slacks read off the columns, for a whole list or pair by pair; the
    # reference builds the full code unions (nonzero ideals only)
    if family:  # repeat some entries, so duplicates always occur
        family += data.draw(st.lists(st.sampled_from(family), min_size=1, max_size=3))
    assert inclusion_rows(family) == pointwise_rows(family)
    nonzero = [ideal for ideal in family if not ideal.zero]
    assert _full_union_rows(nonzero) == pointwise_rows(nonzero)


def pointwise_rows(family):
    """The inclusion order as bitset rows, one is_contained call per pair."""
    return [sum(1 << j for j, outer in enumerate(family) if is_contained(inner, outer)) for inner in family]


FROZEN_FAMILY = [ZERO_IDEAL] + enumerate_ideals(2, 2, 2, 2)


# lists in any order, with duplicates and the zero ideal, for the one engine
# behind inclusion_rows and both tord-discrepancy readings
engine_ideals = st.one_of(
    st.just(ZERO_IDEAL),
    st.builds(
        Ideal,
        st.integers(0, 3),
        st.integers(0, 4),
        st.sampled_from(enumerate_diagrams(3, 3)),
        st.sampled_from(enumerate_diagrams(3, 3)),
    ),
)


def reading_rows(family, holds):
    """Rows of a pointwise reading, with the zero ideal below everything and above nothing else."""
    return [
        sum(1 << j for j, outer in enumerate(family) if inner.zero or not outer.zero and holds(inner, outer))
        for inner in family
    ]


@given(st.lists(engine_ideals, max_size=12), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_column_rows_match_pointwise_readings(family, data):
    if family:  # repeat some entries and shuffle, so duplicates sit anywhere
        family = data.draw(st.permutations(family + data.draw(st.lists(st.sampled_from(family), max_size=3))))
    assert _column_rows(family, True, True) == pointwise_rows(family)
    for padded in (True, False):
        expected = reading_rows(family, lambda inner, outer: diagram_order_condition(inner, outer, padded))
        assert _column_rows(family, False, padded) == expected


def test_is_contained_equals_inclusion_rows_on_the_frozen_family():
    # every pair of the frozen family, the zero ideal included
    assert inclusion_rows(FROZEN_FAMILY) == pointwise_rows(FROZEN_FAMILY)


def test_inclusion_rows_equal_the_full_unions_past_the_frozen_family():
    # 900 ideals with columns of length 3, beyond the frozen split-consistency grid
    family = enumerate_ideals(2, 2, 2, 3)
    assert inclusion_rows(family) == _full_union_rows(family)


def test_inclusion_rows_equal_the_full_unions_across_a_wide_y_spread():
    # 2 196 ideals with y up to 60, so dy takes 61 values
    family = enumerate_ideals(0, 60, 2, 2)
    assert inclusion_rows(family) == _full_union_rows(family)


@given(ideals.filter(lambda ideal: not ideal.zero), st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_code_slacks_read_from_the_columns(outer, data):
    # the identity is_contained rests on, for every split c0 of inner that
    # can hold outer's (x, 0) split, with dy of either sign
    inner = Ideal(
        data.draw(st.integers(outer.x, 5)),
        data.draw(st.integers(0, 3)),
        data.draw(st.sampled_from(enumerate_diagrams(3, 3))),
        data.draw(st.sampled_from(enumerate_diagrams(3, 3))),
    )
    single = split_code(outer, outer.x)
    dy = inner.y - outer.y
    for c0 in range(outer.x, inner.x + 1):
        code = split_code(inner, c0)
        left = _column_slack(inner.yl, outer.yl, c0 - outer.x, padded=True)
        right = _column_slack(inner.yr, outer.yr, inner.x - c0, padded=True)
        assert seq_slack(single.p, code.p) == dy + left
        assert seq_slack(single.q, code.q) == dy + right
        # never positive, so the deficits -left, -right of containing_ideals are >= 0
        assert left <= 0 and right <= 0


def test_is_contained_builds_no_code(monkeypatch):
    # is_contained, inclusion_rows, covering_relations and containing_ideals
    # read their slacks from the columns and build no code
    rows = pointwise_rows(FROZEN_FAMILY)  # the expected rows, before anything is forbidden
    family = FROZEN_FAMILY[1:]
    strict = [(row >> 1) & ~(1 << i) for i, row in enumerate(rows[1:])]
    covers = [
        (family[a], family[b])
        for a, row in enumerate(strict)
        for b in bit_indices(row & ~reduce(or_, [strict[c] for c in bit_indices(row)], 0))
    ]
    builders = {"split_code": split_code, "code_sequence": code_sequence, "cls_union": cls_union,
                "code_included": code_included, "seq_slack": seq_slack, "_order_rows": _order_rows}

    def forbidden(*args):
        raise AssertionError("a code was built")

    for module in [slinf] + [
        importlib.import_module(f"slinf.{info.name}")
        for info in pkgutil.iter_modules(slinf.__path__)
        if info.name != "__main__"
    ]:
        for name, builder in builders.items():
            if getattr(module, name, None) is builder:
                monkeypatch.setattr(module, name, forbidden)
    assert pointwise_rows(FROZEN_FAMILY) == inclusion_rows(FROZEN_FAMILY) == rows
    assert covering_relations(family) == covers
    report = run_suite("maximal")
    assert report.checked > 0 and report.failed == 0
    for ideal in LATTICE_UPSETS:
        upset = containing_ideals(ideal, 3)
        assert upset == [cand for cand in upset_candidates(ideal, 3) if is_contained(ideal, cand)]


def upset_candidates(ideal, width_cap):
    """Every ideal containing_ideals decides, in canonical order."""
    max_l = (ideal.yl[0] if ideal.yl else 0) + ideal.y
    max_r = (ideal.yr[0] if ideal.yr else 0) + ideal.y
    left = enumerate_diagrams(width_cap, max_l)
    right = enumerate_diagrams(width_cap, max_r)
    candidates = [
        Ideal(x, y, yl, yr) for x in range(ideal.x + 1) for y in range(ideal.y + 1) for yl in left for yr in right
    ]
    return sorted(candidates, key=Ideal.sort_key)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.just(AUGMENTATION_IDEAL),
        st.builds(
            Ideal,
            st.integers(0, 4),
            st.integers(0, 2),
            st.sampled_from(enumerate_diagrams(3, 3)),
            st.sampled_from(enumerate_diagrams(3, 3)),
        ),
    ),
    st.integers(0, 3),
)
def test_containing_ideals_match_pointwise_definition(ideal, width_cap):
    upset = containing_ideals(ideal, width_cap)
    candidates = upset_candidates(ideal, width_cap)
    # the pointwise definition containing_ideals replaced: one is_contained per candidate
    assert upset == [cand for cand in candidates if is_contained(ideal, cand)]
    # the full code unions, with no single-split argument: every code of cand lies in one of ideal's
    assert upset == [cand for cand in candidates if union_included(cls_union(cand), cls_union(ideal))]
    # the augmentation ideal contains everything, so y > 0 always yields a hit with y' < y (d > 0)
    assert AUGMENTATION_IDEAL in upset
    assert (ideal in upset) == (max(len(ideal.yl), len(ideal.yr)) <= width_cap)
