"""The code-slack, split-consistency, tord-discrepancy and acc replays: their calls, and their reports on faults.

The suites take every per-pair input from a table built once per run:
code-slack from one seq_slack table and one table of shift masks over the
interned sequences, split-consistency from two row builds (inclusion_rows on
the single splits, from the columns, and the full-union reference, from one
seq_slack table), tord-discrepancy from one table of column slacks per
reading (inner diagram by outer diagram by shove), acc from one measure per
ideal.
These tests pin those call counts on the frozen grid, check the condition
rows against the pointwise condition past it, and inject faults (bits of
code_rows or inclusion_rows, one pointwise shift test) to check that each
suite still reports exactly the faults its pointwise definition predicts,
with the same counterexamples.
"""

import hashlib
import json
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from slinf import cls_codes, ideals, verify
from slinf.cls_codes import ExtSequence, bit_indices, code_included, code_rows, union_included
from slinf.ideals import (
    AUGMENTATION_IDEAL,
    Ideal,
    acc_measure,
    cls_union,
    diagram_order_condition,
    enumerate_diagrams,
    enumerate_ideals,
    family_size,
    is_contained,
)

# asymmetric in x and y, with the required tord-discrepancy instance I(0,1) < I(0,0)
SMALL = {"max_x": 2, "max_y": 1, "max_cols": 1, "max_len": 2}


def count_calls(monkeypatch, name: str, modules=(cls_codes, ideals, verify)) -> list[int]:
    """Count the calls of one function at every import site among modules."""
    calls = [0]
    original = getattr(cls_codes if hasattr(cls_codes, name) else ideals, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_code_slack_reads_its_split_search_from_one_table(monkeypatch):
    oracle = count_calls(monkeypatch, "code_included_oracle")
    shifts = count_calls(monkeypatch, "_below_shifted")
    report = verify.run_suite("code-slack")
    assert report.failed == 0 and report.details == {"codes": 1305, "sequences": 57}
    # one set of shift masks per pair of the 57 sequences, d + 1 pointwise
    # tests each (3 519 in all); the split search per pair of codes made
    # 1 703 025 seq_leq_shifted calls
    assert oracle[0] == 0
    assert shifts[0] <= 57**2 * 3


def test_code_slack_guard_counts_the_shift_table():
    # 61 constant codes: 3 721 pairs of codes, but the shift masks of the 61
    # tails 0..60 cost C(63, 3) = 39 711 pointwise tests
    grid = {"max_inf": 0, "max_head_len": 0, "max_entry": 0, "max_tail": 60}
    with pytest.raises(verify.GridTooLargeError, match="39711"):
        verify.run_suite("code-slack", {**grid, "ceiling": 20_000})
    assert verify.run_suite("code-slack", {**grid, "ceiling": 39_711}).checked == 61**2


CODE_GRID = {"max_inf": 1, "max_head_len": 2, "max_entry": 3, "max_tail": 2}


def code_slack_reference(codes, rows):
    """The pointwise walk: code_included, the rows and the split search by definition on every pair of codes."""
    # the pointwise test as it stands when called, faults included; memoized
    # here only to keep the walk fast
    leq = cache(cls_codes.seq_leq_shifted)
    bad = verify._Collector()
    for inner, row in zip(codes, rows):
        for j, outer in enumerate(codes):
            slack = code_included(inner, outer)
            in_rows = bool((row >> j) & 1)
            d = outer.limit - inner.limit
            oracle = any(leq(inner.p, outer.p, a) and leq(inner.q, outer.q, d - a) for a in range(d + 1))
            if not slack == in_rows == oracle:
                bad.add({
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "slack": slack, "code_rows": in_rows, "split_search": oracle,
                })
    return bad.count, bad.stored


@pytest.mark.parametrize("fault, failed", [("code_rows", 2), ("seq_leq_shifted", 39)])
def test_code_slack_reports_exactly_the_injected_fault(monkeypatch, fault, failed):
    _, codes = verify._code_grid(CODE_GRID)
    rows = code_rows(codes)
    if fault == "code_rows":
        # one inclusion dropped, one added
        rows[0] ^= 1 << 1
        rows[1] ^= 1 << 0
        monkeypatch.setattr(verify, "code_rows", lambda cs: list(rows) if cs == codes else pytest.fail())
    else:
        # 3, 1, 1, ... is not below 3, 3, 2, ... shifted down by 1: say it is, in
        # the pointwise test that seq_leq_shifted and the shift masks share
        flipped = (cls_codes._aligned_values(ExtSequence(0, (3,), 1), ExtSequence(0, (3, 3), 2)), 1)
        original = cls_codes._below_shifted
        monkeypatch.setattr(cls_codes, "_below_shifted", lambda *args: original(*args) != (args == flipped))
    report = verify.run_suite("code-slack", CODE_GRID)
    assert (report.failed, report.counterexamples) == code_slack_reference(codes, rows)
    assert report.failed == failed


def test_split_consistency_reads_two_slack_tables_not_code_included(monkeypatch):
    slacks = count_calls(monkeypatch, "seq_slack")
    forbidden = [count_calls(monkeypatch, name) for name in ("code_included", "union_included")]
    report = verify.run_suite("split-consistency")
    assert report.failed == 0 and report.checked == 324 * 324
    # one table over the 54 code halves per row build, single split and full
    # union; two seq_slack calls per compared pair of codes would pass 150 000
    assert slacks[0] <= 2 * 54**2
    assert [calls[0] for calls in forbidden] == [0, 0]


def test_tord_discrepancy_tabulates_each_column_slack_once(monkeypatch):
    slacks = count_calls(monkeypatch, "_column_slack")
    conditions = count_calls(monkeypatch, "diagram_order_condition")
    report = verify.run_suite("tord-discrepancy")
    assert report.failed == 0
    # one table per reading, shared by the left and right sides: 6 inner
    # diagrams by 6 outer diagrams at 3 shoves, for the inclusion rows and
    # both readings; one condition per pair of ideals would make 70 000
    assert slacks[0] <= 3 * 6**2 * 3 == 324
    assert conditions[0] == 0


def test_acc_measures_each_ideal_once(monkeypatch):
    measures = count_calls(monkeypatch, "acc_measure")
    report = verify.run_suite("acc")
    assert report.failed == 0
    # one per strict inclusion would make 62 788
    assert measures[0] == report.details["family"] == 324


# every family with x, y <= 3, at most 2 columns of length <= 3 and at most
# 150 ideals, except those inside the frozen grid (x, y, columns, length <= 2)
PAST_FROZEN = [
    bounds
    for bounds in ((x, y, c, l) for x in range(4) for y in range(4) for c in range(3) for l in range(4))
    if max(bounds) == 3 and family_size(*bounds, 150) <= 150
]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(PAST_FROZEN))
def test_condition_rows_match_pointwise_condition(bounds):
    family = enumerate_ideals(*bounds)
    for padded in (True, False):
        pointwise = [
            sum(1 << j for j, outer in enumerate(family) if diagram_order_condition(inner, outer, padded))
            for inner in family
        ]
        assert ideals._column_rows(family, False, padded) == pointwise


def test_padded_reading_is_inclusion_where_y_is_kept():
    # what tord-discrepancy measures: on the frozen family the padded reading
    # is the inclusion order cut to pairs of equal y, so it misses exactly
    # the inclusions where y drops
    family = enumerate_ideals(2, 2, 2, 2)
    rows = ideals.inclusion_rows(family)
    same_y = [sum(1 << j for j, outer in enumerate(family) if outer.y == inner.y) for inner in family]
    assert ideals._column_rows(family, False, True) == [row & y for row, y in zip(rows, same_y)]
    y_drops = sum((row & ~y).bit_count() for row, y in zip(rows, same_y))
    report = verify.run_suite("tord-discrepancy")
    assert report.details["padded_reading"]["missed_inclusions"] == y_drops == 19595


nonzero_ideals = st.builds(
    Ideal, st.integers(0, 3), st.integers(0, 2),
    st.sampled_from(enumerate_diagrams(3, 3)), st.sampled_from(enumerate_diagrams(3, 3)),
)


@given(nonzero_ideals, nonzero_ideals)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_padded_condition_is_inclusion_at_equal_y(inner, outer):
    assert diagram_order_condition(inner, outer) == (is_contained(inner, outer) and inner.y == outer.y)


def split_consistency_reference(family, rows):
    """The pointwise definition: the single-split rows against union_included of each outer's full union."""
    bad = verify._Collector()
    for inner, row in zip(family, rows):
        for j, outer in enumerate(family):
            single = bool((row >> j) & 1)
            full = union_included(cls_union(outer), cls_union(inner))
            if full != single:
                bad.add({
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "full_union": full, "single_split": single,
                })
    return bad.count, bad.stored


def tord_discrepancy_reference(family, rows):
    """The pointwise definition: both readings of diagram_order_condition on every pair against the rows."""
    bad = verify._Collector()
    counts = {"padded_unsound": 0, "padded_missed": 0, "loose_unsound": 0, "loose_missed": 0}
    sample = []
    required = (Ideal(0, 1), AUGMENTATION_IDEAL)
    seen = False
    for inner, row in zip(family, rows):
        for j, outer in enumerate(family):
            actual = bool((row >> j) & 1)
            padded = diagram_order_condition(inner, outer, padded=True)
            loose = diagram_order_condition(inner, outer, padded=False)
            if padded and not actual:
                counts["padded_unsound"] += 1
                bad.add({"law": "printed-condition-unsound", "inner": inner.to_json(), "outer": outer.to_json()})
            if actual and not padded:
                counts["padded_missed"] += 1
                if len(sample) < 10:
                    sample.append({"inner": inner.to_json(), "outer": outer.to_json()})
                seen = seen or (inner, outer) == required
            counts["loose_unsound"] += loose and not actual
            counts["loose_missed"] += actual and not loose
    if not seen:
        bad.add({
            "law": "expected-discrepancy-instance-missing",
            "inner": required[0].to_json(), "outer": required[1].to_json(),
        })
    details = {
        "family": len(family),
        "padded_reading": {
            "unsound_cases": counts["padded_unsound"],
            "missed_inclusions": counts["padded_missed"],
            "sample_missed": sample,
            "expected_instance_shown": seen,
        },
        "unpadded_reading": {
            "unsound_cases": counts["loose_unsound"],
            "missed_inclusions": counts["loose_missed"],
        },
    }
    return bad.count, bad.stored, details


def acc_reference(family, rows, chains, seed):
    """The per-pair loop acc replaced: acc_measure per strict inclusion, chains over ideals."""
    bad = verify._Collector()
    supersets = {}
    for i, inner in enumerate(family):
        supersets[inner] = [family[j] for j in bit_indices(rows[i] & ~(1 << i))]
        for outer in supersets[inner]:
            if not acc_measure(outer) < acc_measure(inner):
                bad.add({
                    "law": "measure-not-decreasing",
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "inner_measure": list(acc_measure(inner)),
                    "outer_measure": list(acc_measure(outer)),
                })
    rng = random.Random(seed)
    step_cap = len(family) + 1
    longest = 0
    for _ in range(chains):
        ideal = rng.choice(family)
        steps = 0
        while supersets[ideal]:
            ideal = rng.choice(supersets[ideal])
            steps += 1
            if steps > step_cap:
                bad.add({"law": "chain-did-not-stabilize", "at": ideal.to_json()})
                break
        longest = max(longest, steps)
    details = {"family": len(family), "chains_run": chains, "longest_chain": longest}
    if bad.count > len(bad.stored):
        details["counterexamples_truncated"] = True
    return bad.count, bad.stored, details


@pytest.mark.parametrize("inner, outer", [
    # a true inclusion the padded reading misses: the required instance disappears
    (Ideal(0, 1), AUGMENTATION_IDEAL),
    # a true inclusion the padded reading finds: dropping it makes the reading unsound
    (Ideal(0, 0, (2,)), Ideal(0, 0, (1,))),
    # a false pair the unpadded reading accepts, made true; for acc a measure
    # that does not drop, and a cycle, so chains stop stabilizing
    (AUGMENTATION_IDEAL, Ideal(0, 0, (1,))),
    # across x and y blocks
    (Ideal(2, 1, (1,), (2,)), Ideal(1, 0, (1,), ())),
])
def test_replays_report_exactly_the_injected_fault(monkeypatch, inner, outer):
    family = enumerate_ideals(*SMALL.values())
    i, j = family.index(inner), family.index(outer)
    rows = ideals.inclusion_rows(family)
    rows[i] ^= 1 << j
    monkeypatch.setattr(verify, "inclusion_rows", lambda fam: list(rows) if fam == family else pytest.fail())

    report = verify.run_suite("split-consistency", SMALL)
    assert (report.failed, report.counterexamples) == split_consistency_reference(family, rows)
    assert report.counterexamples == [{
        "inner": inner.to_json(), "outer": outer.to_json(),
        "full_union": not (rows[i] >> j) & 1, "single_split": bool((rows[i] >> j) & 1),
    }]

    report = verify.run_suite("tord-discrepancy", SMALL)
    failed, stored, details = tord_discrepancy_reference(family, rows)
    assert (report.failed, report.counterexamples, report.details) == (failed, stored, details)
    assert report.passed == 3 * len(family) ** 2 - failed

    report = verify.run_suite("acc", SMALL)
    expected = acc_reference(family, rows, report.grid["chains"], report.grid["seed"])
    assert (report.failed, report.counterexamples, report.details) == expected


def test_condition_rows_follow_a_permuted_family():
    # the rows take any list: a permuted family gives the permuted rows
    family = enumerate_ideals(*SMALL.values())
    n = len(family)
    orders = [list(range(n))[::-1], list(range(1, n)) + [0], random.Random(0).sample(range(n), n)]
    for padded in (True, False):
        rows = ideals._column_rows(family, False, padded)
        for order in orders:
            expected = [sum((rows[a] >> b & 1) << j for j, b in enumerate(order)) for a in order]
            assert ideals._column_rows([family[k] for k in order], False, padded) == expected


@pytest.mark.parametrize("suite, overrides, sha256", [
    # 3 249 codes, 12 314 093 checks; recorded before the law check took the cover walk
    ("tiap-order", {"max_entry": 4},
     "5346a0250136ce64be2bb2292a8c3c8d093471611c8351a1b291d46cb8eb565d"),
    # 6 400 ideals, 51 316 344 checks
    ("ideal-order", {"max_x": 3, "max_y": 3, "max_cols": 3, "max_len": 3},
     "3ba0b7b3f36c0d58d0b7e7e99d23948c17f445130fe15b2aab73ad43fbf63cd0"),
], ids=["tiap-order-max-entry-4", "ideal-order-bounds-3"])
def test_wide_order_reports_are_pinned(suite, overrides, sha256):
    report = verify.run_suite(suite, {**overrides, "ceiling": 10**9})
    assert report.failed == 0
    assert hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest() == sha256
