import tracemalloc
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from slinf.cls_codes import (
    INF,
    ClsCode,
    _order_rows,
    ExtSequence,
    code_included,
    code_included_oracle,
    code_rows,
    seq_leq_shifted,
    seq_slack,
    union_included,
)


def small_sequences(max_inf=1, max_head_len=2, max_entry=2, max_tail=1):
    out = []
    for inf_count in range(max_inf + 1):
        for tail in range(max_tail + 1):
            for hlen in range(max_head_len + 1):
                for head in combinations_with_replacement(range(max_entry, tail, -1), hlen):
                    out.append(ExtSequence(inf_count, head, tail))
    return out


ext_sequences = st.builds(
    lambda inf, raw, tail: ExtSequence(inf, tuple(sorted((v + tail for v in raw), reverse=True)), tail),
    st.integers(0, 2),
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(0, 2),
)


def test_normalize_examples():
    assert ExtSequence(0, (3, 1, 1), 1).normalized() == ExtSequence(0, (3,), 1)
    s = ExtSequence(2, (), 0)
    assert s.normalized() == s
    assert ExtSequence(0, (0,), 0).normalized() == ExtSequence(0, (), 0)


@given(ext_sequences)
def test_normalize_idempotent_and_value_preserving(seq):
    norm = seq.normalized()
    assert norm.normalized() == norm
    assert norm.is_normalized
    for i in range(1, seq.significant_length + 2):
        assert seq.value_at(i) == norm.value_at(i)


def test_sequence_validation():
    with pytest.raises(ValueError):
        ExtSequence(-1, (), 0)
    with pytest.raises(ValueError):
        ExtSequence(0, (), -1)
    with pytest.raises(ValueError):
        ExtSequence(0, (0,), 1)  # head entry below the tail
    with pytest.raises(ValueError):
        ExtSequence(0, (1, 2), 0)  # increasing head


def test_constructor_refuses_non_integers():
    # each of these used to construct: isinstance accepts True, and inf_count/tail were not checked
    for args in ((True, (), 1.5), (0, (), 1.5), (1.0, (), 0), (0, (True,), 0), (0, (2.0,), 1), (0, (), "0")):
        with pytest.raises(ValueError, match="must be an integer"):
            ExtSequence(*args)


def test_value_at():
    s = ExtSequence(2, (5, 3), 1)
    assert [s.value_at(i) for i in range(1, 7)] == [INF, INF, 5, 3, 1, 1]
    with pytest.raises(ValueError):
        s.value_at(0)


def test_seq_leq_shifted_examples():
    zero = ExtSequence.constant(0)
    one = ExtSequence.constant(1)
    assert seq_leq_shifted(zero, one, 1) is True
    s = ExtSequence(1, (4, 2), 1)
    assert seq_leq_shifted(s, s, 0) is True
    assert seq_leq_shifted(ExtSequence(1, (), 0), zero, 0) is False


def test_seq_leq_shifted_rejects_negative_shift():
    with pytest.raises(ValueError):
        seq_leq_shifted(ExtSequence.constant(0), ExtSequence.constant(1), -1)


def test_seq_leq_shifted_antitone_in_shift():
    seqs = small_sequences()
    for inner in seqs:
        for outer in seqs:
            for a in range(3, 0, -1):
                if seq_leq_shifted(inner, outer, a):
                    for smaller in range(a):
                        assert seq_leq_shifted(inner, outer, smaller), (inner, outer, a)


def test_code_included_examples():
    c0 = ClsCode(ExtSequence.constant(0), ExtSequence.constant(0))
    c1 = ClsCode(ExtSequence.constant(1), ExtSequence.constant(1))
    assert code_included(c0, c1) is True
    assert code_included(c1, c1) is True
    m2 = ClsCode(ExtSequence.constant(2), ExtSequence.constant(2))
    assert code_included(m2, c1) is False


def test_code_tail_mismatch_rejected():
    with pytest.raises(ValueError):
        ClsCode(ExtSequence.constant(0), ExtSequence.constant(1))


def test_union_included_examples():
    c0 = ClsCode(ExtSequence.constant(0), ExtSequence.constant(0))
    c1 = ClsCode(ExtSequence.constant(1), ExtSequence.constant(1))
    assert union_included([c0], [c1]) is True
    assert union_included([c0, c1], [c0, c1]) is True
    cinf = ClsCode(ExtSequence(1, (), 0), ExtSequence.constant(0))
    assert union_included([cinf], [c0]) is False


def test_partial_order_on_small_codes():
    seqs = small_sequences()
    codes = [ClsCode(p, q) for p in seqs for q in seqs if p.tail == q.tail]
    included = {
        (i, j)
        for i, a in enumerate(codes)
        for j, b in enumerate(codes)
        if code_included(a, b)
    }
    for i in range(len(codes)):
        assert (i, i) in included
    for i, j in included:
        if (j, i) in included:
            assert codes[i] == codes[j]
    for i, j in included:
        for k, b in enumerate(codes):
            if (j, k) in included:
                assert (i, k) in included


def test_normalize_preserves_inclusion():
    seqs = small_sequences(max_inf=1, max_head_len=1, max_entry=2, max_tail=1)
    codes = [ClsCode(p, q) for p in seqs for q in seqs if p.tail == q.tail]

    def denormalized(code):
        # append one tail copy to each half: same encoded sequences
        return ClsCode(
            ExtSequence(code.p.inf_count, code.p.head + (code.p.tail,), code.p.tail),
            ExtSequence(code.q.inf_count, code.q.head + (code.q.tail,), code.q.tail),
        )

    for a in codes:
        for b in codes:
            expected = code_included(a, b)
            assert code_included(denormalized(a), b) == expected
            assert code_included(a, denormalized(b)) == expected
            assert code_included(denormalized(a), denormalized(b)) == expected
            assert a.normalized() == denormalized(a).normalized()


def test_json_round_trip():
    code = ClsCode(ExtSequence(1, (5, 3), 2), ExtSequence(0, (4,), 2))
    assert ClsCode.from_json(code.to_json()) == code
    assert code.to_json() == {
        "p": {"inf": 1, "head": [5, 3], "tail": 2},
        "q": {"inf": 0, "head": [4], "tail": 2},
    }


def _sequences_with_tail(tail):
    return st.builds(
        lambda inf, head: ExtSequence(inf, tuple(sorted(head, reverse=True)), tail),
        st.integers(0, 3),
        st.lists(st.integers(tail, 5), max_size=3),
    )


# past the frozen tiap-order grid (entries <= 3, tails <= 2); heads may end in
# copies of the tail, so unnormalized codes are drawn too
wide_codes = st.integers(0, 3).flatmap(
    lambda m: st.builds(ClsCode, _sequences_with_tail(m), _sequences_with_tail(m))
)


# up to 3 infinities and 4 head entries; a raw 0 is a head entry equal to the
# tail, so unnormalized heads are drawn too
slack_sequences = st.builds(
    lambda inf, raw, tail: ExtSequence(inf, tuple(sorted((v + tail for v in raw), reverse=True)), tail),
    st.integers(0, 3),
    st.lists(st.integers(0, 4), max_size=4),
    st.integers(0, 3),
)


@given(slack_sequences, slack_sequences)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_seq_slack_is_the_largest_admissible_shift(inner, outer):
    slack = seq_slack(inner, outer)
    for a in range(11):
        assert seq_leq_shifted(inner, outer, a) == (a <= slack)


def split_search(inner: ClsCode, outer: ClsCode) -> bool:
    """The definition of the code order: some split a + b = d of the limit difference fits both halves."""
    d = outer.limit - inner.limit
    return any(
        seq_leq_shifted(inner.p, outer.p, a) and seq_leq_shifted(inner.q, outer.q, d - a)
        for a in range(d + 1)
    )


def _sequences_above(tail):
    # heads reach 8 above the tail, so a half fits some shifts of a long split and fails others
    return st.builds(
        lambda inf, raw: ExtSequence(inf, tuple(sorted((v + tail for v in raw), reverse=True)), tail),
        st.integers(0, 2),
        st.lists(st.integers(0, 8), max_size=3),
    )


# limits 0..12 on either side, so d runs from -12 to 12
limited_codes = st.integers(0, 12).flatmap(lambda m: st.builds(ClsCode, _sequences_above(m), _sequences_above(m)))


@given(limited_codes, limited_codes)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_code_included_oracle_is_the_split_search(inner, outer):
    assert code_included_oracle(inner, outer) == split_search(inner, outer)


# limits 0..3 and heads up to 5 mixed in one list, so the rows and their
# transpose meet every limit difference 0..3 and every deficit 0..5
@given(st.integers(0, 30).flatmap(lambda n: st.lists(wide_codes, min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_code_rows_match_split_search(codes):
    expected = [
        sum(1 << j for j, outer in enumerate(codes) if code_included_oracle(inner, outer))
        for inner in codes
    ]
    assert code_rows(codes) == expected
    assert _order_rows(codes, down=True) == [
        sum(1 << i for i, row in enumerate(expected) if (row >> j) & 1) for j in range(len(codes))
    ]
    assert all(
        code_included(inner, outer) == bool((row >> j) & 1)
        for inner, row in zip(codes, expected)
        for j, outer in enumerate(codes)
    )


def _lifted(code: ClsCode, k: int) -> ClsCode:
    """The code with k added to every entry of both halves: its limit moves up by k."""
    return ClsCode(*(ExtSequence(s.inf_count, tuple(v + k for v in s.head), s.tail + k) for s in (code.p, code.q)))


# the same codes lifted apart by thousands, so the limits spread far wider
# than the deficits; code_included (checked against the split search above)
# is the reference, since the search runs over every split of the spread
@given(st.lists(st.tuples(wide_codes, st.integers(0, 5)), max_size=24))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_code_rows_match_code_included_across_a_wide_limit_spread(drawn):
    codes = [_lifted(code, 1000 * k) for code, k in drawn]
    expected = [sum(1 << j for j, outer in enumerate(codes) if code_included(inner, outer)) for inner in codes]
    assert code_rows(codes) == expected
    assert _order_rows(codes, down=True) == [
        sum(1 << i for i, row in enumerate(expected) if (row >> j) & 1) for j in range(len(codes))
    ]


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_code_rows_cost_does_not_grow_with_the_limit_spread():
    # 100 codes with limits 30 apart: a spread of about 3000, three deficits.
    # The masks come one per deficit level, not one per limit difference, so
    # building the rows takes little more memory than the slack table alone.
    codes = [
        ClsCode(ExtSequence(0, (m + 1 + i % 3,), m), ExtSequence(1, (m + 2 - i % 3,), m))
        for i, m in enumerate(range(0, 3000, 30))
    ]
    seqs = list(dict.fromkeys(s for c in codes for s in (c.p, c.q)))
    table = _peak_bytes(lambda: [[seq_slack(a, b) for b in seqs] for a in seqs])
    for down in (False, True):
        assert _peak_bytes(lambda: _order_rows(codes, down)) < 2 * table
