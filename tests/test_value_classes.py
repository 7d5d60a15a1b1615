"""The value classes' own contract: equality, hash, repr, immutability and refusals.

Each of ExtSequence, ClsCode, Ideal, Weight, LevelWindow and LocalSystem is
an immutable value: equal fields make equal instances with equal hashes (the
hash of the tuple of fields, so sets of them iterate in a fixed order), an
instance of another class is never equal, the repr lists the fields, and
assigning or deleting a field raises AttributeError; a class decorated with
``partitions.frozen`` alone gets that equality and hash.  VerifyReport is a
mutable record whose to_json is a deep copy in the layout of
``dataclasses.asdict``.
"""

import dataclasses

import pytest

from slinf.cls_codes import ClsCode, ExtSequence
from slinf.ideals import ZERO_IDEAL, Ideal, Weight
from slinf.local_systems import LevelWindow, LocalSystem, avoiding_system
from slinf.partitions import frozen
from slinf.verify import VerifyReport, run_suite


def _members(mus):
    return [True for _ in mus]


# (class, field names, a factory making a fresh instance of fixed fields)
VALUES = [
    (ExtSequence, ("inf_count", "head", "tail"), lambda: ExtSequence(1, [4, 2], 1)),
    (ClsCode, ("p", "q"), lambda: ClsCode(ExtSequence(0, (3,), 1), ExtSequence(2, (), 1))),
    (Ideal, ("x", "y", "yl", "yr", "zero"), lambda: Ideal(1, 2, [2, 1], (3,))),
    (Weight, ("coefficients", "odd_tail"), lambda: Weight([(1, 1), [2, 0], (2, 0)], 2)),
    (LevelWindow, ("n_min", "n_max", "entry_bound"), lambda: LevelWindow(2, 5, 3)),
    (LocalSystem, ("members", "description"), lambda: LocalSystem(_members, "every class")),
]

REPRS = [
    (ExtSequence(1, [4, 2], 1), "ExtSequence(inf_count=1, head=(4, 2), tail=1)"),
    (
        ClsCode(ExtSequence(0, (3,), 1), ExtSequence(2, (), 1)),
        "ClsCode(p=ExtSequence(inf_count=0, head=(3,), tail=1), q=ExtSequence(inf_count=2, head=(), tail=1))",
    ),
    (Ideal(), "Ideal(x=0, y=0, yl=(), yr=(), zero=False)"),
    (Ideal(1, 2, [2, 1], (3,)), "Ideal(x=1, y=2, yl=(2, 1), yr=(3,), zero=False)"),
    (ZERO_IDEAL, "Ideal(x=0, y=0, yl=(), yr=(), zero=True)"),
    (Weight([(1, 1), [2, 0], (2, 0)], 2), "Weight(coefficients=((1, 1), (2, 0)), odd_tail=2)"),
    (LevelWindow(2, 5, 3), "LevelWindow(n_min=2, n_max=5, entry_bound=3)"),
    (LocalSystem(_members, "every class"), f"LocalSystem(members={_members!r}, description='every class')"),
]

# every refusal of the constructors, with the start of its message
REFUSALS = [
    (lambda: ExtSequence(True, (), 1), "inf_count must be an integer"),
    (lambda: ExtSequence(0, (), 1.5), "tail must be an integer"),
    (lambda: ExtSequence(True, (), 1.5), "inf_count must be an integer"),
    (lambda: ExtSequence(-1, (), 0), "inf_count must be >= 0"),
    (lambda: ExtSequence(0, (), -1), "tail must be >= 0"),
    (lambda: ExtSequence(0, (2.0,), 1), "a head entry must be an integer"),
    (lambda: ExtSequence(0, (3, 0), 1), "head entry 0 below the tail 1"),
    (lambda: ExtSequence(0, (2, 3), 1), "head must be nonincreasing: [2, 3]"),
    (lambda: ClsCode(ExtSequence(0, (), 1), ExtSequence(0, (), 2)), "both halves must share their limit: 1 != 2"),
    (lambda: Ideal(x=True), "x must be an integer"),
    (lambda: Ideal(y=1.0), "y must be an integer"),
    (lambda: Ideal(yl=(1, 2)), "column lengths must be nonincreasing"),
    (lambda: Ideal(yr=(0,)), "column lengths must be positive integers"),
    (lambda: Ideal(yr=(True,)), "a column length must be an integer"),
    (lambda: Ideal(x=-1), "x and y must be nonnegative"),
    (lambda: Ideal(y=1, zero=True), "the zero ideal carries no data"),
    (lambda: Weight((), -1), "odd_tail must be >= 0"),
    (lambda: LevelWindow(1, 3, 2), "need 2 <= n_min <= n_max, got 1..3"),
    (lambda: LevelWindow(4, 3, 2), "need 2 <= n_min <= n_max, got 4..3"),
    (lambda: LevelWindow(2, 3, -1), "entry_bound must be >= 0"),
]


@pytest.mark.parametrize("cls, fields, make", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_equal_fields_make_equal_values_with_the_tuple_hash(cls, fields, make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    values = tuple(getattr(a, name) for name in fields)
    assert hash(a) == hash(b) == hash(values)
    assert vars(a) == dict(zip(fields, values))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, make", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_another_class_is_never_equal(cls, fields, make):
    a = make()
    values = tuple(getattr(a, name) for name in fields)
    for other in (values, dict(zip(fields, values)), None, 0, object(), ZERO_IDEAL, ExtSequence(0, (), 0)):
        if type(other) is cls:
            continue
        assert a != other and other != a
        assert not a == other
    assert a.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, fields, make", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, make):
    a = make()
    before = repr(a)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == before


@pytest.mark.parametrize("value, text", REPRS, ids=[t.split("(")[0] + str(i) for i, (_, t) in enumerate(REPRS)])
def test_repr_lists_the_fields(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("build, message", REFUSALS, ids=range(len(REFUSALS)))
def test_constructors_refuse_what_they_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value).startswith(message)


def test_constructors_take_the_same_arguments():
    assert Ideal() == Ideal(0, 0, (), (), False) == Ideal(x=0, y=0, yl=[], yr=[], zero=False)
    assert Ideal(zero=True) == ZERO_IDEAL and ZERO_IDEAL != Ideal()
    assert ExtSequence(inf_count=0, head=[3], tail=1) == ExtSequence(0, (3,), 1)
    assert ClsCode(p=ExtSequence.constant(2), q=ExtSequence.constant(2)).limit == 2
    assert Weight(coefficients=[(1, 0), (0, 0), (1, 0)], odd_tail=1).coefficients == ()
    assert LevelWindow(n_min=2, n_max=2, entry_bound=0).widths() == range(2, 3)
    assert LocalSystem(members=_members, description="d") == LocalSystem(_members, "d")
    with pytest.raises(TypeError):
        Ideal(0, 0, (), (), False, 1)
    with pytest.raises(TypeError):
        ExtSequence(0, ())
    with pytest.raises(TypeError):
        LocalSystem(_members)


def test_systems_compare_by_their_column_and_description():
    a = avoiding_system([2, 0])
    assert a == a and a != avoiding_system([2, 0])  # each call makes its own column
    assert LocalSystem(a.members, a.description) == a


@frozen
class _Pair:
    # no __eq__ or __hash__ of its own: frozen derives both from _fields
    _fields = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


@frozen
class _Twin:
    # another value class, of the same fields
    _fields = ("left", "right")
    __init__ = _Pair.__init__


class _SubPair(_Pair):
    pass


def test_frozen_alone_compares_and_hashes_by_the_fields():
    a, b = _Pair(1, (2, 3)), _Pair(1, (2, 3))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash((1, (2, 3)))
    assert a != _Pair(1, (2, 4)) and a != _Pair(0, (2, 3)) and not a == _Pair(0, (2, 3))
    assert len({a, b, _Pair(0, ())}) == 2
    for other in (_Twin(1, (2, 3)), _SubPair(1, (2, 3)), (1, (2, 3)), {"left": 1, "right": (2, 3)}, None):
        assert a != other and other != a and not a == other and not other == a
        assert a.__eq__(other) is NotImplemented


@dataclasses.dataclass
class _ReportFields:
    # VerifyReport's fields, to read dataclasses.asdict's layout from
    suite: str
    grid: dict
    checked: int
    passed: int
    failed: int
    counterexamples: list = dataclasses.field(default_factory=list)
    details: dict = dataclasses.field(default_factory=dict)


def _reports():
    nested = VerifyReport(
        "s", {"max_width": 3, "mu_widths": [2, 3]}, 5, 3, 2,
        [{"lam": [2, 1, 0], "pair": (1, [2, (3, 4)])}, {"k": {"deep": [1]}}],
        {"truncated": True, "counts": {"a": 1}, "pairs": [(0, 1)]},
    )
    return [VerifyReport("empty", {}, 0, 0, 0), nested, run_suite("lemmas")]


def test_report_to_json_is_asdict_and_a_copy():
    for report in _reports():
        expected = dataclasses.asdict(_ReportFields(**vars(report)))
        out = report.to_json()
        assert out == expected and list(out) == list(expected)
        assert repr(out) == repr(expected)  # the same containers: tuples stay tuples
        before = repr(report)
        out["grid"]["added"] = 1
        out["counterexamples"].append({})
        out["details"]["added"] = 1
        for item in out["counterexamples"]:
            for value in item.values():
                if isinstance(value, (list, dict)):
                    value.clear()
        assert repr(report) == before


def test_reports_are_mutable_unhashable_records():
    report = VerifyReport("s", {"g": 1}, 2, 2, 0)
    assert report.counterexamples == [] and report.details == {}
    assert VerifyReport("t", {}, 0, 0, 0).counterexamples is not VerifyReport("t", {}, 0, 0, 0).counterexamples
    assert repr(report) == (
        "VerifyReport(suite='s', grid={'g': 1}, checked=2, passed=2, failed=0, counterexamples=[], details={})"
    )
    assert report == VerifyReport("s", {"g": 1}, 2, 2, 0, [], {})
    assert report != VerifyReport("s", {"g": 1}, 2, 1, 1) and report != _ReportFields("s", {"g": 1}, 2, 2, 0)
    with pytest.raises(TypeError):
        hash(report)
    report.failed = 1
    report.details["x"] = 1
    assert (report.failed, report.details) == (1, {"x": 1})
