"""Exhaustive verification suites over frozen, versioned grids.

Every suite replays one closed-form claim against the brute-force route on a
finite grid and returns an exact report: elementary checks performed,
failures, and the counterexamples themselves.  Suites estimate their size
first and refuse to start past the configured ceiling instead of running
unbounded.  Default grids live in ``default_grids.json`` next to this
module, so acceptance runs are reproducible; overrides are explicit.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from importlib import resources
from itertools import chain, combinations_with_replacement, islice
from operator import attrgetter, ge
from pathlib import Path

from .cls_codes import (
    ClsCode,
    ExtSequence,
    _intern,
    _order_rows,
    _pair_table,
    _shift_masks,
    _split_fits,
    bit_indices,
    code_rows,
    cover_walk,
    or_of_rows,
    seq_slack,
)
from .dominance import _equal_ends, _gap_column, _interlaces, _oracle_column, _tight_gaps, _wide_window
from .ideals import (
    AUGMENTATION_IDEAL,
    Ideal,
    _column_rows,
    acc_measure,
    cls_union,
    enumerate_ideals,
    family_size,
    inclusion_rows,
    inclusion_rows_checks,
    is_contained,
)
from .local_systems import _gap_union_column
from .partitions import (
    DEFAULT_CEILING,
    ShiftClass,
    _fields_eq,
    as_array,
    as_int,
    class_count,
    enumerate_classes,
    fields_repr,
)

MAX_STORED_COUNTEREXAMPLES = 50


class UnknownSuiteError(ValueError):
    pass


class GridTooLargeError(ValueError):
    pass


class VerifyReport:
    """Machine-readable outcome of one suite run; counts are exact, never sampled."""

    _fields = ("suite", "grid", "checked", "passed", "failed", "counterexamples", "details")
    _field_values = attrgetter(*_fields)
    __eq__, __repr__ = _fields_eq, fields_repr  # an __eq__ without a __hash__: a mutable record is unhashable

    def __init__(self, suite: str, grid: dict, checked: int, passed: int, failed: int, counterexamples=None, details=None):
        self.suite = suite
        self.grid = grid
        self.checked = checked
        self.passed = passed
        self.failed = failed
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.details = {} if details is None else details

    def to_json(self) -> dict:
        """The fields by name, every nested dict, list and tuple copied."""
        return {name: _copied(getattr(self, name)) for name in self._fields}


def _copied(value):
    # a deep copy of nested dicts, lists and tuples, each as its own type;
    # anything else a report holds is an immutable JSON scalar, shared
    if isinstance(value, dict):
        return type(value)((_copied(k), _copied(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(v) for v in value)
    return value


class _Collector:
    """Exact failure count with a bounded stored sample."""

    def __init__(self):
        self.count = 0
        self.stored: list[dict] = []

    def add(self, item: dict):
        self.count += 1
        if len(self.stored) < MAX_STORED_COUNTEREXAMPLES:
            self.stored.append(item)


def _finish(suite: str, grid: dict, checked: int, bad: _Collector, details: dict | None = None) -> VerifyReport:
    details = dict(details or {})
    if bad.count > len(bad.stored):
        details["counterexamples_truncated"] = True
    return VerifyReport(
        suite=suite,
        grid=grid,
        checked=checked,
        passed=checked - bad.count,
        failed=bad.count,
        counterexamples=bad.stored,
        details=details,
    )


def _guard(projected: int, ceiling: int, suite: str):
    if projected > ceiling:
        raise GridTooLargeError(
            f"suite {suite!r} would run at least {projected} elementary checks, "
            f"above the ceiling of {ceiling}; shrink the grid or raise the ceiling"
        )


def _classes_up_to(max_width: int, bound: int, cap: int) -> int:
    # classes of widths 1..max_width, exact up to cap; each width adds >= 1, so this stops by width cap + 1
    total = 0
    for w in range(1, max_width + 1):
        total += class_count(w, bound, cap)
        if total > cap:
            break
    return total


def load_grid_config(path: str | Path | None = None) -> dict:
    """Grid configuration: the packaged default file, or an explicit override file."""
    if path is None:
        text = resources.files("slinf").joinpath("default_grids.json").read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError(f"a grid configuration must be a JSON object, got {config!r}")
    return config


def run_suite(name: str, overrides: dict | None = None, config: dict | None = None) -> VerifyReport:
    """Run one named suite on its configured grid (plus explicit overrides).

    A grid on which the suite checks nothing raises ValueError: a vacuous
    pass would prove nothing.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; known suites: {', '.join(sorted(_SUITES))}")
    cfg = config if config is not None else load_grid_config()
    grid = {**_grid_of(cfg, name), **(overrides or {})}
    # a key the packaged grid lacks would be echoed in the report as if applied
    keys = {*_grid_of(load_grid_config() if config is not None else cfg, name), "ceiling"}
    for key in grid:
        if key not in keys:
            raise ValueError(f"suite {name!r} takes no grid key {key!r}; its keys are {', '.join(sorted(keys))}")
    for key, value in grid.items():
        # every grid value is an integer, except mu_widths, an array of integers
        for v in as_array(value, key) if key == "mu_widths" else (value,):
            as_int(v, f"grid value {key!r}")
    ceiling = as_int(grid.get("ceiling", cfg.get("ceiling", DEFAULT_CEILING)), "the ceiling")
    try:
        report = _SUITES[name](grid, ceiling)
    except KeyError as exc:
        raise ValueError(f"grid for suite {name!r} is missing key {exc}") from exc
    if report.checked == 0:
        raise ValueError(f"suite {name!r} checked nothing on its grid; widen the grid")
    return report


def _grid_of(cfg, name: str) -> dict:
    """The grid of one suite in a configuration: JSON objects all the way down, else ValueError."""
    suites = cfg.get("suites", {})
    grid = suites.get(name, {}) if isinstance(suites, dict) else None
    if not isinstance(grid, dict):
        raise ValueError(f"'suites' must map suite names to grid objects, got {suites!r}")
    return grid


def suite_names() -> list[str]:
    return sorted(_SUITES)


# ---------------------------------------------------------------------------
# dominance suites
#
# Each suite validates every block of enumerated classes once, column by
# column, and replays the predicates through their kernels, which take
# validated canonical tuples and keep only the checks relating the pair.
# The agreement suites ask for a column of answers per lam and mu width, the
# others ask pair by pair.  Each suite holds the chain oracle's memos, one
# per target, for as long as it asks that target, and leaves none behind.


def _classes(width: int, bound: int) -> list[ShiftClass]:
    """enumerate_classes, checked as one block of canonical Z-partitions of the width, else ValueError.

    The checks read the block's columns: every class is a tuple of the
    width, every entry is exactly an int, each column is >= the next entry
    by entry, and the last column is all 0.
    """
    classes = enumerate_classes(width, bound)
    columns = list(zip(*classes))
    if not (
        set(map(type, classes)) == {tuple}
        and set(map(len, classes)) == {width}
        and set(map(type, chain.from_iterable(columns))) == {int}
        and all(all(map(ge, a, b)) for a, b in zip(columns, columns[1:]))
        and not any(columns[-1])
    ):
        raise ValueError(f"enumerate_classes({width}, {bound}) gave a class that is not a canonical Z-partition")
    return classes


def _agreement_suite(suite: str, first: str, first_column, second: str, second_column):
    """A suite replaying two kernel columns of (lam, mus, memo) against each other, narrow lam by wide mu.

    A column answers one lam against the mus of one width, and its refusals
    read only the widths, so asking the first column and then the second,
    width by width, raises the refusal the pairs would raise first.  Only
    columns that differ are walked, in pair order, for their
    counterexamples.  memo is the chain oracle's for target lam: one dict per
    lam, across its width blocks, dropped when lam changes.
    """

    def run(grid: dict, ceiling: int) -> VerifyReport:
        lam_width, lam_bound = grid["lam_width"], grid["lam_bound"]
        mu_widths, mu_bound = list(grid["mu_widths"]), grid["mu_bound"]
        n_lams = class_count(lam_width, lam_bound, ceiling)
        n_mus = sum(class_count(w, mu_bound, ceiling) for w in mu_widths)
        checked = n_lams * n_mus
        _guard(checked, ceiling, suite)
        bad = _Collector()
        blocks = [_classes(w, mu_bound) for w in mu_widths]
        for lam in _classes(lam_width, lam_bound):
            memo: dict[ShiftClass, bool] = {}
            for mus in blocks:
                answers = first_column(lam, mus, memo), second_column(lam, mus, memo)
                if answers[0] != answers[1]:
                    for mu, a, b in zip(mus, *answers):
                        if a != b:
                            bad.add({"lam": list(lam), "mu": list(mu), first: a, second: b})
        return _finish(suite, grid, checked, bad, {"lam_classes": n_lams, "mu_classes": n_mus})

    return run


def _suite_interlace(grid: dict, ceiling: int) -> VerifyReport:
    max_width, bound = grid["max_width"], grid["bound"]
    # each lam of width wl meets every mu of width <= wl; every width adds at
    # least wl checks, so the count passes the ceiling within ~sqrt(2 ceiling) widths
    checked = up_to = 0
    for w in range(1, max_width + 1):
        count = class_count(w, bound, ceiling)
        up_to += count
        checked += count * up_to
        if checked > ceiling:
            break
    _guard(checked, ceiling, "interlace")
    classes = {w: _classes(w, bound) for w in range(1, max_width + 1)}
    # every lam asks every narrower mu, so each mu's memo lasts the whole run
    memos: dict[ShiftClass, dict[ShiftClass, bool]] = {mu: {} for mus in classes.values() for mu in mus}
    bad = _Collector()
    for wl in range(1, max_width + 1):
        # one oracle column per mu over every lam of width wl: each memo sees
        # its searches in the order the pairs are walked below
        columns = {mu: _oracle_column(mu, classes[wl], memos[mu]) for wm in range(1, wl + 1) for mu in classes[wm]}
        for i, lam in enumerate(classes[wl]):
            for wm in range(1, wl + 1):
                for mu in classes[wm]:
                    fast = _interlaces(lam, mu)
                    oracle = columns[mu][i]
                    if fast != oracle:
                        bad.add({
                            "lam": list(lam), "mu": list(mu),
                            "interlace": fast, "chain_oracle": oracle,
                        })
    return _finish("interlace", grid, checked, bad)


def _suite_lemmas(grid: dict, ceiling: int) -> VerifyReport:
    lam_max, mu_max, bound = grid["lam_max_width"], grid["mu_max_width"], grid["bound"]
    n_lams = _classes_up_to(lam_max, bound, ceiling)
    n_mus = _classes_up_to(mu_max, bound, ceiling)
    checked = 3 * n_lams * n_mus
    # enumerating the classes is work too, even when one side is empty
    _guard(max(checked, n_lams + n_mus), ceiling, "lemmas")
    lam_list = [c for w in range(1, lam_max + 1) for c in _classes(w, bound)]
    mu_list = [c for w in range(1, mu_max + 1) for c in _classes(w, bound)]
    bad = _Collector()
    hits = {"equal_ends": 0, "tight_gaps": 0, "wide_window": 0}
    for lam in lam_list:
        memo: dict[ShiftClass, bool] = {}
        for mu in mu_list:
            fired = {
                "equal_ends": _equal_ends(lam, mu),
                "tight_gaps": _tight_gaps(lam, mu),
                "wide_window": any(_wide_window(lam, mu, i) for i in range(1, len(mu) + 1)),
            }
            dominated = None
            for condition, hit in fired.items():
                if not hit:
                    continue
                hits[condition] += 1
                if dominated is None:
                    dominated = _oracle_column(lam, [mu], memo)[0]
                if not dominated:
                    bad.add({
                        "condition": condition, "lam": list(lam), "mu": list(mu),
                        "chain_oracle": False,
                    })
    return _finish("lemmas", grid, checked, bad, {"hypothesis_hits": hits})


# ---------------------------------------------------------------------------
# partial-order machinery (relation rows as integer bitsets)


def _partial_order_violations(items, rows: list[int], render, bad: _Collector) -> int:
    """Add reflexivity/antisymmetry/transitivity violations to bad; returns the suite's checked count.

    That is n*n relation entries, n reflexivity checks and one containment
    check per edge i -> j (j != i): rows[j] must lie within rows[i], and
    for j > i, rows[j] must not hold i.

    No edge is walked, and none has a fault, when every row i has the
    union of cover_walk within its strict edges strict(i) =
    rows[i] & ~(1 << i).  By induction on |strict(i)|: a pick p has
    strict(p) within the union, so within strict(i), which holds p too;
    so |strict(p)| < |strict(i)| and rows[p] lies within rows[i].  Every
    other edge j lies in strict(p) for some pick p, so by induction rows[j]
    lies within rows[p], hence within rows[i]: transitivity.  Bit i is
    outside the union and no pick, so it is in no such rows[j]:
    antisymmetry.  Only the reflexivity faults, counted first, remain.

    When some row's union strays, the exact walk runs instead.  Row i
    passes it iff or_of_rows (one C-level OR) over its edges adds nothing
    outside rows[i], and the OR over its edges above i leaves bit i clear;
    only a row that fails goes through its edges one at a time, so the
    faults are found, counted and stored in edge order.
    """
    n = len(items)
    for i in range(n):
        if not (rows[i] >> i) & 1:
            bad.add({"law": "reflexivity", "item": render(items[i])})
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    checked = n * n + n + sum(edges.bit_count() for edges in strict)
    if all(not cover_walk(rows, i)[1] & ~edges for i, edges in enumerate(strict)):
        return checked
    for i, edges in enumerate(strict):
        above = or_of_rows(rows, edges >> (i + 1) << (i + 1))
        if not (above >> i) & 1 and not (above | or_of_rows(rows, edges & ((1 << i) - 1))) & ~rows[i]:
            continue
        for j in bit_indices(edges):
            if i < j and (rows[j] >> i) & 1:
                bad.add({"law": "antisymmetry", "a": render(items[i]), "b": render(items[j])})
            missing = rows[j] & ~rows[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                bad.add({
                    "law": "transitivity",
                    "a": render(items[i]), "b": render(items[j]), "c": render(items[k]),
                })
    return checked


def _code_grid(grid: dict) -> tuple[list[ExtSequence], list[ClsCode]]:
    """The grid's sequences and every code built from two of them, in canonical order."""
    if grid["max_entry"] < 0:  # the head range would be empty, as at max_entry 0
        raise ValueError(f"grid value 'max_entry' must be >= 0, got {grid['max_entry']}")
    seqs = []
    for inf_count in range(grid["max_inf"] + 1):
        for tail in range(grid["max_tail"] + 1):
            for hlen in range(grid["max_head_len"] + 1):
                for head in combinations_with_replacement(range(grid["max_entry"], tail, -1), hlen):
                    seqs.append(ExtSequence(inf_count, head, tail))
    codes = sorted((ClsCode(p, q) for p in seqs for q in seqs if p.tail == q.tail), key=ClsCode.sort_key)
    return seqs, codes


def _suite_tiap_order(grid: dict, ceiling: int) -> VerifyReport:
    seqs, codes = _code_grid(grid)
    n = len(codes)
    # n*n relation evaluations, then at most n*n containment checks for the
    # composed relation; all triples are covered through the composition.
    projected = 2 * n * n + n
    _guard(projected, ceiling, "tiap-order")
    bad = _Collector()
    checked = _partial_order_violations(codes, code_rows(codes), ClsCode.to_json, bad)
    return _finish("tiap-order", grid, checked, bad, {"codes": n, "sequences": len(seqs)})


def _suite_code_slack(grid: dict, ceiling: int) -> VerifyReport:
    """code_included's slack criterion, code_rows and the split search, on tables over the interned sequences.

    The split search ANDs the oracle's _shift_masks, t - s + 1 pointwise tests
    per pair of tails s <= t; the guard sums them with running totals by tail.
    """
    seqs, codes = _code_grid(grid)
    n = len(codes)
    tails = Counter(seq.tail for seq in seqs)
    below = weighted = shifts = 0
    for t in sorted(tails):
        below, weighted = below + tails[t], weighted + t * tails[t]
        shifts += tails[t] * ((t + 1) * below - weighted)
    _guard(max(n * n, shifts), ceiling, "code-slack")
    bad = _Collector()
    index: dict[ExtSequence, int] = {}
    keys = [_intern(index, code) for code in codes]
    slacks = _pair_table(seq_slack, index)
    masks = _pair_table(_shift_masks, index)
    for inner, (limit, p, q), row in zip(codes, keys, code_rows(codes)):
        slack_p, slack_q, masks_p, masks_q = slacks[p], slacks[q], masks[p], masks[q]
        for j, (outer, (m, pj, qj)) in enumerate(zip(codes, keys)):
            slack = _split_fits(m - limit, slack_p[pj], slack_q[qj])
            in_rows = bool((row >> j) & 1)
            oracle = bool(masks_p[pj][0] & masks_q[qj][1])
            if not slack == in_rows == oracle:
                bad.add({
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "slack": slack, "code_rows": in_rows, "split_search": oracle,
                })
    return _finish("code-slack", grid, n * n, bad, {"codes": n, "sequences": len(seqs)})


# ---------------------------------------------------------------------------
# ideal suites


def _ideal_rows(grid: dict, ceiling: int, suite: str, projected) -> tuple[int, list[Ideal], list[int]]:
    """(n, family, inclusion_rows(family)) for the grid's family of n ideals, guarded before enumerating.

    The guard takes the suite's projected(n) checks, or the work of
    inclusion_rows (inclusion_rows_checks) if that weighs more.
    """
    bounds = grid["max_x"], grid["max_y"], grid["max_cols"], grid["max_len"]
    n = family_size(*bounds, ceiling)
    _guard(max(projected(n), inclusion_rows_checks(*bounds, ceiling)), ceiling, suite)
    family = enumerate_ideals(*bounds)
    return n, family, inclusion_rows(family)


def _suite_ideal_order(grid: dict, ceiling: int) -> VerifyReport:
    n, family, rows = _ideal_rows(grid, ceiling, "ideal-order", lambda n: 2 * n * n + n)
    bad = _Collector()
    checked = _partial_order_violations(family, rows, Ideal.to_json, bad)
    return _finish("ideal-order", grid, checked, bad, {"family": n})


def _suite_maximal(grid: dict, ceiling: int) -> VerifyReport:
    bounds = grid["max_x"], grid["max_y"], grid["max_cols"], grid["max_len"]
    n = family_size(*bounds, ceiling)
    checked = n * n + n
    _guard(checked, ceiling, "maximal")  # no rows built: the pairs alone
    family = enumerate_ideals(*bounds)
    bad = _Collector()
    for ideal in family:
        if not is_contained(ideal, AUGMENTATION_IDEAL):
            bad.add({"law": "below-augmentation", "ideal": ideal.to_json()})
    for ideal in family:
        has_strict_superset = any(
            other != ideal and is_contained(ideal, other) for other in family
        )
        if ideal == AUGMENTATION_IDEAL and has_strict_superset:
            bad.add({"law": "augmentation-not-maximal", "ideal": ideal.to_json()})
        if ideal != AUGMENTATION_IDEAL and not has_strict_superset:
            bad.add({"law": "unexpected-maximal", "ideal": ideal.to_json()})
    return _finish("maximal", grid, checked, bad, {"family": n})


def _suite_acc(grid: dict, ceiling: int) -> VerifyReport:
    chains = int(grid.get("chains", 1000))
    if chains < 0:
        raise ValueError(f"grid value 'chains' must be >= 0, got {chains}")
    n, family, rows = _ideal_rows(grid, ceiling, "acc", lambda n: n * n + chains)
    checked = n * n + chains
    bad = _Collector()
    # each ideal's measure once, and its strict supersets as indices into family
    measures = [acc_measure(ideal) for ideal in family]
    supersets = [list(bit_indices(row & ~(1 << i))) for i, row in enumerate(rows)]
    for inner, measure, above in zip(family, measures, supersets):
        for j in above:
            if not measures[j] < measure:
                bad.add({
                    "law": "measure-not-decreasing",
                    "inner": inner.to_json(), "outer": family[j].to_json(),
                    "inner_measure": list(measure),
                    "outer_measure": list(measures[j]),
                })
    rng = random.Random(int(grid.get("seed", 0)))
    step_cap = len(family) + 1
    longest = 0
    for _ in range(chains):
        # choice from a range draws as choice from family does
        k = rng.choice(range(len(family)))
        steps = 0
        while supersets[k]:
            k = rng.choice(supersets[k])
            steps += 1
            if steps > step_cap:
                bad.add({"law": "chain-did-not-stabilize", "at": family[k].to_json()})
                break
        longest = max(longest, steps)
    return _finish(
        "acc", grid, checked, bad,
        {"family": n, "chains_run": chains, "longest_chain": longest},
    )


def _full_union_rows(family: list[Ideal]) -> list[int]:
    """The reference of split-consistency: inclusion_rows decided on the full code unions, nonzero families only.

    One pass over the family's distinct codes, by mask algebra.  The
    down-set of each code (the codes included in it) comes from the slack
    table of code_rows, read transposed.  cov_i, the codes included in some
    code of ideal i, is the OR of the down-sets of ideal i's codes.  Ideal i
    lies below ideal j iff every code of j is in cov_i, so row i is every
    ideal except those that have a code outside cov_i: the OR of has[k]
    (the ideals with code k) over the codes k not in cov_i.  That takes one
    OR per code outside cov_i, so the cost is quadratic in the family.
    """
    index: dict[ClsCode, int] = {}
    masks = [sum(1 << index.setdefault(c, len(index)) for c in cls_union(ideal)) for ideal in family]
    down = _order_rows(list(index), down=True)
    has = [0] * len(index)
    for j, mask in enumerate(masks):
        for k in bit_indices(mask):
            has[k] |= 1 << j
    all_codes = (1 << len(index)) - 1
    full = (1 << len(family)) - 1
    return [full & ~or_of_rows(has, all_codes & ~or_of_rows(down, mask)) for mask in masks]


def _suite_split_consistency(grid: dict, ceiling: int) -> VerifyReport:
    # the full-union reference orders the family's codes, x + 1 per ideal of
    # x: n (max_x + 2) / 2 codes, at 64 code pairs to a check
    n, family, rows = _ideal_rows(
        grid, ceiling, "split-consistency", lambda n: max(n * n, (n * (grid["max_x"] + 2) // 2) ** 2 // 64)
    )
    checked = n * n
    bad = _Collector()
    # inclusion_rows decides on each outer ideal's (x, 0) split alone, from
    # the columns; the pairs where the full code unions differ are walked in
    # pair order
    for inner, single, full in zip(family, rows, _full_union_rows(family)):
        for j in bit_indices(single ^ full):
            bad.add({
                "inner": inner.to_json(), "outer": family[j].to_json(),
                "full_union": bool(full >> j & 1), "single_split": bool(single >> j & 1),
            })
    return _finish("split-consistency", grid, checked, bad, {"family": n})


def _suite_tord_discrepancy(grid: dict, ceiling: int) -> VerifyReport:
    n, family, actual = _ideal_rows(grid, ceiling, "tord-discrepancy", lambda n: 3 * n * n)
    # diagram_order_condition is _columns_fit without the shift by dy
    padded = _column_rows(family, False, True)
    loose = _column_rows(family, False, False)

    def count(over: list[int], under: list[int]) -> int:
        return sum((o & ~u).bit_count() for o, u in zip(over, under))

    def pairs(over: list[int], under: list[int]):
        # the pairs of over & ~under, in pair order; counts read the rows instead
        for inner, o, u in zip(family, over, under):
            for j in bit_indices(o & ~u):
                yield {"inner": inner.to_json(), "outer": family[j].to_json()}

    bad = _Collector()
    for pair in pairs(padded, actual):
        # the one direction that would invalidate the printed form even as
        # documentation: it must stay sound
        bad.add({"law": "printed-condition-unsound", **pair})
    required_inner, required_outer = Ideal(0, 1, (), ()), AUGMENTATION_IDEAL
    # the augmentation ideal is in every enumerated family
    required_seen = required_inner in family and bool(
        (actual[i := family.index(required_inner)] & ~padded[i]) >> family.index(required_outer) & 1
    )
    if not required_seen:
        bad.add({
            "law": "expected-discrepancy-instance-missing",
            "inner": required_inner.to_json(), "outer": required_outer.to_json(),
        })
    details = {
        "family": n,
        "padded_reading": {
            "unsound_cases": count(padded, actual),
            "missed_inclusions": count(actual, padded),
            "sample_missed": list(islice(pairs(actual, padded), 10)),
            "expected_instance_shown": required_seen,
        },
        "unpadded_reading": {"unsound_cases": count(loose, actual), "missed_inclusions": count(actual, loose)},
    }
    return _finish("tord-discrepancy", grid, 3 * n * n, bad, details)


def _avoiding_column(lam: ShiftClass, mus: list[ShiftClass], memo: dict[ShiftClass, bool]) -> list[bool]:
    """The avoiding system's membership through the chain oracle: mu belongs iff it does not dominate lam."""
    return [not dominates for dominates in _oracle_column(lam, mus, memo)]


# the suites call the kernels that the public predicates ask for columns of
# one, so they replay the code those run, while wrappers on the public names
# see no suite pairs; the closed-form columns search nothing and take no memo
_SUITES = {
    # the chain oracle asked whether each mu dominates lam
    "lgts2": _agreement_suite(
        "lgts2", "gap_criterion", lambda lam, mus, memo: _gap_column(lam, mus), "chain_oracle", _oracle_column
    ),
    "interlace": _suite_interlace,
    "lemmas": _suite_lemmas,
    "pmain": _agreement_suite(
        "pmain", "avoiding_system", _avoiding_column, "gap_union", lambda lam, mus, memo: _gap_union_column(lam, mus)
    ),
    "tiap-order": _suite_tiap_order,
    "code-slack": _suite_code_slack,
    "ideal-order": _suite_ideal_order,
    "maximal": _suite_maximal,
    "acc": _suite_acc,
    "split-consistency": _suite_split_consistency,
    "tord-discrepancy": _suite_tord_discrepancy,
}
