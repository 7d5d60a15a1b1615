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
import math
import random
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations_with_replacement
from pathlib import Path

from .cls_codes import (
    ClsCode,
    ExtSequence,
    bit_indices,
    code_included,
    code_included_oracle,
    code_rows,
    union_included,
)
from .dominance import (
    dominates_interlace,
    dominates_oracle,
    equal_ends_hypotheses,
    gap_criterion,
    tight_gaps_hypotheses,
    wide_window_hypotheses,
)
from .ideals import (
    AUGMENTATION_IDEAL,
    Ideal,
    acc_measure,
    cls_union,
    code_sequence,
    diagram_order_condition,
    enumerate_ideals,
    inclusion_rows,
    is_contained,
)
from .local_systems import avoiding_system_contains, gap_union_contains
from .partitions import enumerate_classes

DEFAULT_CEILING = 10_000_000
MAX_STORED_COUNTEREXAMPLES = 50


class UnknownSuiteError(ValueError):
    pass


class GridTooLargeError(ValueError):
    pass


@dataclass
class VerifyReport:
    """Machine-readable outcome of one suite run; counts are exact, never sampled."""

    suite: str
    grid: dict
    checked: int
    passed: int
    failed: int
    counterexamples: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "grid": self.grid,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }


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
            f"suite {suite!r} would run {projected} elementary checks, "
            f"above the ceiling of {ceiling}; shrink the grid or raise the ceiling"
        )


def _class_count(width: int, bound: int) -> int:
    return math.comb(width - 1 + bound, bound)


def load_grid_config(path: str | Path | None = None) -> dict:
    """Grid configuration: the packaged default file, or an explicit override file."""
    if path is None:
        text = resources.files("slinf").joinpath("default_grids.json").read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return json.loads(text)


def run_suite(name: str, overrides: dict | None = None, config: dict | None = None) -> VerifyReport:
    """Run one named suite on its configured grid (plus explicit overrides).

    A grid on which the suite checks nothing raises ValueError: a vacuous
    pass would prove nothing.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; known suites: {', '.join(sorted(_SUITES))}")
    cfg = config if config is not None else load_grid_config()
    grid = dict(cfg.get("suites", {}).get(name, {}))
    grid.update(overrides or {})
    ceiling = int(grid.get("ceiling", cfg.get("ceiling", DEFAULT_CEILING)))
    try:
        report = _SUITES[name](grid, ceiling)
    except KeyError as exc:
        raise ValueError(f"grid for suite {name!r} is missing key {exc}") from exc
    if report.checked == 0:
        raise ValueError(f"suite {name!r} checked nothing on its grid; widen the grid")
    return report


def suite_names() -> list[str]:
    return sorted(_SUITES)


# ---------------------------------------------------------------------------
# dominance suites


def _agreement_suite(suite: str, first: str, first_fn, second: str, second_fn):
    """A suite replaying two predicates of (lam, mu) against each other, narrow lam by wide mu."""

    def run(grid: dict, ceiling: int) -> VerifyReport:
        lam_width, lam_bound = grid["lam_width"], grid["lam_bound"]
        mu_widths, mu_bound = list(grid["mu_widths"]), grid["mu_bound"]
        n_lams = _class_count(lam_width, lam_bound)
        n_mus = sum(_class_count(w, mu_bound) for w in mu_widths)
        checked = n_lams * n_mus
        _guard(checked, ceiling, suite)
        bad = _Collector()
        for lam in enumerate_classes(lam_width, lam_bound):
            for w in mu_widths:
                for mu in enumerate_classes(w, mu_bound):
                    a = first_fn(lam, mu)
                    b = second_fn(lam, mu)
                    if a != b:
                        bad.add({"lam": list(lam), "mu": list(mu), first: a, second: b})
        return _finish(suite, grid, checked, bad, {"lam_classes": n_lams, "mu_classes": n_mus})

    return run


def _suite_interlace(grid: dict, ceiling: int) -> VerifyReport:
    max_width, bound = grid["max_width"], grid["bound"]
    counts = {w: _class_count(w, bound) for w in range(1, max_width + 1)}
    checked = sum(
        counts[wl] * sum(counts[wm] for wm in range(1, wl + 1))
        for wl in range(1, max_width + 1)
    )
    _guard(checked, ceiling, "interlace")
    classes = {w: enumerate_classes(w, bound) for w in range(1, max_width + 1)}
    bad = _Collector()
    for wl in range(1, max_width + 1):
        for lam in classes[wl]:
            for wm in range(1, wl + 1):
                for mu in classes[wm]:
                    fast = dominates_interlace(lam, mu)
                    oracle = dominates_oracle(lam, mu)
                    if fast != oracle:
                        bad.add({
                            "lam": list(lam), "mu": list(mu),
                            "interlace": fast, "chain_oracle": oracle,
                        })
    return _finish("interlace", grid, checked, bad)


def _suite_lemmas(grid: dict, ceiling: int) -> VerifyReport:
    lam_max, mu_max, bound = grid["lam_max_width"], grid["mu_max_width"], grid["bound"]
    lam_list = [c for w in range(1, lam_max + 1) for c in enumerate_classes(w, bound)]
    mu_list = [c for w in range(1, mu_max + 1) for c in enumerate_classes(w, bound)]
    checked = 3 * len(lam_list) * len(mu_list)
    _guard(checked, ceiling, "lemmas")
    bad = _Collector()
    hits = {"equal_ends": 0, "tight_gaps": 0, "wide_window": 0}
    for lam in lam_list:
        for mu in mu_list:
            fired = {
                "equal_ends": equal_ends_hypotheses(lam, mu),
                "tight_gaps": tight_gaps_hypotheses(lam, mu),
                "wide_window": any(
                    wide_window_hypotheses(lam, mu, i) for i in range(1, len(mu) + 1)
                ),
            }
            dominated = None
            for condition, hit in fired.items():
                if not hit:
                    continue
                hits[condition] += 1
                if dominated is None:
                    dominated = dominates_oracle(mu, lam)
                if not dominated:
                    bad.add({
                        "condition": condition, "lam": list(lam), "mu": list(mu),
                        "chain_oracle": False,
                    })
    return _finish("lemmas", grid, checked, bad, {"hypothesis_hits": hits})


# ---------------------------------------------------------------------------
# partial-order machinery (relation rows as integer bitsets)


def _partial_order_violations(items, rows: list[int], render, bad: _Collector) -> int:
    """Add reflexivity/antisymmetry/transitivity violations to bad; returns #containment checks."""
    n = len(items)
    for i in range(n):
        if not (rows[i] >> i) & 1:
            bad.add({"law": "reflexivity", "item": render(items[i])})
    containment_checks = 0
    for i in range(n):
        for j in bit_indices(rows[i] & ~(1 << i)):
            if i < j and (rows[j] >> i) & 1:
                bad.add({"law": "antisymmetry", "a": render(items[i]), "b": render(items[j])})
            containment_checks += 1
            missing = rows[j] & ~rows[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                bad.add({
                    "law": "transitivity",
                    "a": render(items[i]), "b": render(items[j]), "c": render(items[k]),
                })
    return containment_checks


def _code_grid(grid: dict) -> tuple[list[ExtSequence], list[ClsCode]]:
    """The grid's sequences and every code built from two of them, in canonical order."""
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
    containment_checks = _partial_order_violations(codes, code_rows(codes), ClsCode.to_json, bad)
    checked = n * n + n + containment_checks
    return _finish("tiap-order", grid, checked, bad, {"codes": n, "sequences": len(seqs)})


def _suite_code_slack(grid: dict, ceiling: int) -> VerifyReport:
    seqs, codes = _code_grid(grid)
    n = len(codes)
    _guard(n * n, ceiling, "code-slack")
    bad = _Collector()
    for inner, row in zip(codes, code_rows(codes)):
        for j, outer in enumerate(codes):
            slack = code_included(inner, outer)
            in_rows = bool((row >> j) & 1)
            oracle = code_included_oracle(inner, outer)
            if not slack == in_rows == oracle:
                bad.add({
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "slack": slack, "code_rows": in_rows, "split_search": oracle,
                })
    return _finish("code-slack", grid, n * n, bad, {"codes": n, "sequences": len(seqs)})


# ---------------------------------------------------------------------------
# ideal suites


def _family(grid: dict) -> list[Ideal]:
    return enumerate_ideals(grid["max_x"], grid["max_y"], grid["max_cols"], grid["max_len"])


def _family_size(grid: dict) -> int:
    diagrams = sum(
        math.comb(grid["max_len"] - 1 + k, k) for k in range(grid["max_cols"] + 1)
    ) if grid["max_len"] > 0 else 1
    return (grid["max_x"] + 1) * (grid["max_y"] + 1) * diagrams * diagrams


def _suite_ideal_order(grid: dict, ceiling: int) -> VerifyReport:
    n = _family_size(grid)
    projected = 2 * n * n + n
    _guard(projected, ceiling, "ideal-order")
    family = _family(grid)
    bad = _Collector()
    containment_checks = _partial_order_violations(family, inclusion_rows(family), Ideal.to_json, bad)
    checked = n * n + n + containment_checks
    return _finish("ideal-order", grid, checked, bad, {"family": n})


def _suite_maximal(grid: dict, ceiling: int) -> VerifyReport:
    n = _family_size(grid)
    checked = n * n + n
    _guard(checked, ceiling, "maximal")
    family = _family(grid)
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
    n = _family_size(grid)
    chains = int(grid.get("chains", 1000))
    checked = n * n + chains
    _guard(checked, ceiling, "acc")
    family = _family(grid)
    bad = _Collector()
    rows = inclusion_rows(family)
    supersets: dict[Ideal, list[Ideal]] = {}
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
    rng = random.Random(int(grid.get("seed", 0)))
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
    return _finish(
        "acc", grid, checked, bad,
        {"family": n, "chains_run": chains, "longest_chain": longest},
    )


def _suite_split_consistency(grid: dict, ceiling: int) -> VerifyReport:
    n = _family_size(grid)
    checked = n * n
    _guard(checked, ceiling, "split-consistency")
    family = _family(grid)
    bad = _Collector()
    rows = inclusion_rows(family)
    # the single split (c, d) = (x, 0) of each outer ideal's union
    singles = [
        ClsCode(code_sequence(outer.x, outer.y, outer.yl), code_sequence(0, outer.y, outer.yr))
        for outer in family
    ]
    for inner, row in zip(family, rows):
        inner_union = cls_union(inner)
        for j, (outer, single_code) in enumerate(zip(family, singles)):
            full = bool((row >> j) & 1)
            single = union_included((single_code,), inner_union)
            if full != single:
                bad.add({
                    "inner": inner.to_json(), "outer": outer.to_json(),
                    "full_union": full, "single_split": single,
                })
    return _finish("split-consistency", grid, checked, bad, {"family": n})


def _suite_tord_discrepancy(grid: dict, ceiling: int) -> VerifyReport:
    n = _family_size(grid)
    checked = 3 * n * n
    _guard(checked, ceiling, "tord-discrepancy")
    family = _family(grid)
    bad = _Collector()
    padded_missed = 0
    padded_missed_sample: list[dict] = []
    loose_unsound = 0
    loose_missed = 0
    required_inner = Ideal(0, 1, (), ())
    required_outer = AUGMENTATION_IDEAL
    required_seen = False
    padded_unsound = 0
    for inner, row in zip(family, inclusion_rows(family)):
        for j, outer in enumerate(family):
            actual = bool((row >> j) & 1)
            padded = diagram_order_condition(inner, outer, padded=True)
            loose = diagram_order_condition(inner, outer, padded=False)
            if padded and not actual:
                # the one direction that would invalidate the printed form
                # even as documentation: it must stay sound
                padded_unsound += 1
                bad.add({
                    "law": "printed-condition-unsound",
                    "inner": inner.to_json(), "outer": outer.to_json(),
                })
            if actual and not padded:
                padded_missed += 1
                if len(padded_missed_sample) < 10:
                    padded_missed_sample.append(
                        {"inner": inner.to_json(), "outer": outer.to_json()}
                    )
                if inner == required_inner and outer == required_outer:
                    required_seen = True
            if loose and not actual:
                loose_unsound += 1
            if actual and not loose:
                loose_missed += 1
    if not required_seen:
        bad.add({
            "law": "expected-discrepancy-instance-missing",
            "inner": required_inner.to_json(), "outer": required_outer.to_json(),
        })
    details = {
        "family": n,
        "padded_reading": {
            "unsound_cases": padded_unsound,
            "missed_inclusions": padded_missed,
            "sample_missed": padded_missed_sample,
            "expected_instance_shown": required_seen,
        },
        "unpadded_reading": {
            "unsound_cases": loose_unsound,
            "missed_inclusions": loose_missed,
        },
    }
    return _finish("tord-discrepancy", grid, checked, bad, details)


# the lambdas look their predicates up when called, so wrappers later set on
# this module's names still take effect
_SUITES = {
    "lgts2": _agreement_suite(
        "lgts2",
        "gap_criterion", lambda lam, mu: gap_criterion(mu, lam),
        "chain_oracle", lambda lam, mu: dominates_oracle(mu, lam),
    ),
    "interlace": _suite_interlace,
    "lemmas": _suite_lemmas,
    "pmain": _agreement_suite(
        "pmain",
        "avoiding_system", lambda lam, mu: avoiding_system_contains(lam, mu),
        "gap_union", lambda lam, mu: gap_union_contains(lam, mu),
    ),
    "tiap-order": _suite_tiap_order,
    "code-slack": _suite_code_slack,
    "ideal-order": _suite_ideal_order,
    "maximal": _suite_maximal,
    "acc": _suite_acc,
    "split-consistency": _suite_split_consistency,
    "tord-discrepancy": _suite_tord_discrepancy,
}
