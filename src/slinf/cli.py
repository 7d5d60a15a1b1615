"""Command-line front end.

All structured input and output is JSON on the result stream (stdout);
diagnostics go to stderr.  Exit codes: 0 for true/success, 1 for false
(or suite failures), 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from . import verify
from .cls_codes import ClsCode, code_included
from .dominance import dominates_interlace, dominates_oracle, gap_criterion
from .hasse import family_hasse
from .ideals import Ideal, cls_union, containing_ideals, highest_weight, is_contained
from .local_systems import (
    LevelWindow,
    avoiding_system,
    avoiding_system_contains,
    forbidden_to_coherent,
    gap_union_contains,
    gap_union_system,
    is_coherent_on_window,
    is_precoherent_on_window,
)
from .partitions import as_zpartition


def _parse_partition(text: str):
    obj = json.loads(text)
    if not isinstance(obj, list):
        raise ValueError(f"expected a JSON array of integers, got {text!r}")
    return as_zpartition(tuple(obj))


def _parse_ideal(text: str) -> Ideal:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object describing an ideal, got {text!r}")
    return Ideal.from_json(obj)


def _parse_code(text: str) -> ClsCode:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise ValueError(f"expected a JSON object with 'p' and 'q', got {text!r}")
    return ClsCode.from_json(obj)


def _parse_widths(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        hi = lo
    return int(lo), int(hi)


def _emit(value) -> None:
    print(json.dumps(value, sort_keys=True))


def _finish_bool(value: bool) -> int:
    _emit(bool(value))
    return 0 if value else 1


def _build_system(name: str, partitions):
    if name == "forbidden":
        return forbidden_to_coherent(partitions)
    if len(partitions) != 1:
        raise ValueError(f"system {name!r} takes exactly one partition")
    if name == "qvee":
        return avoiding_system(partitions[0])
    return gap_union_system(partitions[0])


def _cmd_dominates(args) -> int:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    if args.method == "oracle":
        return _finish_bool(dominates_oracle(lam, mu))
    if args.method == "interlace":
        return _finish_bool(dominates_interlace(lam, mu))
    # the gap criterion characterizes dominance only from four times the width on
    if len(lam) < 4 * len(mu):
        raise ValueError(
            f"criterion4x needs the first partition at least 4 times as wide as the second, "
            f"got {len(lam)} < 4 * {len(mu)}"
        )
    return _finish_bool(gap_criterion(lam, mu))


def _cmd_qvee(args) -> int:
    return _finish_bool(
        avoiding_system_contains(_parse_partition(args.lam), _parse_partition(args.mu))
    )


def _cmd_qlambda(args) -> int:
    return _finish_bool(
        gap_union_contains(_parse_partition(args.lam), _parse_partition(args.mu))
    )


def _window_cost(widths: range, bound: int, cap: int) -> int:
    # Partition entries a window check may generate at these widths, bound
    # included: width w has C(bound + 2w - 2, bound) interlacing (class, child)
    # pairs, at least as many as classes, of w entries each.  Exact up to cap,
    # some number past cap beyond it, and cheap to compute either way.
    total = 0
    for w in widths:  # each width adds >= w entries, so this stops within ~sqrt(2 cap) widths
        k = min(bound, 2 * w - 2)
        # C(n, k) >= 2**k when k <= n / 2, so a large k is past cap without computing it
        total += cap + 1 if k > cap.bit_length() else w * math.comb(bound + 2 * w - 2, k)
        if total > cap:
            break
    return total


def _window(args, slack: int | None = None) -> LevelWindow:
    """The window of a plscheck/clscheck call, refused past the verify ceiling before any enumeration.

    A slack (clscheck) adds the witness levels one width up; a negative one
    is left for the coherence check to refuse.
    """
    lo, hi = args.widths
    window = LevelWindow(lo, hi, args.bound)
    cap = verify.DEFAULT_CEILING
    size = _window_cost(window.widths(), args.bound, cap)
    if slack is not None:
        size += _window_cost(range(lo + 1, hi + 1), args.bound + max(slack, 0), cap)
    if size > cap:
        raise ValueError(
            f"the window {lo}..{hi} with bound {args.bound} may generate more than {cap} "
            f"partition entries; shrink --widths or --bound"
        )
    return window


def _cmd_plscheck(args) -> int:
    system = _build_system(args.system, [_parse_partition(t) for t in args.partitions])
    return _finish_bool(is_precoherent_on_window(system, _window(args)))


def _cmd_clscheck(args) -> int:
    system = _build_system(args.system, [_parse_partition(t) for t in args.partitions])
    return _finish_bool(is_coherent_on_window(system, _window(args, args.slack), args.slack))


def _cmd_cls_include(args) -> int:
    return _finish_bool(code_included(_parse_code(args.inner), _parse_code(args.outer)))


def _cmd_ideal_include(args) -> int:
    return _finish_bool(is_contained(_parse_ideal(args.inner), _parse_ideal(args.outer)))


def _cmd_ideal_cls(args) -> int:
    codes = sorted(cls_union(_parse_ideal(args.ideal)), key=ClsCode.sort_key)
    _emit([c.to_json() for c in codes])
    return 0


def _cmd_ideal_weight(args) -> int:
    _emit(highest_weight(_parse_ideal(args.ideal)).to_json())
    return 0


def _cmd_ideal_upset(args) -> int:
    found = containing_ideals(_parse_ideal(args.ideal), args.cap)
    _emit([ideal.to_json() for ideal in found])
    return 0


def _cmd_ideal_hasse(args) -> int:
    text = family_hasse(args.max_x, args.max_y, args.max_cols, args.max_len, args.format)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    config = verify.load_grid_config(args.grid_file) if args.grid_file else None
    try:
        report = verify.run_suite(args.suite, config=config)
    except (verify.UnknownSuiteError, verify.GridTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0 if report.failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slinf",
        description="Decision procedures for partition dominance, coherent local "
        "systems, and the primitive-ideal inclusion order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dominates", help="does the first partition dominate the second?")
    p.add_argument("lam", help="JSON array, e.g. [2,1,0]")
    p.add_argument("mu", help="JSON array, e.g. [1,0]")
    p.add_argument("--method", choices=["oracle", "interlace", "criterion4x"], default="oracle")
    p.set_defaults(func=_cmd_dominates)

    p = sub.add_parser("qvee", help="membership of mu in the largest system avoiding lam")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=_cmd_qvee)

    p = sub.add_parser("qlambda", help="membership of mu in the gap-union system of lam")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=_cmd_qlambda)

    for name, func, extra_help in (
        ("plscheck", _cmd_plscheck, "is the system dominance-closed on the window?"),
        ("clscheck", _cmd_clscheck, "is the system coherent on the window?"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("partitions", nargs="+", help="JSON arrays defining the system")
        p.add_argument("--system", choices=["qvee", "qlambda", "forbidden"], default="qvee")
        p.add_argument("--widths", required=True, type=_parse_widths, metavar="A..B")
        p.add_argument("--bound", required=True, type=int, metavar="B")
        if name == "clscheck":
            p.add_argument("--slack", type=int, default=0, metavar="S")
        p.set_defaults(func=func)

    p = sub.add_parser("cls", help="sequence-code operations")
    cls_sub = p.add_subparsers(dest="cls_command", required=True)
    q = cls_sub.add_parser("include", help="is the first code included in the second?")
    q.add_argument("inner", help='JSON like {"p":{"inf":0,"head":[],"tail":0},"q":{...}}')
    q.add_argument("outer")
    q.set_defaults(func=_cmd_cls_include)

    p = sub.add_parser("ideal", help="primitive-ideal operations")
    ideal_sub = p.add_subparsers(dest="ideal_command", required=True)

    q = ideal_sub.add_parser("include", help="is the first ideal contained in the second?")
    q.add_argument("inner", help='JSON like {"x":0,"y":1,"yl":[],"yr":[]} or {"zero":true}')
    q.add_argument("outer")
    q.set_defaults(func=_cmd_ideal_include)

    q = ideal_sub.add_parser("cls", help="the ideal's sequence codes")
    q.add_argument("ideal")
    q.set_defaults(func=_cmd_ideal_cls)

    q = ideal_sub.add_parser("weight", help="the ideal's highest-weight datum")
    q.add_argument("ideal")
    q.set_defaults(func=_cmd_ideal_weight)

    q = ideal_sub.add_parser("upset", help="containing ideals within search bounds")
    q.add_argument("ideal")
    q.add_argument("--cap", required=True, type=int, metavar="K", help="diagram width cap")
    q.set_defaults(func=_cmd_ideal_upset)

    q = ideal_sub.add_parser("hasse", help="Hasse diagram of a bounded family")
    q.add_argument("--max-x", type=int, default=0)
    q.add_argument("--max-y", type=int, default=0)
    q.add_argument("--max-cols", type=int, default=0)
    q.add_argument("--max-len", type=int, default=0)
    q.add_argument("--format", choices=["dot", "json"], default="dot")
    q.set_defaults(func=_cmd_ideal_hasse)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(verify.suite_names())}")
    p.add_argument("--grid-file", metavar="PATH", help="JSON grid configuration override")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "false", so anything unexpected is an error
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: unexpected {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
