"""Command-line front end.

All structured input and output is JSON on the result stream (stdout);
diagnostics go to stderr.  Exit codes: 0 for true/success, 1 for false
(or suite failures), 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator, Sequence

from .cls_codes import ClsCode, bit_indices, code_included
from .dominance import dominates_interlace, dominates_oracle, gap_criterion
from .ideals import (
    Ideal,
    _upset_rows,
    highest_weight,
    is_contained,
    split_code,
    upset_size,
)
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
from .partitions import DEFAULT_CEILING, as_zpartition, capped_comb


def _parse_partition(text: str):
    obj = json.loads(text)
    if not isinstance(obj, list):
        raise ValueError(f"expected a JSON array of integers, got {text!r}")
    return as_zpartition(tuple(obj))


def _parse_ideal(text: str) -> Ideal:
    return Ideal.from_json(json.loads(text))


def _parse_code(text: str) -> ClsCode:
    return ClsCode.from_json(json.loads(text))


def _parse_widths(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected widths A..B or one width A, with integers A and B, got {text!r}")


def _emit(value) -> None:
    print(json.dumps(value, sort_keys=True))


def _emit_each(texts: Iterable[str], opening: str = "[", closing: str = "]") -> None:
    """Print opening, the encoded items joined by ", ", closing and a newline, writing each item as it is made.

    With the default brackets and items encoded by json.dumps(item, sort_keys=True)
    this prints json.dumps(list(items), sort_keys=True).  Nothing is written
    before the first item is made, so a refusal there prints only its error line.
    """
    write = sys.stdout.write
    separator = opening
    for text in texts:
        write(separator + text)
        separator = ", "
    if separator is opening:  # no item: the opening is still due
        write(opening)
    write(closing + "\n")


def _decimal_order(n: int) -> Iterator[int]:
    """1..n in the order of their decimal strings, "1", "10", "11", ..., "2", ...: how sort_keys orders them.

    A walk over the digits: after p comes 10p if that is in range, else the
    next number after p with at most as many digits, trailing 9s and
    numbers past n dropped first.
    """
    p = 1
    for _ in range(n):
        yield p
        if p * 10 <= n:
            p *= 10
        else:
            while p % 10 == 9 or p >= n:
                p //= 10
            p += 1


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
    # the gap criterion is taken to characterize dominance from four times the
    # width on; lgts2 checks that only on its grid (lam width 2, lam bound 3,
    # mu widths 8-9, mu bound 6)
    if len(lam) < 4 * len(mu):
        raise ValueError(
            f"criterion4x needs the first partition at least 4 times as wide as the second, "
            f"got {len(lam)} < 4 * {len(mu)}"
        )
    return _finish_bool(gap_criterion(lam, mu))


def _window_cost(widths: range, bound: int, cap: int) -> int:
    # Partition entries a window check may generate at these widths, bound
    # included: width w has C(bound + 2w - 2, bound) interlacing (class, child)
    # pairs, at least as many as classes, of w entries each.  Exact up to cap,
    # some number past cap beyond it, and cheap to compute either way.
    total = 0
    for w in widths:  # each width adds >= w entries, so this stops within ~sqrt(2 cap) widths
        total += w * capped_comb(bound + 2 * w - 2, bound, cap)
        if total > cap:
            break
    return total


def _window(args, slack: int | None) -> LevelWindow:
    """The window of a plscheck/clscheck call, refused past the verify ceiling before any enumeration.

    A slack (clscheck) adds the witness levels one width up; a negative one
    is left for the coherence check to refuse.
    """
    lo, hi = args.widths
    window = LevelWindow(lo, hi, args.bound)
    cap = DEFAULT_CEILING
    size = _window_cost(window.widths(), args.bound, cap)
    if slack is not None:
        size += _window_cost(range(lo + 1, hi + 1), args.bound + max(slack, 0), cap)
    if size > cap:
        raise ValueError(
            f"the window {lo}..{hi} with bound {args.bound} may generate more than {cap} "
            f"partition entries; shrink --widths or --bound"
        )
    return window


def _refuse_past_ceiling(count: int, what: str, unit: str, shrink: str) -> None:
    """Refuse, before any enumeration, a command whose count of units passes the verify ceiling."""
    cap = DEFAULT_CEILING
    if count > cap:
        raise ValueError(f"{what} would need more than {cap} {unit}; shrink {shrink}")


def _cmd_window_check(args) -> int:
    """plscheck, or clscheck: the one of the two with a slack."""
    system = _build_system(args.system, [_parse_partition(t) for t in args.partitions])
    slack = getattr(args, "slack", None)
    window = _window(args, slack)
    if slack is None:
        return _finish_bool(is_precoherent_on_window(system, window))
    return _finish_bool(is_coherent_on_window(system, window, slack))


def _cmd_ideal_cls(args) -> int:
    ideal = _parse_ideal(args.ideal)
    # x + 1 codes, each printing two infinity counts, two tails and the columns of both diagrams
    count = (ideal.x + 1) * (4 + len(ideal.yl) + len(ideal.yr))
    _refuse_past_ceiling(count, f"the codes of {ideal}", "printed integers", "the ideal's x")
    # the splits c = 0..x come in ClsCode.sort_key order, as the p half has c infinities
    _emit_each(json.dumps(split_code(ideal, c).to_json(), sort_keys=True) for c in range(ideal.x + 1))
    return 0


def _cmd_ideal_weight(args) -> int:
    ideal = _parse_ideal(args.ideal)
    # at most x + #Yl + 2 #Yr explicit coefficients (position, u, v), and the odd tail:
    # the right columns, and past them as many odd positions padded with y
    count = 3 * (ideal.x + len(ideal.yl) + 2 * len(ideal.yr)) + 1
    _refuse_past_ceiling(count, f"the highest weight of {ideal}", "printed integers", "the ideal's x")
    weight = highest_weight(ideal)
    # Weight.to_json with sort_keys, written entry by entry in the key order sort_keys gives
    entries = weight._listed(_decimal_order(len(weight.coefficients)))
    _emit_each(
        (f'"{i}": [{u}, {v}]' for i, (u, v) in entries), '{"explicit": {', f'}}, "odd_tail": {weight.odd_tail}}}'
    )
    return 0


def _cmd_ideal_upset(args) -> int:
    ideal = _parse_ideal(args.ideal)
    size = upset_size(ideal, args.cap, DEFAULT_CEILING)
    _refuse_past_ceiling(size, f"the upset of {ideal}", "inclusion checks", "--cap or the ideal's x")
    right, rows = _upset_rows(ideal, args.cap)
    # Ideal.to_json with sort_keys, written row by row: each right diagram's text is
    # encoded once, each row's x, y and yl once, and no Ideal is built
    tails = [json.dumps(list(yr)) + "}" for yr in right]
    prefixes = ((f'{{"x": {x}, "y": {y}, "yl": {json.dumps(list(yl))}, "yr": ', mask) for x, y, yl, mask in rows)
    _emit_each(", ".join(prefix + tails[j] for j in bit_indices(mask)) for prefix, mask in prefixes)
    return 0


def _cmd_ideal_hasse(args) -> int:
    from .hasse import _hasse_checks, family_hasse  # here only: no other command draws a diagram

    bounds = (args.max_x, args.max_y, args.max_cols, args.max_len)
    if min(bounds) >= 0:  # negative bounds are left for family_hasse to refuse
        checks = _hasse_checks(*bounds, DEFAULT_CEILING)
        _refuse_past_ceiling(checks, "the Hasse diagram of this family", "inclusion checks", "the --max-* bounds")
    text = family_hasse(args.max_x, args.max_y, args.max_cols, args.max_len, args.format)
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # here and in _verify_arguments only: no other command needs the suites

    config = verify.load_grid_config(args.grid_file) if args.grid_file else None
    report = verify.run_suite(args.suite, config=config)
    print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    return 0 if report.failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals, like every other refusal, print one ``error: ...`` line and exit 2.

    Subcommand parsers are built with the class of their parent, so they
    refuse the same way.  ``--help`` is unchanged.
    """

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _decision(parse, decide, first: str, second: str, first_help: str | None = None):
    """Arguments of a command deciding decide(parse(first), parse(second)) on its two positionals."""

    def configure(p, _):
        p.add_argument("first", metavar=first, help=first_help)
        p.add_argument("second", metavar=second)
        p.set_defaults(func=lambda args: _finish_bool(decide(parse(args.first), parse(args.second))))

    return configure


def _dominates_arguments(p, _):
    p.add_argument("lam", help="JSON array, e.g. [2,1,0]")
    p.add_argument("mu", help="JSON array, e.g. [1,0]")
    p.add_argument("--method", choices=["oracle", "interlace", "criterion4x"], default="interlace")
    p.set_defaults(func=_cmd_dominates)


def _window_arguments(slack: bool):
    """Arguments of plscheck, or with a slack of clscheck."""

    def configure(p, _):
        p.add_argument("partitions", nargs="+", help="JSON arrays defining the system")
        p.add_argument("--system", choices=["qvee", "qlambda", "forbidden"], default="qvee")
        p.add_argument("--widths", required=True, type=_parse_widths, metavar="A..B")
        p.add_argument("--bound", required=True, type=int, metavar="B")
        if slack:
            p.add_argument("--slack", type=int, default=0, metavar="S")
        p.set_defaults(func=_cmd_window_check)

    return configure


def _one_ideal(handler):
    """Arguments of a command printing handler's answer on one ideal."""

    def configure(p, _):
        p.add_argument("ideal")
        p.set_defaults(func=handler)

    return configure


def _upset_arguments(p, _):
    p.add_argument("ideal")
    p.add_argument("--cap", required=True, type=int, metavar="K", help="diagram width cap")
    p.set_defaults(func=_cmd_ideal_upset)


def _hasse_arguments(p, _):
    p.add_argument("--max-x", type=int, default=0)
    p.add_argument("--max-y", type=int, default=0)
    p.add_argument("--max-cols", type=int, default=0)
    p.add_argument("--max-len", type=int, default=0)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=_cmd_ideal_hasse)


def _verify_arguments(p, _):
    from . import verify

    p.add_argument("suite", help=f"one of: {', '.join(verify.suite_names())}")
    p.add_argument("--grid-file", metavar="PATH", help="JSON grid configuration override")
    p.set_defaults(func=_cmd_verify)


def _add_commands(parser: argparse.ArgumentParser, dest: str, commands, argv: list[str]) -> None:
    """Add the subcommands of parser: the one argv[0] names exactly, else all of them.

    Each command is (name, help, configure), and configure(subparser, argv[1:])
    adds its arguments.  The subcommand argv[0] names parses all of the rest
    of argv, so its siblings cannot take part; any other argv (empty, an
    option, "--", an unknown or abbreviated name) gets every subcommand, so
    help listings and invalid-choice errors name them all.
    """
    sub = parser.add_subparsers(dest=dest, required=True)
    named = [command for command in commands if argv[:1] == [command[0]]]
    for name, text, configure in named or commands:
        configure(sub.add_parser(name, help=text), argv[1:])


def _subcommands(dest: str, commands):
    """Arguments of a command that only holds subcommands."""
    return lambda p, argv: _add_commands(p, dest, commands, argv)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The slinf parser, with only the branch of the command tree that argv names; every parser without argv.

    A parser costs a few gettext look-ups, so a cold command that builds only
    its own branch (two parsers for plscheck, three for ideal upset instead
    of fifteen) starts sooner, and parses and answers as the full tree would.
    """
    # (name, help, configure) for each subcommand, made at each call so that
    # they pick up the handlers' current bindings
    code_help = 'JSON like {"p":{"inf":0,"head":[],"tail":0},"q":{...}}'
    cls_commands = (
        ("include", "is the first code included in the second?",
         _decision(_parse_code, code_included, "inner", "outer", code_help)),
    )
    ideal_help = 'JSON like {"x":0,"y":1,"yl":[],"yr":[]} or {"zero":true}'
    ideal_commands = (
        ("include", "is the first ideal contained in the second?",
         _decision(_parse_ideal, is_contained, "inner", "outer", ideal_help)),
        ("cls", "the ideal's sequence codes", _one_ideal(_cmd_ideal_cls)),
        ("weight", "the ideal's highest-weight datum", _one_ideal(_cmd_ideal_weight)),
        ("upset", "containing ideals within search bounds", _upset_arguments),
        ("hasse", "Hasse diagram of a bounded family", _hasse_arguments),
    )
    commands = (
        ("dominates", "does the first partition dominate the second?", _dominates_arguments),
        ("qvee", "membership of mu in the largest system avoiding lam",
         _decision(_parse_partition, avoiding_system_contains, "lam", "mu")),
        ("qlambda", "membership of mu in the gap-union system of lam",
         _decision(_parse_partition, gap_union_contains, "lam", "mu")),
        ("plscheck", "is the system dominance-closed on the window?", _window_arguments(slack=False)),
        ("clscheck", "is the system coherent on the window?", _window_arguments(slack=True)),
        ("cls", "sequence-code operations", _subcommands("cls_command", cls_commands)),
        ("ideal", "primitive-ideal operations", _subcommands("ideal_command", ideal_commands)),
        ("verify", "run one verification suite", _verify_arguments),
    )
    parser = _Parser(
        prog="slinf",
        description="Decision procedures for partition dominance, coherent local "
        "systems, and the primitive-ideal inclusion order.",
    )
    _add_commands(parser, "command", commands, list(argv))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
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
