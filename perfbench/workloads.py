"""Seeded inputs of the three workloads and the reference checks on their answers.

Everything here is a pure function of the seed, so the same seed always
gives the same suite order, the same lattice commands and the same query
stream.  The checks are second routes to each answer; they run outside the
timed regions.
"""

from __future__ import annotations

import random

INF = float("inf")

# ---------------------------------------------------------------------------
# verify-cold: the ten suites on the frozen grids, in a seeded order

DOMINANCE_SUITES = ("lgts2", "interlace", "lemmas", "pmain")
# the fields of a suite report the correctness gate compares with the recorded ones
REPORT_FIELDS = ("checked", "passed", "failed", "details")
ORDER_SUITES = (
    "tiap-order", "ideal-order", "maximal", "acc", "split-consistency", "tord-discrepancy",
)


# The same work on the same machine varied by +-25 % in CPU time, so the short
# operations of a family run several times per round and the median of their
# samples keeps the family's sum steady: the dominance suites (1.5 s of a 13 s
# round) four times, the window checks (2 s of a 14 s lattice round) three.
SUITE_REPEATS = 4
WINDOW_REPEATS = 3


def verify_plan(seed: int) -> list[dict]:
    """One round: every order suite once and every dominance suite four times, in a seeded order."""
    names = list(DOMINANCE_SUITES * SUITE_REPEATS + ORDER_SUITES)
    random.Random(f"verify:{seed}").shuffle(names)
    return [
        {"op": "suite", "name": n, "family": "dominance" if n in DOMINANCE_SUITES else "order"}
        for n in names
    ]


# ---------------------------------------------------------------------------
# lattice: whole-structure CLI commands, one fresh interpreter each
#
# A slot holds one input, or two of nearly equal cost (an ideal and its
# left/right mirror, a width-3 partition and its dual), so the seed changes
# the inputs without changing how much work a round is.

def _upset(ideal: str, cap: int) -> list[str]:
    return ["ideal", "upset", ideal, "--cap", str(cap)]


LATTICE_SLOTS = (
    ("order", (
        ["ideal", "hasse", "--max-x", "2", "--max-y", "2", "--max-cols", "2", "--max-len", "2",
         "--format", "dot"],
    )),
    ("order", (
        ["ideal", "hasse", "--max-x", "2", "--max-y", "1", "--max-cols", "2", "--max-len", "2",
         "--format", "json"],
    )),
    ("order", (
        _upset('{"x":2,"y":2,"yl":[2,2],"yr":[2,1]}', 4),
        _upset('{"x":2,"y":2,"yl":[2,1],"yr":[2,2]}', 4),
    )),
    ("order", (
        _upset('{"x":1,"y":2,"yl":[2,1],"yr":[1]}', 4),
        _upset('{"x":1,"y":2,"yl":[1],"yr":[2,1]}', 4),
    )),
    ("dominance", (
        ["plscheck", "[3,1,0]", "--system", "qlambda", "--widths", "3..8", "--bound", "5"],
        ["plscheck", "[3,2,0]", "--system", "qlambda", "--widths", "3..8", "--bound", "5"],
    )),
    ("dominance", (  # [4,2,0] is its own dual; [4,1,0] and [4,3,0] differ by 15 % in cost
        ["plscheck", "[4,2,0]", "--system", "qvee", "--widths", "3..7", "--bound", "5"],
    )),
    ("dominance", (
        ["clscheck", "[3,1,0]", "--system", "qlambda", "--widths", "3..7", "--bound", "5",
         "--slack", "1"],
        ["clscheck", "[3,2,0]", "--system", "qlambda", "--widths", "3..7", "--bound", "5",
         "--slack", "1"],
    )),
)


def lattice_commands() -> list[list[str]]:
    """Every command any seed can draw; the recorded digests cover exactly these."""
    return [argv for _, variants in LATTICE_SLOTS for argv in variants]


def lattice_plan(seed: int) -> list[dict]:
    """One round: a seeded variant of every slot, the short window checks three times."""
    rng = random.Random(f"lattice:{seed}")
    plan = []
    for family, variants in LATTICE_SLOTS:
        spec = {"op": "cli", "argv": rng.choice(variants), "family": family}
        plan += [spec] * (WINDOW_REPEATS if family == "dominance" else 1)
    rng.shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# queries: a closed loop of single decisions with one caller

DOMINANCE_KINDS = ("dominates_oracle", "avoiding_system_contains", "gap_union_contains")
ORDER_KINDS = ("is_contained", "code_included", "highest_weight")
QUERY_MIX = (
    ("dominates_oracle", 2),
    ("avoiding_system_contains", 1),
    ("gap_union_contains", 1),
    ("is_contained", 2),
    ("code_included", 1),
    ("highest_weight", 1),
)
REPEAT_SHARE = 0.25
MAX_WIDTH = 9  # wider or more spread inputs make the exponential oracle explode
MAX_SPREAD = 8


def _partition(rng: random.Random, width: int, spread: int) -> tuple[int, ...]:
    """A canonical partition of width >= 2 with the given spread (first entry)."""
    inner = sorted((rng.randint(0, spread) for _ in range(width - 2)), reverse=True)
    return (spread, *inner, 0)


def _shifted(rng: random.Random, part: tuple[int, ...]) -> tuple[int, ...]:
    d = rng.randint(-3, 3)
    return tuple(v + d for v in part)


class _Deck:
    """Draws cases in shuffled passes, so each case comes up equally often.

    The slowest one percent of dominance queries take over half of their
    time, so drawing lam's width and spread independently at random would
    make a session's cost depend on how many wide, spread-out lams it got.
    """

    def __init__(self, rng: random.Random, cases: list):
        self.rng, self.cases, self.left = rng, cases, []

    def draw(self):
        if not self.left:
            self.left = list(self.cases)
            self.rng.shuffle(self.left)
        return self.left.pop()


# (lam width, lam spread, kind of mu): an interlacing mu (true), a mu of
# wider spread than lam (false, the oracle's slow case), a random mu
# (mostly true)
DOMINANCE_CASES = [
    (w, s, c) for w in range(3, MAX_WIDTH + 1) for s in range(1, MAX_SPREAD) for c in range(3)
]
# (lam spread, whether mu's spread is below it, which makes the answer true)
SYSTEM_CASES = [(s, below) for s in range(1, 7) for below in (True, False)]


def _dominance_args(rng: random.Random, case):
    wl, spread, pick = case
    lam = _partition(rng, wl, spread)
    wm = rng.randint(2, wl - 1)
    gap = wl - wm
    if pick == 0:
        mu, prev = [], lam[0]
        for i in range(wm):
            prev = rng.randint(lam[i + gap], min(lam[i], prev))
            mu.append(prev)
        mu = tuple(v - mu[-1] for v in mu)
    elif pick == 1:
        mu = _partition(rng, wm, rng.randint(lam[0] + 1, MAX_SPREAD))
    else:
        mu = _partition(rng, wm, rng.randint(0, lam[0]))
    return (_shifted(rng, lam), _shifted(rng, mu))


def _system_args(rng: random.Random, case):
    # lam of width 2 against mu of width 8..9 keeps #mu >= 4 * #lam, where the
    # avoiding system and the gap union must agree; mu's spread straddles
    # lam's so that about half the answers are true.
    s, below = case
    lam = (s, 0)
    t = rng.randint(0, s - 1) if below else rng.randint(s, MAX_SPREAD)
    mu = _partition(rng, rng.randint(8, MAX_WIDTH), t)
    return (_shifted(rng, lam), _shifted(rng, mu))


def _diagram(rng: random.Random, max_cols: int = 3, max_len: int = 4) -> tuple[int, ...]:
    cols = rng.randint(0, max_cols)
    return tuple(sorted((rng.randint(1, max_len) for _ in range(cols)), reverse=True))


def _ideal(rng: random.Random):
    return (rng.randint(0, 3), rng.randint(0, 3), _diagram(rng), _diagram(rng))


def _shrunk(rng: random.Random, ideal):
    # fewer factors and fewer cells: a likely superset, so answers are balanced
    x, y, yl, yr = ideal

    def shrink(diagram):
        cols = [c - rng.randint(0, 1) for c in diagram[: rng.randint(0, len(diagram))]]
        return tuple(sorted((c for c in cols if c > 0), reverse=True))

    return (rng.randint(0, x), rng.randint(0, y), shrink(yl), shrink(yr))


def _inclusion_args(rng: random.Random, case=None):
    inner = _ideal(rng)
    outer = _shrunk(rng, inner) if rng.random() < 0.5 else _ideal(rng)
    return (inner, outer)


def _sequence(rng: random.Random, tail: int):
    head = sorted((rng.randint(tail + 1, tail + 4) for _ in range(rng.randint(0, 3))), reverse=True)
    return (rng.randint(0, 2), tuple(head), tail)


def _raised(rng: random.Random, seq, by: int, tail: int):
    # every entry at least `by` above seq's, so seq <= result - by pointwise
    inf, head, _ = seq
    head = sorted((max(v + by + rng.randint(0, 1), tail) for v in head), reverse=True)
    return (inf, tuple(head), tail)


def _code_args(rng: random.Random, case=None):
    m = rng.randint(0, 3)
    inner = (_sequence(rng, m), _sequence(rng, m))
    if rng.random() < 0.5:
        d = rng.randint(0, 2)
        a = rng.randint(0, d)
        outer = (_raised(rng, inner[0], a, m + d), _raised(rng, inner[1], d - a, m + d))
    else:
        m2 = rng.randint(m, m + 2)
        outer = (_sequence(rng, m2), _sequence(rng, m2))
    return (inner, outer)


# kind -> (generator, the cases its deck deals, if any)
_GENERATORS = {
    "dominates_oracle": (_dominance_args, DOMINANCE_CASES),
    "avoiding_system_contains": (_system_args, SYSTEM_CASES),
    "gap_union_contains": (_system_args, SYSTEM_CASES),
    "is_contained": (_inclusion_args, [None]),
    "code_included": (_code_args, [None]),
    "highest_weight": (lambda rng, case: (_ideal(rng),), [None]),
}


def query_stream(seed: str, n: int) -> list[tuple[str, tuple]]:
    """n queries as (kind, plain-data args); about a quarter repeat earlier ones."""
    rng = random.Random(f"queries:{seed}")
    kinds = _Deck(rng, [k for k, w in QUERY_MIX for _ in range(w)])
    decks = {kind: _Deck(rng, cases) for kind, (_, cases) in _GENERATORS.items()}
    out: list[tuple[str, tuple]] = []
    for _ in range(n):
        if out and rng.random() < REPEAT_SHARE:
            out.append(out[rng.randrange(len(out))])
        else:
            kind = kinds.draw()
            out.append((kind, _GENERATORS[kind][0](rng, decks[kind].draw())))
    return out


# ---------------------------------------------------------------------------
# pointwise references, kept independent of the library


def _seq_value(seq, i: int):
    inf, head, tail = seq
    if i <= inf:
        return INF
    j = i - inf
    return head[j - 1] if j <= len(head) else tail


def code_included_reference(inner, outer) -> bool:
    """Inclusion of codes read position by position, over every split a + b = m - m'."""
    d = outer[0][2] - inner[0][2]
    if d < 0:
        return False
    n = 1 + max(s[0] + len(s[1]) for s in (*inner, *outer))

    def leq(a_seq, b_seq, shift):
        return all(_seq_value(a_seq, i) <= _seq_value(b_seq, i) - shift for i in range(1, n + 1))

    return any(leq(inner[0], outer[0], a) and leq(inner[1], outer[1], d - a) for a in range(d + 1))


def highest_weight_reference(ideal, weight) -> bool:
    """Compare every coefficient of a weight with the closed description of it."""
    x, y, yl, yr = ideal
    if weight.odd_tail != y:
        return False
    t = len(yr)
    for pos in range(1, 2 * (x + len(yl) + t) + 5):
        if pos % 2:
            i = (pos + 1) // 2
            if i <= x:
                want = (y, i)
            elif i <= x + len(yl):
                want = (y + yl[i - x - 1], 0)
            else:
                want = (y, 0)
        else:
            j = pos // 2
            want = (yr[t - j], 0) if j <= t else (0, 0)
        if weight.coefficient(pos) != want:
            return False
    return True
