"""slinf benchmark: cold verify suites, a seeded query stream and lattice builds.

Usage (from the root of a checkout that holds ``src/slinf``):

    python3 perfbench/run.py --workload {verify-cold,queries,lattice} \\
        --seed N --seconds S --trace {0,1}

Every operation runs in a fresh interpreter (``worker.py``), spawned one at a
time, so caches start cold whatever a later change does to them; start-up,
imports and input generation are charged to ``setup_s``.  Rounds of the
workload repeat until ``--seconds`` have passed (at least one, and none that
would end after 1.5 times ``--seconds``).  Each
operation's time is the median over its samples, and a metric sums those
over one pass of the plan (for queries: the median over sessions).
``dominance_s`` and ``order_s`` are CPU seconds scaled to a reference speed:
before each operation the run times a fixed yardstick on the CPU the run is
pinned to, and the metrics are multiplied by the yardstick's reference time
over its median in the run.  Answers
are checked outside the timed regions; a wrong answer fails the run
(``correct`` false, exit 1).

With ``--trace 1`` the run makes one untraced and one traced pass, and the
last line carries the per-layer metrics and ``trace_overhead_s`` (traced
minus untraced time of the same operations); the spans go to ``.perfbench/``
in the checkout.  End-to-end numbers come only from untraced runs.

The second-to-last line is a run record: versions, digests, sample counts,
answer shares, the machine's steal share and the ``cache_info()`` of every
memoized function.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from itertools import product

import metrics
import workloads

HERE = Path(__file__).resolve().parent
SESSION_QUERIES = 20_000
# CPU seconds that yardstick() took on the machine where the benchmark was
# built (Python 3.11, 2 cores): dominance_s and order_s are scaled to it.
YARDSTICK_REF_S = 0.06

# A round starts only before --seconds have passed and if, at the length of
# the last round, it ends within this many times --seconds; that bounds a
# run's length whatever the machine's speed.
OVERRUN = 1.5


def yardstick() -> float:
    """CPU seconds of a fixed memoized search shaped like the library's dominance oracle.

    The same work on this kind of shared machine ran up to 25 % faster or
    slower from one minute to the next, in CPU time as well as wall time.
    The yardstick runs in the benchmark's own process, which imports nothing
    from the library, so no change to the library moves it; over six minutes
    its per-window median tracked ideal-order's time with correlation 0.98.
    """
    start = time.process_time()
    memo: dict[tuple, bool] = {}

    def children(lam):
        spans = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
        return {m if m[-1] == 0 else tuple(v - m[-1] for v in m) for m in product(*spans)}

    def reaches(top, target):
        key = (top, target)
        if key not in memo:
            memo[key] = top == target if len(top) == len(target) else any(
                reaches(child, target) for child in children(top)
            )
        return memo[key]

    for target in ((8, 0), (9, 0)):  # wider in spread than the top: a full search
        reaches((7, 6, 5, 4, 3, 2, 1, 0), target)
    return time.process_time() - start


class Run:
    """Operations of one benchmark invocation and everything measured about them."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.start = time.monotonic()
        self.cpu_at_start = _cpu_ticks()
        # one CPU for this process and every worker it starts, so that the
        # yardstick measures the CPU the work runs on
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.yardsticks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.setups: list[float] = []
        self.caches: dict[str, dict[str, int]] = {}
        self.processes: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def op(self, spec: dict, trace: bool) -> dict | None:
        """Run one operation in a fresh interpreter; None if it crashed."""
        self.yardsticks.append(yardstick())
        spec_json = json.dumps({**spec, "trace": trace})
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.src), spec_json]
        limit = max(1.0, 170 - self.elapsed())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.root, timeout=limit)
        except subprocess.TimeoutExpired:
            proc = None
        lines = proc.stdout.splitlines() if proc else []
        if not proc or proc.returncode != 0 or len(lines) < 2:
            self.attempted += spec.get("n", 1)
            self.failed += spec.get("n", 1)
            detail = proc.stderr.strip().splitlines()[-1:] if proc else ["timed out"]
            print(f"operation failed: {spec} {detail}", file=sys.stderr)
            return None
        out = json.loads(lines[-1])
        out["setup_s"] = json.loads(lines[0])["setup_s"]
        self.attempted += out["attempted"]
        self.failed += out["errors"]
        self._check(spec, out["result"])
        for name, info in out["caches"].items():
            total = self.caches.setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            for key in total:
                total[key] += info[key]
        if trace:
            self.processes.append({"op": spec, **out.pop("trace")})
        else:
            self.setups.append(out["setup_s"])
        return out

    def _check(self, spec: dict, result: dict) -> None:
        if spec["op"] == "suite":
            want = self.expected["suites"][spec["name"]]
            if result["failed"] or result != want:
                self.wrong.append(f"suite {spec['name']}: report differs from the recorded one")
        elif spec["op"] == "cli":
            if result["exit"] not in (0, 1):
                return  # an error is a failed operation, not an answer
            want = self.expected["lattice"][json.dumps(spec["argv"])]
            got = {"exit": result["exit"], "sha256": result["sha256"]}
            if got != want:
                self.wrong.append(f"command {spec['argv']}: output {got} differs from {want}")
        elif result["mismatches"]:
            self.wrong.append(f"session {spec['seed']}: {result['mismatches']}")


# ---------------------------------------------------------------------------
# rounds: a round is a list of (spec, output) pairs


def make_round(workload: str, seed: int, trace: bool):
    """A function of (run, round index, traced) that runs one round.

    A traced invocation runs each distinct operation once per round, so the
    per-layer counts describe one pass over the workload's inputs.
    """
    if workload == "queries":
        def session(run, i, traced):
            spec = {"op": "session", "seed": f"{seed}:{i}", "n": SESSION_QUERIES}
            out = run.op(spec, traced)
            return [(spec, out)] if out else []

        return session
    plans = {"verify-cold": workloads.verify_plan, "lattice": workloads.lattice_plan}
    plan = plans[workload](seed)
    if trace:
        plan = [spec for i, spec in enumerate(plan) if spec not in plan[:i]]

    def cold(run, i, traced):
        return [(spec, out) for spec in plan if (out := run.op(spec, traced))]

    return cold


def _op_key(spec: dict) -> str:
    return json.dumps({k: spec[k] for k in ("name", "argv", "seed") if k in spec})


def _family_seconds(spec: dict, out: dict) -> tuple[float, float]:
    """(dominance, order) seconds measured by one operation."""
    if spec["op"] == "session":
        per_kind = out["result"]["per_kind"]
        return (
            sum(per_kind[k]["sum_ns"] for k in workloads.DOMINANCE_KINDS) / 1e9,
            sum(per_kind[k]["sum_ns"] for k in workloads.ORDER_KINDS) / 1e9,
        )
    if spec["family"] == "dominance":
        return out["elapsed_s"], 0.0
    return 0.0, out["elapsed_s"]


def end_to_end(run: Run, rounds: list[list], sessions: bool) -> dict:
    """Per operation, the median over its samples; summed over one pass of the plan.

    A query session is one operation with its own inputs, so for queries the
    metrics are the medians over sessions.  dominance_s and order_s are then
    scaled by YARDSTICK_REF_S over the run's median yardstick, which takes out
    the machine's drift in speed between runs.
    """
    samples: dict[str, list] = {}
    for done in rounds:
        for spec, out in done:
            samples.setdefault(_op_key(spec), []).append((spec, out))
    per_op = []
    for pairs in samples.values():
        seconds = [_family_seconds(spec, out) for spec, out in pairs]
        per_op.append((
            statistics.median(d for d, _ in seconds),
            statistics.median(o for _, o in seconds),
            statistics.median(out["rss_mb"] for _, out in pairs),
        ))
    combine = statistics.median if sessions else sum
    scale = YARDSTICK_REF_S / statistics.median(run.yardsticks)
    return {
        "setup_s": statistics.median(run.setups) if run.setups else 0.0,
        "dominance_s": scale * combine(d for d, _, _ in per_op) if per_op else 0.0,
        "order_s": scale * combine(o for _, o, _ in per_op) if per_op else 0.0,
        "peak_rss_mb": (statistics.median if sessions else max)(r for _, _, r in per_op)
        if per_op else 0.0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round


def layer_metrics(untraced: list, traced: list, processes: list[dict]) -> dict:
    rows = [row for p in processes for row in p["agg"]]  # kind, name, caller, calls, ns, self_ns

    def calls(name, caller=None):
        return sum(r[3] for r in rows if r[1] == name and caller in (None, r[2]))

    def total(name, skip_caller=None):
        return sum(r[4] for r in rows if r[1] == name and r[2] != skip_caller) / 1e9

    def self_s(*names):
        return sum(r[5] for r in rows if r[1] in names) / 1e9

    caches: dict[str, dict[str, int]] = {}
    for _, out in traced:
        for name, info in out["caches"].items():
            entry = caches.setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            for key in entry:
                entry[key] += info[key]

    def cache(name, field):
        info = caches.get(name, {"hits": 0, "misses": 0, "currsize": 0})
        if field == "hit_ratio":
            asked = info["hits"] + info["misses"]
            return info["hits"] / asked if asked else 0.0
        return info[field]

    def ratio(a, b):
        return a / b if b else 0.0

    seq, incl = "slinf.cls_codes.seq_leq_shifted", "slinf.ideals.is_contained"
    dom, kids = "slinf.dominance._dominates", "slinf.partitions._children"
    suites = {s["name"]: o["elapsed_s"] for s, o in untraced if s["op"] == "suite"}
    return {
        "code_included.calls": calls("code_included"),
        "code_included.s": total("code_included"),
        "seq_checks_per_inclusion": ratio(calls("seq_leq_shifted"), calls("code_included")),
        "seq_leq_shifted.hit_ratio": cache(seq, "hit_ratio"),
        "seq_leq_shifted.entries": cache(seq, "currsize"),
        "is_contained.calls": calls("is_contained"),
        "is_contained.s": total("is_contained"),
        "is_contained.hit_ratio": cache(incl, "hit_ratio"),
        "codes_compared_per_inclusion": ratio(
            calls("code_included", "is_contained"), cache(incl, "misses")
        ),
        "cls_union.s": total("cls_union"),
        "containing_ideals.s": total("containing_ideals"),
        "highest_weight.s": total("highest_weight"),
        "dominates_oracle.calls": calls("dominates_oracle"),
        "dominates_oracle.s": total("dominates_oracle"),
        "dominates_interlace.s": total("dominates_interlace"),
        "gap_criterion.s": total("gap_criterion"),
        "enumerate_classes.s": total("enumerate_classes"),
        "dominates_memo.entries": cache(dom, "currsize"),
        "dominates_memo.hit_ratio": cache(dom, "hit_ratio"),
        "children_memo.entries": cache(kids, "currsize"),
        "children_memo.hit_ratio": cache(kids, "hit_ratio"),
        "window_check.s": total("is_coherent_on_window")
        + total("is_precoherent_on_window", skip_caller="is_coherent_on_window"),
        "membership.calls": calls("avoiding_system_contains") + calls("gap_union_contains"),
        "membership.s": total("avoiding_system_contains") + total("gap_union_contains"),
        "hasse.covering_self_s": self_s("covering_relations"),
        "hasse.render_s": self_s("family_hasse", "hasse_dot", "hasse_adjacency"),
        "hasse.covers": sum(
            s[7] or 0 for p in processes for s in p["spans"] if s[1] == "covering_relations"
        ),
        **{
            f"verify.{name}.s": suites.get(name, 0.0)
            for name in workloads.DOMINANCE_SUITES + workloads.ORDER_SUITES
        },
        "verify.self_s": self_s("run_suite"),
        "verify.checked": sum(
            o["result"]["checked"] for s, o in traced if s["op"] == "suite"
        ),
        "cli.main_self_s": self_s("main"),
        "cli.output_bytes": sum(
            o["result"]["bytes"] for s, o in traced if s["op"] == "cli"
        ),
        "memo.entries": sum(info["currsize"] for info in caches.values()),
        "trace_overhead_s": sum(o["elapsed_s"] for _, o in traced)
        - sum(o["elapsed_s"] for _, o in untraced),
    }


# ---------------------------------------------------------------------------
# run record


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_ticks() -> list[int]:
    """The machine's cumulative CPU ticks (user, nice, system, idle, ..., steal)."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def _steal_share(before: list[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave to other guests during the run."""
    spent = [b - a for a, b in zip(before, _cpu_ticks())]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_record(run: Run, args, rounds: list[list]) -> dict:
    src = run.src / "slinf"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(run.root),
        "src_sha256": hashlib.sha256(
            b"".join(_digest(p).encode() for p in sorted(src.glob("*.py")))
        ).hexdigest(),
        "default_grids_sha256": _digest(src / "default_grids.json"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": run.cpu,
        "yardstick_s": statistics.median(run.yardsticks),
        "rounds": len(rounds),
        "setup_samples": len(run.setups),
        "attempted": run.attempted,
        "error_rate": run.failed / run.attempted if run.attempted else 0.0,
        "caches": run.caches,
        "wall_s": run.elapsed(),
        "steal_share": _steal_share(run.cpu_at_start),
    }
    sessions = [o["result"] for done in rounds for s, o in done if s["op"] == "session"]
    if sessions:
        kinds = {}
        for kind, _ in workloads.QUERY_MIX:
            n = sum(s["per_kind"][kind]["n"] for s in sessions)
            true = sum(s["per_kind"][kind]["true"] for s in sessions)
            kinds[kind] = {"n": n, "true_share": true / n if kind != "highest_weight" else None}
        record["queries"] = {
            "session_queries": SESSION_QUERIES,
            "sessions": len(sessions),
            "queries_per_s": statistics.median(s["n"] / s["loop_s"] for s in sessions),
            "p50_us": statistics.median(s["p50_us"] for s in sessions),
            "p99_us": statistics.median(s["p99_us"] for s in sessions),
            "repeat_share": statistics.mean(s["repeat_share"] for s in sessions),
            "kinds": kinds,
        }
    return record


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify-cold", "queries", "lattice"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "slinf" / "__init__.py").is_file():
        print(f"error: no slinf sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    run = Run(root)
    one_round = make_round(args.workload, args.seed, bool(args.trace))
    if args.trace:
        # one untraced pass for the overhead and the suite times, one traced pass
        rounds = [one_round(run, 0, False)]
        mark = len(run.processes)
        traced = one_round(run, 0, True)
        layers = layer_metrics(rounds[0], traced, run.processes[mark:])
    else:
        rounds, last = [], 0.0
        while not rounds or (
            run.elapsed() < args.seconds and run.elapsed() + last <= OVERRUN * args.seconds
        ):
            began = run.elapsed()
            rounds.append(one_round(run, len(rounds), False))
            last = run.elapsed() - began

    record = run_record(run, args, rounds)
    if args.trace:
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"record": record, "processes": run.processes}))
        record["trace_file"] = str(trace_file.relative_to(root))
        values = layers
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    else:
        values = end_to_end(run, rounds, args.workload == "queries")
        units = metrics.END_TO_END
    if run.wrong:
        record["wrong_answers"] = run.wrong[:20]
    print(json.dumps({"run_record": record}, sort_keys=True))
    correct = not run.wrong and run.failed < run.attempted
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
