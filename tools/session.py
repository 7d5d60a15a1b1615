"""Replay seeded ``queries`` sessions of the benchmark in fresh, pinned interpreters.

Usage (from the root of a checkout):

    python3 tools/session.py [--src DIR]... [--seed S]... [--runs N]

For example, to compare a parent checkout with this one on 24 sessions:

    python3 tools/session.py --src ../parent/src --src src --runs 1 \\
        $(for i in $(seq 0 23); do echo --seed 555:$i; done)

A session is the one that ``perfbench/run.py --workload queries`` runs as
seed S (``<run seed>:<session index>``, default ``1:0``): each replay calls
``perfbench/worker.py``'s own ``run_session`` on it, so the stream, the
timed loop and the checks of the answers are the benchmark's.  The worker
is given a probe in place of its tracer: the probe notes the kind of the
query it last began, and a ``gc.callbacks`` hook notes that kind, and how
long the collection took, for each generation-2 (full) collection from the
first query to the end of the loop.  Each replay runs in a new interpreter
started as ``tools/cold.py`` starts it: DIR (default ``src``) first on its
``PYTHONPATH``, pinned to the last CPU this process may run on.  The runs go
round by round: in each round every seed, and for each seed one run per DIR
in the order given, so a drift of the machine's speed reaches every DIR
alike.  For each DIR the script prints, over all its replays:

- each query kind's latency sum in ms, median and min, and the
  ``dominance_s`` and ``order_s`` sums as perfbench groups the kinds;
- the entries and targets of ``dominance._ORACLE_MEMOS`` at the end of the
  loop, and how many targets hold an empty memo;
- how many full collections landed in each query kind, and their ms.

It exits 1 if a replay fails the worker's checks of its answers (a query
raised, or an answer disagrees with its second route), or if two replays of
one seed count different true answers of some kind; else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter
from pathlib import Path

from cold import run_pinned

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))  # the benchmark's own modules, read and never edited

from run import SESSION_QUERIES
from workloads import DOMINANCE_KINDS, ORDER_KINDS, QUERY_MIX

CHILD = """
import gc, json, os, sys, time
sys.path.insert(0, sys.argv[2])
import worker
from slinf import dominance

class Probe:
    kind = None

    def begin(self, kind):
        self.kind = kind

    def end(self):
        pass

    def uninstall(self):  # run_session calls it after the loop, before it checks the answers
        gc.callbacks.remove(watch)
        memos = dominance._ORACLE_MEMOS
        self.figures = {
            "memo_entries": sum(map(len, memos.values())),
            "memo_targets": len(memos),
            "empty_memos": sum(not memo for memo in memos.values()),
        }

probe, started, landed = Probe(), [0], []

def watch(phase, info):
    if info["generation"] == 2 and probe.kind is not None:
        if phase == "start":
            started[0] = time.perf_counter_ns()
        else:
            landed.append((probe.kind, (time.perf_counter_ns() - started[0]) / 1e6))

gc.callbacks.append(watch)
out = worker.run_session({"seed": sys.argv[3], "n": int(sys.argv[4])}, probe)
per_kind = out["result"]["per_kind"]
os.write(int(sys.argv[1]), json.dumps({
    "sum_ms": {kind: entry["sum_ns"] / 1e6 for kind, entry in per_kind.items()},
    "true": {kind: entry["true"] for kind, entry in per_kind.items()},
    "failed": out["errors"] + len(out["result"]["mismatches"]),
    "gc": landed,
    **probe.figures,
}).encode())
"""


def run_once(src: Path, seed: str, cpu: int) -> dict:
    """The figures of one replay of one session."""
    reported, code, _ = run_pinned(src, CHILD, [str(PERFBENCH), seed, str(SESSION_QUERIES)], cpu)
    if code or not reported:
        raise RuntimeError(f"the replay of session {seed} under {src} exited {code}")
    return json.loads(reported)


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, action="append", help="directory holding the slinf package (default src); repeat to compare"
    )
    parser.add_argument("--seed", action="append", help="session seed as perfbench names it (default 1:0); repeatable")
    parser.add_argument("--runs", type=int, default=3, help="rounds: replays per seed and directory")
    options = parser.parse_args(args)
    sources, seeds = options.src or [Path("src")], options.seed or ["1:0"]
    if options.runs < 1:
        parser.error("give --runs >= 1")
    for src in sources:
        if not (src / "slinf" / "dominance.py").is_file():
            parser.error(f"no slinf package under {src}")
    cpu = max(os.sched_getaffinity(0))
    replays = {src: [] for src in sources}
    trues = {seed: set() for seed in seeds}
    failed = set()
    for _ in range(options.runs):
        for seed in seeds:
            for src in sources:
                figures = run_once(src.resolve(), seed, cpu)
                replays[src].append(figures)
                trues[seed].add(json.dumps(figures["true"], sort_keys=True))
                if figures["failed"]:
                    failed.add(seed)
    print(f"sessions: {' '.join(seeds)}  queries: {SESSION_QUERIES}")
    print(f"runs: {options.runs} per seed and src, round by round  cpu: {cpu}")
    for src, runs in replays.items():
        print(f"src: {src}")
        for name, kinds in [(kind, [kind]) for kind, _ in QUERY_MIX] + [
            ("dominance_s", DOMINANCE_KINDS), ("order_s", ORDER_KINDS)
        ]:
            ms = [sum(run["sum_ms"][kind] for kind in kinds) for run in runs]
            print(f"  {name:26} ms: median {statistics.median(ms):9.2f}  min {min(ms):9.2f}")
        for key in ("memo_entries", "memo_targets", "empty_memos"):
            print(f"  oracle {key}: {' '.join(map(str, sorted({run[key] for run in runs})))}")
        landed = [(kind, ms) for run in runs for kind, ms in run["gc"]]
        counts = Counter(kind for kind, _ in landed)
        print(f"  full collections: {len(landed)} in {len(runs)} replays, "
              f"{sum(not run['gc'] for run in runs)} replays with none")
        for kind, count in counts.most_common():
            ms = [m for k, m in landed if k == kind]
            print(f"    in {kind}: {count}, median {statistics.median(ms):.1f} ms")
    differ = sorted(failed | {seed for seed, counts in trues.items() if len(counts) > 1})
    print(f"answers: {'differ on ' + ' '.join(differ) if differ else 'identical'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
