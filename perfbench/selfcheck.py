"""Self-check of the benchmark itself; exits 1 on the first failed check.

Usage, from the root of a checkout:  python3 perfbench/selfcheck.py

1. The generators are deterministic: the same seed gives the same plans and
   the same query stream, and another seed gives another stream.
2. The metric catalogue matches BENCHMARK.json, and a short run prints every
   end-to-end metric (untraced) and every per-layer metric (traced) with its
   unit.
3. An injected wrong answer fails the run on every workload.  Each injection
   copies ``src`` under ``.perfbench/selfcheck/`` and makes one public
   function return the opposite answer at every import site.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent

INJECT = '''

def _selfcheck_flip(name):
    import sys

    from . import cls_codes, dominance, ideals

    real = next(getattr(m, name) for m in (cls_codes, dominance, ideals) if hasattr(m, name))

    def wrong(*args):
        return not real(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("slinf") and getattr(mod, name, None) is real:
            setattr(mod, name, wrong)


_selfcheck_flip({name!r})
'''

# workload -> the public function whose answers are flipped
INJECTIONS = {
    "queries": "dominates_oracle",
    "lattice": "is_contained",
    "verify-cold": "code_included",
}


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def run(root: Path, workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def check_determinism() -> None:
    for plan in (workloads.verify_plan, workloads.lattice_plan):
        if plan(5) != plan(5):
            fail(f"{plan.__name__} differs between two calls with one seed")
    if workloads.query_stream("5:0", 3000) != workloads.query_stream("5:0", 3000):
        fail("query_stream differs between two calls with one seed")
    if workloads.query_stream("5:0", 3000) == workloads.query_stream("6:0", 3000):
        fail("query_stream gives one stream for two seeds")
    print("ok: generators are deterministic per seed")


def check_catalogue(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != metrics.END_TO_END:
        fail(f"end-to-end metrics differ from BENCHMARK.json: {e2e} != {metrics.END_TO_END}")
    if layer != {name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}:
        fail("per-layer metrics differ from BENCHMARK.json")
    for trace, want in ((0, e2e), (1, {name: unit for name, (unit, _) in layer.items()})):
        code, out = run(root, "queries", trace)
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        if code or not out["correct"] or got != want:
            fail(f"trace {trace}: exit {code}, correct {out['correct']}, metrics {sorted(got)}")
    print("ok: every metric appears with its unit, traced and untraced")


def check_injections(root: Path) -> None:
    for workload, name in INJECTIONS.items():
        mutant = root / ".perfbench" / "selfcheck" / name
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(root / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
        init = mutant / "src" / "slinf" / "__init__.py"
        init.write_text(init.read_text() + INJECT.format(name=name))
        code, out = run(mutant, workload, 0)
        shutil.rmtree(mutant)
        if code != 1 or out["correct"]:
            fail(f"{workload} with {name} flipped: exit {code}, correct {out['correct']}")
        print(f"ok: {workload} fails when {name} answers wrongly")


def main() -> None:
    root = Path.cwd()
    check_determinism()
    check_catalogue(root)
    check_injections(root)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
