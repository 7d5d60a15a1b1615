"""One cold operation in a fresh interpreter: a suite, a CLI command or a query session.

Usage: python3 perfbench/worker.py SRC_DIR SPEC_JSON

The spec names the operation and whether to trace it.  The worker imports
the library (and, for a session, generates its query stream), prints the CPU
time that set-up took, runs the timed part, then checks the answers and
prints one JSON line with the results.

Times are CPU seconds of this process (user plus system), not wall time: on
a shared virtual machine the wall clock also counts time the hypervisor
gives to other guests, which moved 0.2 s of work by up to a factor of three
while its CPU time stayed within a few percent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import tracing
import workloads


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready() -> None:
    """Report set-up: interpreter start, imports and input generation."""
    print(json.dumps({"setup_s": time.process_time()}), flush=True)


def run_suite(spec: dict, tracer) -> dict:
    from slinf import verify

    _ready()
    if tracer:
        tracer.begin(spec["name"])
    start = time.process_time()
    report = verify.run_suite(spec["name"])
    elapsed = time.process_time() - start
    if tracer:
        tracer.end()
    rss = _rss_mb()
    full = report.to_json()
    result = {key: full[key] for key in workloads.REPORT_FIELDS}
    return {"elapsed_s": elapsed, "rss_mb": rss, "result": result, "attempted": 1, "errors": 0}


def run_cli(spec: dict, tracer) -> dict:
    from slinf import cli

    _ready()
    out = io.StringIO()
    if tracer:
        tracer.begin("cli")
    start = time.process_time()
    with contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    elapsed = time.process_time() - start
    if tracer:
        tracer.end()
    rss = _rss_mb()
    data = out.getvalue().encode()
    result = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return {
        "elapsed_s": elapsed, "rss_mb": rss, "result": result,
        "attempted": 1, "errors": int(code not in (0, 1)),
    }


def _materialize(stream):
    """Turn the plain-data query stream into library objects (part of set-up)."""
    import slinf
    from slinf.cls_codes import ClsCode, ExtSequence

    def ideal(t):
        return slinf.Ideal(*t)

    def code(t):
        return ClsCode(ExtSequence(*t[0]), ExtSequence(*t[1]))

    convert = {
        "is_contained": lambda a: (ideal(a[0]), ideal(a[1])),
        "highest_weight": lambda a: (ideal(a[0]),),
        "code_included": lambda a: (code(a[0]), code(a[1])),
    }
    built, seen = [], {}
    for kind, args in stream:
        key = (kind, args)
        if key not in seen:
            seen[key] = convert[kind](args) if kind in convert else args
        built.append((kind, seen[key]))
    return built


def _check_query(kind: str, raw, args, answer) -> bool:
    """Second route to one answer; runs after the timed loop.

    The system queries always have #mu >= 4 * #lam, where the avoiding system
    and the gap union must agree.
    """
    import slinf
    from slinf.cls_codes import ClsCode, union_included
    from slinf.ideals import code_sequence

    if kind == "dominates_oracle":
        return answer == slinf.dominates_interlace(*args)
    if kind in ("avoiding_system_contains", "gap_union_contains"):
        return answer == slinf.avoiding_system_contains(*args) == slinf.gap_union_contains(*args)
    if kind == "is_contained":
        inner, outer = args
        single = ClsCode(
            code_sequence(outer.x, outer.y, outer.yl), code_sequence(0, outer.y, outer.yr)
        )
        return answer == union_included((single,), slinf.cls_union(inner))
    if kind == "code_included":
        return answer == workloads.code_included_reference(*raw)
    return workloads.highest_weight_reference(raw[0], answer)


def run_session(spec: dict, tracer) -> dict:
    import slinf

    stream = workloads.query_stream(spec["seed"], spec["n"])
    queries = _materialize(stream)
    functions = {kind: getattr(slinf, kind) for kind, _ in workloads.QUERY_MIX}
    _ready()

    latencies = [0] * len(queries)
    answers = [None] * len(queries)
    errors = 0
    clock = time.process_time_ns
    start = clock()
    for i, (kind, args) in enumerate(queries):
        fn = functions[kind]
        if tracer:
            tracer.begin(kind)
        t0 = clock()
        try:
            answers[i] = fn(*args)
        except Exception:  # counted as a failed operation; inputs are valid by construction
            errors += 1
        latencies[i] = clock() - t0
        if tracer:
            tracer.end()
    loop_s = (clock() - start) / 1e9
    rss = _rss_mb()
    caches = tracing.cache_snapshot(tracing.memoized_functions())
    if tracer:
        tracer.uninstall()

    per_kind = {kind: {"n": 0, "sum_ns": 0, "true": 0} for kind, _ in workloads.QUERY_MIX}
    for (kind, _), ns, answer in zip(queries, latencies, answers):
        entry = per_kind[kind]
        entry["n"] += 1
        entry["sum_ns"] += ns
        entry["true"] += answer is True  # stays 0 for highest_weight, which is not a decision
    ordered = sorted(latencies)
    seen, repeats = set(), 0
    for item in stream:
        repeats += item in seen
        seen.add(item)
    mismatches, first = [], {}
    for (kind, raw), (_, args), answer in zip(stream, queries, answers):
        if answer is None:
            continue
        if (kind, raw) in first:  # a repeat must give the answer already checked
            ok = answer == first[kind, raw]
        else:
            first[kind, raw] = answer
            ok = _check_query(kind, raw, args, answer)
        if not ok:
            mismatches.append({"kind": kind, "args": repr(raw), "answer": repr(answer)})
            if len(mismatches) >= 5:
                break
    result = {
        "n": len(queries),
        "loop_s": loop_s,
        "p50_us": ordered[len(ordered) // 2] / 1e3,
        "p99_us": ordered[int(len(ordered) * 0.99)] / 1e3,
        "per_kind": per_kind,
        "repeat_share": repeats / len(stream),
        "mismatches": mismatches,
    }
    return {
        "elapsed_s": loop_s, "rss_mb": rss, "result": result, "caches": caches,
        "attempted": len(queries), "errors": errors,
    }


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracer.install()
    runners = {"suite": run_suite, "cli": run_cli, "session": run_session}
    out = runners[spec["op"]](spec, tracer)
    if "caches" not in out:
        out["caches"] = tracing.cache_snapshot(tracing.memoized_functions())
    if tracer:
        out["trace"] = tracer.export()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
