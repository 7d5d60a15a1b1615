"""Layer tracing installed from outside the library, in one worker process.

``Tracer.install`` replaces each traced public function at every import
site: the package namespace and each ``slinf`` module that holds a
reference to it, so ``slinf.verify.dominates_oracle`` and
``slinf.local_systems.dominates_oracle`` both pass through the wrapper.
Heavy structural calls are recorded as spans (name, start, end, parent,
operation id); leaf functions called up to millions of times only add to a
per (operation kind, function, caller) aggregate.  Recursive memo internals
(``_dominates``, ``_children``) are never wrapped; their ``cache_info()`` is
read instead.  Self time is a call's time minus the time of the traced
calls directly inside it.  Traced times are read from the wall clock
(``perf_counter_ns``), which is cheap enough to read around millions of
calls; a process CPU-time clock costs a system call per read.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter_ns

SPAN_FUNCTIONS = (
    "main", "run_suite", "family_hasse", "hasse_dot", "hasse_adjacency",
    "covering_relations", "containing_ideals", "enumerate_ideals",
    "is_precoherent_on_window", "is_coherent_on_window",
)
AGGREGATE_FUNCTIONS = (
    "code_included", "seq_leq_shifted", "is_contained", "cls_union", "highest_weight",
    "diagram_order_condition", "dominates_oracle", "dominates_interlace", "gap_criterion",
    "equal_ends_hypotheses", "tight_gaps_hypotheses", "wide_window_hypotheses",
    "enumerate_classes", "avoiding_system_contains", "gap_union_contains",
)


def slinf_modules() -> list:
    """The package and every submodule, imported."""
    import slinf

    mods = [slinf]
    for info in pkgutil.iter_modules(slinf.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"slinf.{info.name}"))
    return mods


def memoized_functions() -> dict:
    """Every function with ``cache_info`` found by scanning the slinf modules."""
    found = {}
    for mod in slinf_modules():
        for value in vars(mod).values():
            # a traced wrapper keeps the memoized function as __wrapped__
            for fn in (value, getattr(value, "__wrapped__", None)):
                if callable(getattr(fn, "cache_info", None)):
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return dict(sorted(found.items()))


def cache_snapshot(memoized: dict) -> dict:
    out = {}
    for name, fn in memoized.items():
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return out


class Tracer:
    """Spans and aggregates of one worker process, kept in memory until it ends."""

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, child_ns, span_id]
        self.spans: list[list] = []
        self.agg: dict[tuple[str, str, str], list[int]] = {}
        self.op_kind = ""
        self.op_id = 0
        self.op_start = 0
        self.installed: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for mod in slinf_modules():
            for name in SPAN_FUNCTIONS + AGGREGATE_FUNCTIONS:
                fn = getattr(mod, name, None)
                if fn is None or not getattr(fn, "__module__", "").startswith("slinf"):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, name in SPAN_FUNCTIONS)
                setattr(mod, name, wrappers[id(fn)])
                self.installed.append((mod, name, fn))

    def uninstall(self) -> None:
        """Put the original functions back, so later calls are not traced."""
        for mod, name, fn in self.installed:
            setattr(mod, name, fn)
        self.installed.clear()

    def _wrap(self, name: str, fn, span: bool):
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            if span:
                frame = [name, 0, len(self.spans)]
                self.spans.append(None)  # reserve the id; filled on exit
            else:  # an aggregated call passes its caller's span on to spans inside it
                frame = [name, 0, parent_span]
            stack.append(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                if parent is not None:
                    parent[1] += took
                self._add(name, parent[0] if parent else self.op_kind, took, took - frame[1])
                if span:
                    size = len(result) if isinstance(result, (list, dict, str)) else None
                    self.spans[frame[2]] = [
                        frame[2], name, start, end, parent_span, self.op_id, took - frame[1], size,
                    ]

        traced.__wrapped__ = fn
        return traced

    def _add(self, name: str, caller: str, took: int, self_ns: int) -> None:
        key = (self.op_kind, name, caller)
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, took, self_ns]
        else:
            entry[0] += 1
            entry[1] += took
            entry[2] += self_ns

    def begin(self, kind: str) -> None:
        """Open the span of one operation (a suite, a command or a query)."""
        self.op_id += 1
        self.op_kind = kind
        self.stack.append([f"op:{kind}", 0, len(self.spans)])
        self.spans.append(None)
        self.op_start = perf_counter_ns()

    def end(self) -> None:
        end = perf_counter_ns()
        frame = self.stack.pop()
        took = end - self.op_start
        self._add(frame[0], "", took, took - frame[1])
        self.spans[frame[2]] = [
            frame[2], frame[0], self.op_start, end, -1, self.op_id, took - frame[1], None,
        ]

    def export(self) -> dict:
        return {
            "agg": [[*key, *value] for key, value in self.agg.items()],
            "spans": self.spans,
        }
