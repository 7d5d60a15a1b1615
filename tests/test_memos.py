import importlib
import json
import pkgutil
from pathlib import Path

import slinf
from slinf import dominance
from slinf.dominance import dominates_oracle
from slinf.partitions import enumerate_classes
from slinf.verify import run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_only_the_listed_functions_keep_a_memo():
    # a module-level memo lives as long as the process, so a new one has to
    # be a visible decision: no function keeps a functools cache, and the one
    # table is the public chain oracle's, one memo per target
    caches, tables = set(), set()
    for info in pkgutil.iter_modules(slinf.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"slinf.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches.add(f"{info.name}.{name}")
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                tables.add(f"{info.name}.{name}")
    assert caches == set()
    # verify._SUITES is the suite registry, filled once at import
    assert tables == {"dominance._ORACLE_MEMOS", "verify._SUITES"}


def test_dominance_suites_leave_no_memo_behind():
    table = dominance._ORACLE_MEMOS
    dominates_oracle((3, 1, 0), (1, 0))  # some public memo the suites must leave as it is
    before = {target: dict(memo) for target, memo in table.items()}
    for suite in ("lgts2", "interlace", "lemmas", "pmain"):
        printed = json.dumps(run_suite(suite).to_json(), sort_keys=True, indent=2) + "\n"
        assert printed == (GOLDEN / f"{suite}.json").read_text(encoding="utf-8"), suite
        assert table == before, suite
    # the public table holds the pairs the process-wide cache held before the
    # memo was scoped: 2 439 on this replay, counted on that cache
    table.clear()
    classes = [c for w in range(1, 6) for c in enumerate_classes(w, 3)]
    for lam in classes:
        for mu in classes:
            dominates_oracle(lam, mu)
    assert sum(map(len, table.values())) == 2_439
