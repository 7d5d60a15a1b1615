import importlib
import pkgutil

import slinf


def test_only_the_listed_functions_keep_a_memo():
    # every memo here is unbounded, so a new one has to be a visible decision
    memos = set()
    for info in pkgutil.iter_modules(slinf.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"slinf.{info.name}")
        memos |= {
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__
        }
    assert memos == {"dominance._dominates"}
