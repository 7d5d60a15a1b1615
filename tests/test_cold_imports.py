"""What a fresh interpreter loads when it imports slinf.

Every command and suite runs in a new process, so its imports are part of
what it costs.  These tests run a child interpreter, since pytest itself
has already loaded the modules they look for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("dataclasses", "inspect", "slinf.verify", "slinf.hasse")


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _loaded_after(statement: str) -> set[str]:
    code = f"import json, sys\n{statement}\nprint(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"
    return set(json.loads(_fresh(code)))


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import slinf", set()),
        ("import slinf.cli", set()),
        ("import slinf.verify", {"slinf.verify"}),
    ],
)
def test_imports_load_no_dataclass_machinery_and_no_unasked_module(statement, loaded):
    assert _loaded_after(statement) == loaded


def test_lazy_names_still_resolve():
    out = _fresh(
        "import slinf\n"
        "print(slinf.run_suite.__module__, slinf.family_hasse.__module__)\n"
        "print(slinf.verify.__name__, slinf.hasse.__name__)\n"
        "from slinf import VerifyReport, suite_names, verify\n"
        "print(VerifyReport is verify.VerifyReport, suite_names() == verify.suite_names())\n"
        "print('run_suite' in dir(slinf), verify.DEFAULT_CEILING == slinf.partitions.DEFAULT_CEILING)"
    )
    assert out.split("\n") == [
        "slinf.verify slinf.hasse",
        "slinf.verify slinf.hasse",
        "True True",
        "True True",
        "",
    ]
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        import slinf

        slinf.nothing
