"""Print the answers the benchmark's correctness gate compares against.

Usage, from the root of a checkout:  python3 perfbench/record.py > perfbench/expected.json

Run it only at a commit whose answers are known to be right: every suite
report's checked/passed/failed/details, and the exit code and sha256 of the
output of every lattice command any seed can draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import workloads


def main() -> None:
    sys.path.insert(0, "src")
    from slinf import cli, verify

    suites = {}
    for name in workloads.DOMINANCE_SUITES + workloads.ORDER_SUITES:
        report = verify.run_suite(name).to_json()
        suites[name] = {key: report[key] for key in workloads.REPORT_FIELDS}
    lattice = {}
    for argv in workloads.lattice_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lattice[json.dumps(argv)] = {"exit": code, "sha256": digest}
    print(json.dumps({"suites": suites, "lattice": lattice}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
