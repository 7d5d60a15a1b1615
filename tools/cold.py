"""Time one ``slinf`` command cold: each run in a fresh, pinned interpreter.

Usage (from the root of a checkout):

    python3 tools/cold.py [--src DIR] [--runs N] -- ARGV...

For example:

    python3 tools/cold.py --runs 7 -- plscheck [3,1,0] --system qlambda --widths 3..8 --bound 5

Each run starts a new ``python3`` with DIR (default ``src``) first on its
``PYTHONPATH``, pinned with ``os.sched_setaffinity`` to the last CPU this
process may run on, before the interpreter starts.  The child imports
``slinf.cli`` and times ``main(ARGV)`` alone with ``time.process_time``, so
interpreter start and imports are not counted.  The script prints:

- the min and median CPU s of ``cli.main``;
- the min and median CPU s of the whole child (user + system, from
  ``os.wait4``, interpreter start included);
- the child's peak RSS in MB (its ``ru_maxrss``, from ``os.wait4``), max over
  the runs;
- the exit codes seen and the sha256 of stdout.

It exits 1 if the runs disagree on stdout or on the exit code, else 0.  Run it
once against the parent's ``src`` and once against the change's to compare.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import os, sys, time
from slinf.cli import main
argv = sys.argv[2:]
start = time.process_time()
code = main(argv)
spent = time.process_time() - start
sys.stdout.flush()
os.write(int(sys.argv[1]), repr(spent).encode())
sys.exit(code)
"""


def run_once(src: Path, argv: list[str], cpu: int) -> tuple[float, float, float, int, bytes]:
    """(cli.main CPU s, child CPU s, child peak RSS MB, exit code, stdout) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    with tempfile.TemporaryFile() as out:
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(write), *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env, pass_fds=(write,),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        os.close(write)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(read, "rb") as timing:
            reported = timing.read()
        out.seek(0)
        stdout = out.read()
    if not reported:
        raise RuntimeError(f"the child exited {child.returncode} without timing cli.main")
    return float(reported), usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, child.returncode, stdout


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"), help="directory holding the slinf package")
    parser.add_argument("--runs", type=int, default=7, help="fresh interpreters to start, one after another")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the slinf command, after --")
    options = parser.parse_args(args)
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv
    if not argv or options.runs < 1:
        parser.error("give --runs >= 1 and a slinf command after --")
    if not (options.src / "slinf" / "cli.py").is_file():
        parser.error(f"no slinf package under {options.src}")
    cpu = max(os.sched_getaffinity(0))
    runs = [run_once(options.src.resolve(), argv, cpu) for _ in range(options.runs)]
    main_s, child_s, rss, codes, outs = zip(*runs)
    digests = sorted({hashlib.sha256(out).hexdigest() for out in outs})
    print(f"command: slinf {' '.join(argv)}")
    print(f"src: {options.src}  runs: {options.runs}  cpu: {cpu}")
    print(f"cli.main CPU s: min {min(main_s):.5f}  median {statistics.median(main_s):.5f}")
    print(f"child CPU s: min {min(child_s):.5f}  median {statistics.median(child_s):.5f}")
    print(f"peak RSS MB: max {max(rss):.1f}")
    print(f"exit codes: {sorted(set(codes))}")
    print(f"stdout sha256: {' '.join(digests)}")
    return 0 if len(digests) == 1 and len(set(codes)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
