"""Time one ``slinf`` command cold: each run in a fresh, pinned interpreter.

Usage (from the root of a checkout):

    python3 tools/cold.py [--src DIR]... [--runs N] -- ARGV...

For example, to compare a parent checkout with this one:

    python3 tools/cold.py --src ../parent/src --src src --runs 7 -- \
        plscheck [3,1,0] --system qlambda --widths 3..8 --bound 5

Each run starts a new ``python3`` with DIR (default ``src``) first on its
``PYTHONPATH``, pinned with ``os.sched_setaffinity`` to the last CPU this
process may run on, before the interpreter starts.  The child imports
``slinf.cli``, reads ``time.process_time`` (its CPU so far: interpreter start
and imports), and times ``main(ARGV)`` alone.  With several ``--src``, the
runs go round by round, one run per DIR in the order given, so a drift of
the machine's speed reaches every DIR alike.  For each DIR the script prints:

- the min and median CPU s of ``cli.main``;
- the min and median CPU s of the child before ``main``: interpreter start
  and imports;
- the min and median CPU s of the whole child (user + system, from
  ``os.wait4``, interpreter start included);
- the child's peak RSS in MB (its ``ru_maxrss``, from ``os.wait4``), max over
  the runs;
- the exit codes seen and the sha256 of stdout.

It exits 1 if any runs disagree on stdout or on the exit code, within one DIR
or across them, else 0.
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
os.write(int(sys.argv[1]), f"{start!r} {spent!r}".encode())
sys.exit(code)
"""


def run_pinned(src: Path, child: str, args: list[str], cpu: int, stdout=subprocess.DEVNULL):
    """(report, exit code, rusage) of the Python code CHILD run once in a fresh interpreter.

    The child is a new ``python3`` with SRC first on its ``PYTHONPATH``,
    pinned to CPU before the interpreter starts; its ``sys.argv`` is the
    write end of a pipe, then ARGS.  The report is what it wrote to the pipe.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    process = subprocess.Popen(
        [sys.executable, "-c", child, str(write), *args],
        stdout=stdout, stderr=subprocess.DEVNULL, env=env, pass_fds=(write,),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        reported = pipe.read()
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return reported, process.returncode, usage


def run_once(src: Path, argv: list[str], cpu: int) -> tuple[float, float, float, float, int, str]:
    """(cli.main CPU s, CPU s before main, child CPU s, child peak RSS MB, exit code, stdout sha256) of one fresh run.

    Only the digest of stdout is kept: the child is forked from this process,
    and its peak RSS counts this process's size at the fork.
    """
    with tempfile.TemporaryFile() as out:
        reported, code, usage = run_pinned(src, CHILD, argv, cpu, stdout=out)
        out.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 16), b""):  # in chunks, so this process stays small
            digest.update(chunk)
    if not reported:
        raise RuntimeError(f"the child exited {code} without timing cli.main")
    before_s, main_s = map(float, reported.split())
    cpu_s = usage.ru_utime + usage.ru_stime
    return main_s, before_s, cpu_s, usage.ru_maxrss / 1024, code, digest.hexdigest()


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, action="append", help="directory holding the slinf package (default src); repeat to compare"
    )
    parser.add_argument("--runs", type=int, default=7, help="rounds: fresh interpreters to start per directory")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="the slinf command, after --")
    options = parser.parse_args(args)
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv
    sources = options.src or [Path("src")]
    if not argv or options.runs < 1:
        parser.error("give --runs >= 1 and a slinf command after --")
    for src in sources:
        if not (src / "slinf" / "cli.py").is_file():
            parser.error(f"no slinf package under {src}")
    cpu = max(os.sched_getaffinity(0))
    rounds = [[run_once(src.resolve(), argv, cpu) for src in sources] for _ in range(options.runs)]
    print(f"command: slinf {' '.join(argv)}")
    print(f"runs: {options.runs} per src, round by round  cpu: {cpu}")
    answers = set()  # (exit code, stdout sha256) of every run
    for src, runs in zip(sources, zip(*rounds)):
        main_s, before_s, child_s, rss, codes, digests = zip(*runs)
        answers.update(zip(codes, digests))
        print(f"src: {src}")
        print(f"  cli.main CPU s: min {min(main_s):.5f}  median {statistics.median(main_s):.5f}")
        print(f"  before main CPU s: min {min(before_s):.5f}  median {statistics.median(before_s):.5f}")
        print(f"  child CPU s: min {min(child_s):.5f}  median {statistics.median(child_s):.5f}")
        print(f"  peak RSS MB: max {max(rss):.1f}")
        print(f"  exit codes: {sorted(set(codes))}")
        print(f"  stdout sha256: {' '.join(sorted(set(digests)))}")
    return 0 if len(answers) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
