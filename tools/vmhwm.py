"""Compare the in-process peak-memory growth of a workload in two source trees.

    python3 tools/vmhwm.py --parent DIR [--workload extended] [--iterations 10]

Runs ``ROUNDS`` rounds, each of one fresh interpreter per tree, this
tree first in odd rounds and the parent first in even ones.  Each run
copies the tree's ``src`` and ``perfbench`` into a new temporary directory
and compiles their bytecode (``python3 -m compileall``).  Its interpreter
imports the copy's ``vkplate.cli`` and ``perfbench/workloads.py`` and reads
VmHWM (peak resident memory) from ``/proc/self/status``: that is the
post-import level.  It then runs the workload's command lines at seed
``SEED`` ``--iterations`` times through ``workloads.run_command``, in an
empty directory of its own, and reads VmHWM again.  The growth above the
post-import level is printed for each run, then each tree's range and
median, in kB.

The reading moves with the path the sources are imported from: one tree
read 1,344 kB imported from a directory of 10 characters and 1,252 kB from
one of 16 (``extended``, 30 iterations), so every run imports from a fresh
temporary directory, whose paths have equal lengths.  Even so, about one
run in ten reads some 90 kB above the rest of its tree's, which agree
within about 20 kB, so compare the medians of ``ROUNDS`` runs.  Uncompiled
bytecode would put the compiler's peak into the post-import level, so
every copy is compiled first.  BLAS and OpenMP are capped at one thread,
as in ``perfbench``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROUNDS = 10
#: The workloads' seed, as in ``tools/bench_record.py``.
SEED = 1

#: Run in a fresh interpreter: argv is the tree, workload, seed, iterations and
#: output directory; prints the post-import VmHWM and the growth above it, in kB.
CHILD = r"""
import sys
from pathlib import Path
tree, workload, seed, iterations, out = sys.argv[1:]
sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
import workloads
from vkplate import cli

def vmhwm():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

base = vmhwm()
commands = workloads.commands(workload, int(seed))
for _ in range(int(iterations)):
    for cmd in commands:
        workloads.run_command(cli, cmd, Path(out))
print(base, vmhwm() - base)
"""


def measure(tree: Path, workload: str, iterations: int) -> tuple[int, int]:
    """(post-import VmHWM, growth above it) of one run from a fresh compiled copy, in kB."""
    env = dict(os.environ, **dict.fromkeys(THREAD_CAPS, "1"))
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as copy, tempfile.TemporaryDirectory() as out:
        for part in ("src", "perfbench"):
            shutil.copytree(tree / part, Path(copy) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run([sys.executable, "-m", "compileall", "-q", copy], check=True)
        proc = subprocess.run([sys.executable, "-c", CHILD, copy, workload, str(SEED),
                               str(iterations), out], env=env, cwd=out, capture_output=True,
                              text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run of {tree} failed:\n{proc.stderr}")
    base, growth = map(int, proc.stdout.split()[-2:])
    return base, growth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--workload", choices=("paper", "sweep", "extended"),
                        default="extended")
    parser.add_argument("--iterations", type=int, default=10)
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")

    trees = {"this": ROOT, "parent": args.parent.resolve()}
    growth = {name: [] for name in trees}
    for r in range(ROUNDS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            base, grown = measure(trees[name], args.workload, args.iterations)
            growth[name].append(grown)
            print(f"round {r + 1} {name}: post-import {base:,} kB, growth {grown:,} kB",
                  flush=True)
    for name, values in growth.items():
        print(f"{name} ({trees[name]}): {args.workload} growth over {args.iterations} "
              f"iterations {min(values):,}-{max(values):,} kB, median "
              f"{statistics.median(values):,} kB, {len(values)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
