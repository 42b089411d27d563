"""Check that two source trees give byte-identical CLI results.

    python3 tools/same_outputs.py --parent DIR

Runs every command line of ``COMMANDS`` as ``python3 -m vkplate.cli ...``
against this repository's ``src`` and against ``DIR/src``, each run in an
empty working directory of its own.  Compares stdout, stderr, exit code and
every file the command wrote there, prints one line per command line, and
exits 1 when any of them differs.  ``--deterministic`` is given to every
command that accepts it, so wall-clock columns read 0.0.

A warning line in stderr names the file and line number of the code that
warned (``/path/to/ham.py:336: RuntimeWarning: ...``); both are dropped
before the comparison, so a run that warns the same way in both trees
compares equal.

A differing command line is explained below its verdict: for stdout,
stderr and each differing file, the first differing line from each tree
and the largest relative change |ours - parent| / |parent| of the numbers
on the differing lines (or why it has none: lines added or lost, or text
besides numbers that differs); and both exit codes if they differ.  It is
then run once more on both trees and labelled "also on rerun" or "not on
rerun", which tells a one-off from a real change; either way it counts as
differing.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The path and line number that lead a warning line: ``/path/to/ham.py:336: `` before
#: ``RuntimeWarning: ...``; the substitution keeps ``ham.py: ``.
_WARNING_SOURCE = re.compile(rb"^\S*?([^/\\\s]+):\d+: (?=\w*Warning: )", re.M)
#: A decimal number, in exponent notation or not, or inf or nan.
_NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")

_D = " --deterministic"
_EXT = " --precision extended"
_ITER_EXT = " --iterate --M 5 --N 100 --tol 1e-24" + _EXT

COMMANDS = (
    # the seven tables, at the default budget and at a 3-pass budget
    "tables --out-dir tables",
    "tables --out-dir tables --max-iter 3",
    # pass-order studies and the interpolation baseline
    "compare-orders --Q 132.2 --c0 -0.15" + _D,
    "compare-orders --a 5" + _D,
    "compare-baseline --Q 132.2 --theta 0.1" + _D,
    "compare-baseline --Q 132.2 --theta 1.0" + _D,
    # the truncated baseline with lam != 0, converging in both methods
    "compare-baseline --Q 10 --theta 0.3 --N 60 --boundary simple --c0 -0.3" + _D,
    # a non-default degree, budget and tolerance must all reach the baseline
    "compare-baseline --Q 10 --theta 0.3 --N 10 --max-iter 7 --tol 1e-9" + _D,
    # the two order-20 sweeps and the default 20-point grid
    "sweep-c0 --Q 5 --sweep-order 20",
    "sweep-c0 --a 5 --sweep-order 20",
    "sweep-c0 --Q 5 --c0-min -0.99875 --c0-max -0.04875 --c0-step 0.01",
    # a non-default series order must reach every grid point
    "sweep-c0 --a 3 --sweep-order 7 --c0-min -0.9 --c0-max -0.1 --c0-step 0.2",
    # sweeps with diverged points, load and deflection, and an extended sweep:
    # the residual bound decides which orders are scored
    "sweep-c0 --Q 5 --sweep-order 20 --boundary hinged --c0-min -1.9 --c0-max -0.1"
    " --c0-step 0.1",
    "sweep-c0 --a 5 --sweep-order 20 --boundary simple --c0-min -1.9 --c0-max -0.1"
    " --c0-step 0.1",
    "sweep-c0 --a 5 --sweep-order 10 --precision extended --c0-min -0.9 --c0-max -0.1"
    " --c0-step 0.2",
    # a sweep stepped in chunks of 6 controls: the first chunk diverges up to
    # its last point (-0.3) and the grid ends in a partial chunk of 5
    "sweep-c0 --Q 5 --sweep-order 20 --boundary hinged --c0-min -0.55 --c0-max -0.05"
    " --c0-step 0.05",
    # chunks of 3 whose diverged rows are stepped past their first diverged
    # order: a floating-point warning added or lost shows in stderr
    "sweep-c0 --Q 5 --sweep-order 30 --boundary hinged --c0-min -1.9 --c0-max -0.1",
    # an overflowing sweep: its chunks fall back to one-control runs, and
    # numpy's overflow warnings must come in the same order
    "sweep-c0 --Q 1e300 --sweep-order 3 --c0-min -0.9 --c0-max -0.1 --c0-step 0.2",
    # series, iterate and extended solves, as CSV and as JSON
    "solve-q --Q 5" + _D,
    "solve-q --Q 5 --format json" + _D,
    "solve-q --Q 1000 --c0 -0.02 --iterate" + _D,
    "solve-q --Q 1000 --c0 -0.02 --iterate --format json" + _D,
    "solve-q --Q 5 --c0 -0.5" + _ITER_EXT + _D,
    "solve-q --Q 5 --c0 -0.5 --format json" + _ITER_EXT + _D,
    "solve-a --a 5" + _D,
    "solve-a --a 5 --format json" + _D,
    "solve-a --a 30 --iterate" + _D,
    "solve-a --a 30 --iterate --format json" + _D,
    # a run that stalls on its N = 60 plateau
    "solve-a --a 20 --iterate --N 60" + _D,
    # a run that blows up: diverged, with its report
    "solve-a --a 40 --iterate --c0 -0.009 --N 240 --max-iter 1500" + _D,
    "solve-a --a 5 --c0 -0.5" + _ITER_EXT + _D,
    "solve-a --a 5 --c0 -0.5 --format json" + _ITER_EXT + _D,
    # extended iterate runs that widen to double-double mid-run: the README's
    # run below the float64 floor, and the benchmark's a = 10 solve
    "solve-q --Q 5 --iterate --M 5 --N 100 --c0 -0.5 --tol 1e-40" + _EXT + _D,
    "solve-a --a 10 --c0 -0.2" + _ITER_EXT + _D,
    # extended-precision series in both directions
    "solve-q --Q 5 --order 20 --format json" + _EXT + _D,
    "solve-a --a 5 --order 20 --format json" + _EXT + _D,
    # an extended series whose float64 trial fails at its fifth pair, below
    # 2**-26 * M**2 (see ham.run_passes), and which runs in double-double
    "solve-q --Q 1 --c0 -0.9 --order 60" + _EXT + _D,
    # the benchmark's extended series, whose float64 trial is kept
    "solve-q --Q 5 --c0 -0.35 --order 30" + _EXT + _D,
    # a trial whose guess cannot clear the threshold: the double-double run
    # warns of its overflow, as the warning lines on stderr show
    "solve-q --Q 1e100 --c0 -0.5 --order 3" + _EXT + _D,
    # a simply supported edge (lam != 0)
    "solve-a --a 5 --boundary simple --format json" + _D,
    # diverging runs
    "solve-q --Q 1000 --c0 -1.5" + _D,
    "solve-q --Q 1000 --c0 -1.5 --iterate --max-iter 20" + _D,
    # a prescribed load of -0.0 keeps its sign in the q column
    "solve-q --Q -0.0" + _D,
    "solve-q --Q -0.0 --iterate --max-iter 3" + _D,
    "solve-q --Q -0.0 --iterate --max-iter 3 --format json" + _D,
    # a zero-load series as JSON: series lengths and the signs of zeros
    "solve-q --Q -0.0 --order 10 --format json" + _D,
    "solve-q --Q -0.0 --order 10 --format json" + _EXT + _D,
    # deflection profiles
    "curve --Q 5",
    "curve --a 5",
    "curve --a 5" + _EXT,
    # a zero load: the zero slope series has a flat profile
    "curve --Q 0",
    "curve --Q 0" + _EXT,
    # written files and an unwritable one
    "solve-q --Q 5 --out run.csv" + _D,
    "solve-a --a 5 --format json --out run.json" + _D,
    "curve --Q 5 --out curve.csv",
    "sweep-c0 --a 5 --out sweep.csv",
    "solve-q --Q 5 --out no/such/dir/run.csv" + _D,
    # an order-0 deflection series scores nothing: a usage error
    "solve-a --a 5 --order 0 --format json" + _D,
    # a missing target is a usage error
    "solve-q",
    "solve-a",
    "sweep-c0",
    "compare-orders",
    "compare-baseline",
    "curve",
)


def run(tree: Path, command: str) -> dict:
    """Everything one command line leaves behind when run against ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "vkplate.cli", *command.split()],
                              cwd=work, env=env, capture_output=True)
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
    stderr = _WARNING_SOURCE.sub(rb"\1: ", proc.stderr)
    return {"stdout": proc.stdout, "stderr": stderr, "exit code": proc.returncode,
            "files": files}


def _first_line(text: bytes, i: int) -> str:
    line = text.splitlines(keepends=True)[i:i + 1]
    return repr(line[0].decode(errors="replace")[:200]) if line else "(no line)"


def _relative(ours: float, theirs: float) -> float:
    if ours == theirs or ours != ours and theirs != theirs:  # equal, or both nan
        return 0.0
    return abs(ours - theirs) / abs(theirs) if theirs else math.inf


def largest_change(a: bytes, b: bytes) -> str:
    """The largest relative change of the numbers on the lines of ``a`` (this tree)
    that differ from those of ``b`` (the parent), and the line it is on; or why
    the two differ in more than numbers."""
    ours, theirs = a.splitlines(), b.splitlines()
    if len(ours) != len(theirs):
        return f"{len(ours)} lines against {len(theirs)}"
    worst, where, moved = 0.0, 0, 0
    for i, (x, y) in enumerate(zip(ours, theirs)):
        if x == y:
            continue
        if _NUMBER.sub(b"#", x) != _NUMBER.sub(b"#", y):
            return f"line {i + 1} differs in more than its numbers"
        moved += 1
        for u, v in zip(_NUMBER.findall(x), _NUMBER.findall(y)):
            change = _relative(float(u), float(v))
            if change > worst or not where:
                worst, where = change, i + 1
    return f"{moved} lines differ, largest relative change {worst:.2g} (line {where})"


def differences(ours: dict, theirs: dict) -> list[str]:
    """One line per part of two results that differs, saying how."""
    parts = [(key, ours[key], theirs[key]) for key in ("stdout", "stderr")]
    parts += [(f"file {name}", ours["files"].get(name), theirs["files"].get(name))
              for name in sorted(ours["files"].keys() | theirs["files"].keys())]
    out = []
    for key, a, b in parts:
        if a is None or b is None:
            out.append(f"{key}: only {'in the parent' if a is None else 'in this tree'}")
        elif a != b:
            pairs = zip(a.splitlines(keepends=True), b.splitlines(keepends=True))
            i = next((i for i, (x, y) in enumerate(pairs) if x != y),
                     min(len(a.splitlines()), len(b.splitlines())))
            out.append(f"{key} line {i + 1}: this tree {_first_line(a, i)}, "
                       f"parent {_first_line(b, i)}; {largest_change(a, b)}")
    if ours["exit code"] != theirs["exit code"]:
        out.append(f"exit code: this tree {ours['exit code']}, parent {theirs['exit code']}")
    return out


def compare(parent: Path, command: str) -> list[str]:
    return differences(run(ROOT, command), run(parent, command))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the source tree to compare against")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "vkplate").is_dir():
        parser.error(f"{args.parent} has no src/vkplate")
    differing = 0
    for command in COMMANDS:
        diffs = compare(args.parent, command)
        if not diffs:
            print(f"same: {command}", flush=True)
            continue
        differing += 1
        again = "also on rerun" if compare(args.parent, command) else "not on rerun"
        print(f"DIFFERS ({again}): {command}", *diffs, sep="\n    ", flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} command lines identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
