"""Check that two source trees give byte-identical CLI results.

    python3 tools/same_outputs.py --parent DIR

Runs every command line of ``COMMANDS`` as ``python3 -m vkplate.cli ...``
against this repository's ``src`` and against ``DIR/src``, each run in an
empty working directory of its own.  Compares stdout, stderr, exit code and
every file the command wrote there, prints one line per command line, and
exits 1 when any of them differs.  ``--deterministic`` is given to every
command that accepts it, so wall-clock columns read 0.0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    # the two order-20 sweeps and the default 20-point grid
    "sweep-c0 --Q 5 --sweep-order 20",
    "sweep-c0 --a 5 --sweep-order 20",
    "sweep-c0 --Q 5 --c0-min -0.99875 --c0-max -0.04875 --c0-step 0.01",
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
    "solve-a --a 5 --c0 -0.5" + _ITER_EXT + _D,
    "solve-a --a 5 --c0 -0.5 --format json" + _ITER_EXT + _D,
    # extended-precision series in both directions
    "solve-q --Q 5 --order 20 --format json" + _EXT + _D,
    "solve-a --a 5 --order 20 --format json" + _EXT + _D,
    # diverging runs
    "solve-q --Q 1000 --c0 -1.5" + _D,
    "solve-q --Q 1000 --c0 -1.5 --iterate --max-iter 20" + _D,
    # a prescribed load of -0.0 keeps its sign in the q column
    "solve-q --Q -0.0" + _D,
    "solve-q --Q -0.0 --iterate --max-iter 3" + _D,
    "solve-q --Q -0.0 --iterate --max-iter 3 --format json" + _D,
    # deflection profiles
    "curve --Q 5",
    "curve --a 5",
    # written files and an unwritable one
    "solve-q --Q 5 --out run.csv" + _D,
    "solve-a --a 5 --format json --out run.json" + _D,
    "curve --Q 5 --out curve.csv",
    "sweep-c0 --a 5 --out sweep.csv",
    "solve-q --Q 5 --out no/such/dir/run.csv" + _D,
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
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode,
            "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the source tree to compare against")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "vkplate").is_dir():
        parser.error(f"{args.parent} has no src/vkplate")
    differing = 0
    for command in COMMANDS:
        ours, theirs = run(ROOT, command), run(args.parent, command)
        diffs = [key for key in ours if ours[key] != theirs[key]]
        differing += bool(diffs)
        verdict = f"DIFFERS in {', '.join(diffs)}" if diffs else "same"
        print(f"{verdict}: {command}", flush=True)
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} command lines identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
