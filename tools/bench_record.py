"""Record benchmark runs of one checkout into a trajectory file.

    python3 tools/bench_record.py --out BENCH_6.json --label change
    python3 tools/bench_record.py --out BENCH_6.json --label parent --checkout DIR

Runs ``perfbench/run.py`` of the checkout (default: this repository) for
``paper``, ``sweep`` and ``extended`` at seed ``SEED`` for ``SECONDS`` each,
once at ``--trace 0`` and once at ``--trace 1``, and stores the
``{"detail": ...}`` line and the final ``{"correct", ..., "metrics"}`` line
of each run under ``runs[label][workload]["trace0"|"trace1"]`` of the
output file.  Runs already in the file under other labels are kept, so the
runs of a parent commit and of a change go into one file, one after the
other.  The benchmark itself is not changed: its checks and bounds are those
of the checkout.

Exits 1 when a run is not ``"correct": true``; the run is still recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper", "sweep", "extended")
#: Fixed, so that the runs of every trajectory file can be compared.
SEED = 1
SECONDS = 35.0

#: How the north star's named workloads map onto the benchmark's three.
COVERAGE = {
    "vkplate tables (all seven)": "paper",
    "Q=1000 in iterate mode": "paper (table 3)",
    "a=30 in iterate mode": "paper (table 7)",
    "a=5 at extended precision": "extended",
    "Q=5 as a series of order 50": "only table 1's last row, inside paper; no workload of its own",
    "a 20-point c0 sweep": "sweep, whose two sweeps have 96 points each, not 20",
}


def run_one(checkout: Path, workload: str, trace: int) -> dict:
    """One benchmark run; returns its detail and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    detail = next(line["detail"] for line in lines if "detail" in line)
    result = next(line for line in reversed(lines) if "metrics" in line)
    return {"command": " ".join(cmd[1:]), "detail": detail, "result": result}


def commit_of(checkout: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["coverage"] = COVERAGE
    runs = {"commit": commit_of(args.checkout), "seed": SEED, "seconds": SECONDS}
    correct = True
    for workload in WORKLOADS:
        runs[workload] = {}
        for trace in (0, 1):
            run = run_one(args.checkout, workload, trace)
            runs[workload][f"trace{trace}"] = run
            correct &= run["result"]["correct"] is True
            print(f"{args.label} {workload} trace {trace}: correct={run['result']['correct']}",
                  flush=True)
    record.setdefault("runs", {})[args.label] = runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
