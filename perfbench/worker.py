"""One benchmark run inside a fresh interpreter; ``run.py`` starts it.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \\
        --seconds S --trace 0|1 --out-dir DIR

It runs the workload in a closed loop with one caller: each command
starts after the previous one returns, and an iteration is the whole
command list.  Each command is timed by ``host.timed``, which pins it to
the fastest CPU and normalizes its time; an iteration's times are sums
over its commands.  Outputs are checked after each iteration, outside
the timed region.

With ``--trace 0`` iterations run untraced for the whole time.  With
``--trace 1`` the first half of the time runs untraced and the second
half traced, so that the traced-to-untraced wall-time ratio (the tracing
overhead) comes from the same process.  The last line of stdout is one
JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402
import layers  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vkplate import cli  # noqa: E402

#: Each phase runs at least this many iterations, whatever the time.
MIN_ITERATIONS = 2
#: Failure descriptions kept for the result.
MAX_PROBLEMS = 10


class WorkloadRun:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.commands = workloads.commands(workload, seed)
        self.references = [workloads.load_reference(workload, c) for c in self.commands]
        if not all(self.references):
            raise SystemExit(f"no reference outputs for {workload} seed {seed}")
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_bytes = 0
        self.command_walls = []

    def iteration(self, cpus, calibs):
        """Run every command once; return (wall s, normalized wall s, outputs).

        Each command is a step of ``host.timed``; the iteration's times
        are the sums over its commands.
        """
        for stale in self.out_dir.glob("table*.csv"):
            stale.unlink()
        outputs = []
        wall = norm = 0.0
        for cmd in self.commands:
            out, seconds, norm_seconds, cmd_calibs = host.timed(
                lambda: self._run(cmd), cpus)
            outputs.append(out)
            calibs += cmd_calibs
            self.command_walls.append(seconds)
            wall += seconds
            norm += norm_seconds
        return wall, norm, outputs

    def _run(self, cmd):
        try:
            return workloads.run_command(cli, cmd, self.out_dir)
        except (Exception, SystemExit) as exc:  # a failed solve, counted in check()
            return exc

    def check(self, outputs):
        """Check every solve of one iteration against the reference."""
        self.report_bytes = 0
        for cmd, ref, out in zip(self.commands, self.references, outputs):
            if isinstance(out, BaseException):
                why = f"raised {type(out).__name__}: {out}"
                verdict = {key: why for key in workloads.reference_keys(ref)}
            else:
                code, stdout, stderr = out
                docs = workloads.documents(cmd, stdout, stderr, self.out_dir)
                self.report_bytes += sum(len(t.encode()) for d, t in docs.items()
                                         if d != "summary")
                verdict = workloads.check_command(cmd, docs, ref)
            self.attempted += len(verdict)
            for key, why in verdict.items():
                if why:
                    self.failed += 1
                    if len(self.problems) < MAX_PROBLEMS:
                        self.problems.append(f"{cmd.key} {key}: {why}")


def run_phase(run, seconds, cpus, calibs, traced=False):
    """Iterate for about ``seconds``, at least MIN_ITERATIONS times.

    No iteration starts when it would likely end more than half an
    iteration after the deadline.  Returns wall times, normalized wall
    times, per-layer runs and any wrappers left bound.
    """
    walls, norms, layer_runs, leaked = [], [], [], []
    end = time.perf_counter() + seconds
    while (len(walls) < MIN_ITERATIONS
           or time.perf_counter() + statistics.median(walls) / 2 < end):
        tr = tracer.Tracer()
        if traced:
            tr.install(layers.targets())
        try:
            wall, norm, outputs = run.iteration(cpus, calibs)
        finally:
            tr.uninstall()
        run.check(outputs)
        walls.append(wall)
        norms.append(norm)
        if traced:
            leaked += tracer.leaked_wrappers()
            layer_runs.append(layers.metrics(tr, run.report_bytes))
    return walls, norms, layer_runs, leaked


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    run = WorkloadRun(args.workload, args.seed, args.out_dir)
    cpus = os.sched_getaffinity(0)
    calibs = []
    result = {"python": platform.python_version(), "numpy": np.__version__}
    if not args.trace:
        walls, norms, _, _ = run_phase(run, args.seconds, cpus, calibs)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        walls, norms, _, _ = run_phase(run, args.seconds / 2, cpus, calibs)
        traced, traced_norms, layer_runs, leaked = run_phase(
            run, args.seconds / 2, cpus, calibs, traced=True)
        per_layer = layers.combine(layer_runs)
        per_layer["host.calib_s"] = statistics.median(calibs)
        per_layer["trace.overhead_ratio"] = (statistics.median(traced_norms)
                                             / statistics.median(norms))
        result.update(traced_walls=traced, traced_norms=traced_norms, per_layer=per_layer,
                      self_test=layers.self_test(args.workload, layer_runs, leaked))
    result.update(walls=walls, norms=norms, command_walls=run.command_walls, calibs=calibs,
                  attempted=run.attempted, failed=run.failed, problems=run.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
