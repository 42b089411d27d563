"""Benchmark of the vkplate solver: one run of one workload.

    python3 perfbench/run.py --workload paper|sweep|extended --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it uses the package under ``src/``
directly, without installing it.

Workloads (each a list of ``vkplate`` commands, see ``workloads.py``):

* ``paper``: all seven tables, the pass-order study and the baseline
  comparison; 35 double-precision solves, mostly truncated passes.
* ``sweep``: two 96-point control sweeps at series order 20; the seed
  shifts the grid by a fraction of its step.
* ``extended``: three double-double solves.

A run is a single-process closed loop with one caller, in a fresh
interpreter (``worker.py``) with BLAS and OpenMP capped at one thread,
pinned before each timed step to the CPU that is fastest at that moment
(``host.py``).
Every solve is checked against ``reference/``.  With ``--trace 0`` the
result holds the end-to-end metrics:

* ``wall_s``: median over the run's iterations of the wall seconds of
  one iteration of the workload;
* ``setup_s``: median over several fresh interpreters of the seconds
  from start until ``import vkplate`` and the CLI parser are done;
* ``peak_rss_mb``: peak resident memory of the process that ran it.

Both times are normalized to a quiet CPU by the calibrations taken
around and during each timed step (``host.py``); the measured times are
printed next to them.  Each timing is printed with its median, the
highest percentile with ten samples beyond it, and the sample count.

With ``--trace 1`` it holds the per-layer metrics of ``layers.py``.
Human-readable lines come first, then one ``{"detail": ...}`` line with
the samples and the environment, and last the result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 9
PROBE = "import vkplate, vkplate.cli; vkplate.cli.build_parser(); print(vkplate.__file__)"
#: A run may take this much longer than --seconds before it is stopped.
GRACE_S = 90


class BenchError(RuntimeError):
    pass


def probe_setup(env, src: Path) -> float:
    """Seconds from starting a fresh interpreter until vkplate and its CLI are ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"cannot import vkplate from {src}:\n{err}")
    if not Path(line.strip()).resolve().is_relative_to(src):
        raise BenchError(f"imported vkplate from {line.strip()}, not from {src}")
    return ready


def _timing(samples):
    """Median, the highest percentile with ten samples beyond it, and the count."""
    n = len(samples)
    tail = (f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4f} s" if n > 10
            else "no percentile with ten samples beyond it")
    return f"median {statistics.median(samples):.4f} s, {tail}, {n} samples"


def main(argv=None):
    parser = argparse.ArgumentParser(description="vkplate benchmark, one run")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "vkplate" / "__init__.py").is_file():
        print(f"perfbench: no vkplate sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update((name, "1") for name in THREAD_CAPS)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    try:
        probe_setup(env, src)  # first start compiles the bytecode; not timed
        setup, setup_norm = [], []
        for _ in range(SETUP_PROBES):  # each probe inherits the pinning
            _, seconds, norm, _ = host.timed(lambda: probe_setup(env, src), cpus,
                                             sample=False)
            setup.append(seconds)
            setup_norm.append(norm)
        os.sched_setaffinity(0, cpus)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(work)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=args.seconds + GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run did not end within {args.seconds + GRACE_S} s")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    walls, norms = res["walls"], res["norms"]
    failed_ratio = res["failed"] / res["attempted"]
    calibs = res["calibs"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": res["python"], "numpy": res["numpy"], "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_allowed": sorted(cpus),
        "thread_caps": {name: env[name] for name in THREAD_CAPS},
        "loadavg": os.getloadavg(),
        "host.calib_s": statistics.median(calibs),
        "calib_s_summary": {"count": len(calibs), "min": min(calibs), "max": max(calibs)},
        "wall_s_samples": norms,
        "wall_s_measured_samples": walls,
        "command_wall_s_measured_samples": res["command_walls"],
        "setup_s_samples": setup_norm,
        "setup_s_measured_samples": setup,
        "failed_ratio": failed_ratio,
        "problems": res["problems"],
    }
    correct = res["failed"] == 0
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: {len(walls)} untraced "
             f"iterations, {res['attempted']} solves checked, {res['failed']} failed, "
             f"calibration median {statistics.median(calibs) * 1e3:.3f} ms "
             f"(quiet {host.QUIET_CALIB_S * 1e3:.3f} ms)"]
    if args.trace:
        units = dict(layers.PER_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["per_layer"].items()}
        detail.update({"traced_wall_s_samples": res["traced_norms"],
                       "traced_wall_s_measured_samples": res["traced_walls"],
                       "trace.overhead_ratio": res["per_layer"]["trace.overhead_ratio"],
                       "self_test": res["self_test"] or "passed"})
        correct = correct and not res["self_test"]
        lines += [f"  {name:34s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines += [f"  self-test problem: {p}" for p in res["self_test"]]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(norms), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        lines += [
            "  (times normalized to a quiet CPU; measured times in brackets)",
            f"  wall_s       {_timing(norms)} [{_timing(walls)}]",
            f"  setup_s      {_timing(setup_norm)} [{_timing(setup)}]",
            f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MB",
            f"  failed_ratio {failed_ratio:.6g} ratio ({res['failed']} of {res['attempted']})",
        ]
    lines += [f"  problem: {p}" for p in res["problems"]]
    print("\n".join(lines))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
