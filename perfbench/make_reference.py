"""Write the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs every command of every workload once (the sweep at each of its
grid offsets) and stores each CSV document, without wall-clock columns,
as ``reference/<workload>/<command>/<document>.csv``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from vkplate import cli  # noqa: E402


def main():
    shutil.rmtree(workloads.REFERENCE_DIR, ignore_errors=True)
    for workload in workloads.WORKLOADS:
        seeds = range(workloads.SWEEP_OFFSETS) if workload == "sweep" else (0,)
        for seed in seeds:
            for cmd in workloads.commands(workload, seed):
                with tempfile.TemporaryDirectory() as tmp:
                    code, out, err = workloads.run_command(cli, cmd, Path(tmp))
                    if code != 0:
                        raise SystemExit(f"{cmd.argv} exited {code}: {err}")
                    docs = workloads.documents(cmd, out, err, Path(tmp))
                folder = workloads.REFERENCE_DIR / workload / cmd.key
                folder.mkdir(parents=True)
                for name, text in docs.items():
                    (folder / f"{name}.csv").write_text(workloads.strip_wall(text),
                                                        encoding="utf-8")
                print(f"wrote {folder}", file=sys.stderr)


if __name__ == "__main__":
    main()
