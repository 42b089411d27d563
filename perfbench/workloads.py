"""The benchmark's workloads, and the checks on what they output.

A workload is a list of ``vkplate`` command lines, run in process through
``vkplate.cli.main`` one after the other.  What a command writes (its
stdout, its table files, and the one-line summary a solve prints on
stderr) is read back as CSV documents.  Every row of a document belongs
to one solve, and every solve is compared with the outputs stored under
``reference/``, which were written at the commit that defined the
benchmark (see ``make_reference.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("paper", "sweep", "extended")

#: The sweep grid moves by (seed % SWEEP_OFFSETS) / SWEEP_OFFSETS of a step.
SWEEP_STEP = 0.01
SWEEP_OFFSETS = 8
SWEEP_POINTS = 96

#: Where the sweep's argmin falls, measured over all SWEEP_OFFSETS grids.
SWEEP_ARGMIN_BAND = {"sweep-Q5": (-0.62, -0.59), "sweep-a5": (-0.44, -0.27)}

#: Relative tolerance of solution values (q, w0/h, c0, W).
RTOL_VALUE = 1e-9
#: Residuals are checked looser: summing in another order moved the
#: residual of a converging history by up to 4e-4 relative, and that of a
#: diverging sweep point by 9e-5, while q moved by 5e-13.  Below
#: ERR_FLOOR a residual is rounding noise and is compared absolutely.
RTOL_ERR = 3e-3
ERR_FLOOR = 1e-24

#: The a = 30 row of table 7 stalls at N = 100: its residual falls to
#: 3.6e-8 by pass 102 and drifts up to 3.3e-7 by pass 500, moving q by
#: 1.5e-6 relative.  A run that stops anywhere on that plateau is right,
#: so the row is checked no tighter than that drift, and its residual
#: only for not getting worse.
STALLED_ROWS = {("tables", "table7", "a", "30.0")}
RTOL_STALLED = 3e-6

_SUMMARY_FIELDS = ("status", "iterations", "err", "q", "w0_over_h")
_EXACT_COLUMNS = ("iteration", "order", "m", "method", "iterations")


@dataclass(frozen=True)
class Command:
    """One command line; ``{out}`` in argv stands for the output directory."""

    key: str
    argv: tuple
    tol: float = 1e-12


def sweep_offset(seed: int) -> int:
    return seed % SWEEP_OFFSETS


def commands(workload: str, seed: int) -> list:
    """The command lines of a workload; only ``sweep`` depends on the seed."""
    if workload == "paper":
        return [
            Command("tables", ("tables", "--out-dir", "{out}")),
            Command("compare-orders", ("compare-orders", "--Q", "132.2", "--c0", "-0.15",
                                       "--M-set", "1,2,3,4,5")),
            Command("compare-baseline", ("compare-baseline", "--Q", "132.2",
                                         "--theta", "0.1")),
        ]
    if workload == "sweep":
        k = sweep_offset(seed)
        shift = k * SWEEP_STEP / SWEEP_OFFSETS
        grid = ("--sweep-order", "20", "--c0-step", repr(SWEEP_STEP),
                "--c0-min", repr(round(-1.0 + shift, 6)),
                "--c0-max", repr(round(-0.05 + shift, 6)))
        return [Command(f"sweep-Q5-o{k}", ("sweep-c0", "--Q", "5") + grid),
                Command(f"sweep-a5-o{k}", ("sweep-c0", "--a", "5") + grid)]
    if workload == "extended":
        iterate = ("--iterate", "--M", "5", "--N", "100", "--tol", "1e-24",
                   "--precision", "extended")
        return [
            Command("solve-a5", ("solve-a", "--a", "5", "--c0", "-0.5") + iterate, 1e-24),
            Command("solve-a10", ("solve-a", "--a", "10", "--c0", "-0.2") + iterate, 1e-24),
            Command("solve-q5", ("solve-q", "--Q", "5", "--c0", "-0.35", "--order", "30",
                                 "--precision", "extended")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_command(cli, cmd: Command, out_dir: Path):
    """Run one command line through ``cli.main``; return (exit code, stdout, stderr).

    ``cli.main`` is looked up on every call, so a traced run sees its wrapper.
    """
    argv = [a.replace("{out}", str(out_dir)) for a in cmd.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def documents(cmd: Command, stdout: str, stderr: str, out_dir: Path) -> dict:
    """The CSV documents a command produced, by name."""
    if cmd.argv[0] == "tables":
        return {p.stem: p.read_text(encoding="utf-8")
                for p in sorted(out_dir.glob("table*.csv"))}
    docs = {"stdout": stdout}
    if cmd.argv[0] in ("solve-a", "solve-q"):
        lines = [ln for ln in stderr.splitlines() if ln.startswith("status=")]
        if lines:
            fields = dict(re.findall(r"(\w+)=(\S+)", lines[-1]))
            docs["summary"] = (",".join(_SUMMARY_FIELDS) + "\n"
                               + ",".join(fields.get(f, "") for f in _SUMMARY_FIELDS)
                               + "\n")
    return docs


def parse_csv(text: str) -> list:
    """Rows as dicts, without the wall-clock column."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row.pop("wall_ms", None)
    return rows


def strip_wall(text: str) -> str:
    """A CSV document without its wall_ms column, as stored in the reference."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or "wall_ms" not in rows[0]:
        return text
    drop = rows[0].index("wall_ms")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [c for i, c in enumerate(r) if i != drop] for r in rows)
    return out.getvalue()


def solve_key(doc: str, index: int, row: dict) -> str:
    """The solve a row belongs to.

    Pass-order comparisons group by ``m``, baseline comparisons by
    ``method``, a history (it has an ``iteration`` column) is one solve,
    and so is a solve command's summary line; any other row is a solve
    of its own.
    """
    for col in ("m", "method"):
        if col in row:
            return f"{doc}:{col}={row[col]}"
    if "iteration" in row:
        return doc
    if doc == "summary":
        return "stdout"
    return f"{doc}:{index}"


def load_reference(workload: str, cmd: Command) -> dict:
    folder = REFERENCE_DIR / workload / cmd.key
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(folder.glob("*.csv"))}


def reference_keys(reference: dict) -> list:
    keys = []
    for doc, text in reference.items():
        for i, row in enumerate(parse_csv(text)):
            key = solve_key(doc, i, row)
            if key not in keys:
                keys.append(key)
    return keys


def _float(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _cell_problem(col, got, want, tol, stalled):
    """Why one cell fails its check, or None."""
    if col == "status":
        if got == want:
            return None
        if want in ("converged", "diverged") or got == "diverged":
            return f"status {got}, reference {want}"
        return None
    if col in _EXACT_COLUMNS:
        return None if got == want else f"{col} {got} != {want}"
    g, w = _float(got), _float(want)
    if not math.isfinite(g):
        return f"{col} not finite: {got}"
    if col == "err":
        if stalled:
            return None if g <= 1.1 * w else f"err {g:.3e} worse than {w:.3e}"
        if w <= tol and g > tol:
            return f"err {g:.3e} above tol {tol:g}, reference converged"
        rtol, atol = RTOL_ERR, ERR_FLOOR
    else:
        rtol, atol = (RTOL_STALLED if stalled else RTOL_VALUE), 0.0
    if abs(g - w) > rtol * abs(w) + atol:
        return f"{col} {got} vs reference {want} (rtol {rtol:g})"
    return None


def check_command(cmd: Command, docs: dict, reference: dict) -> dict:
    """Check a command's documents against its reference; solve key -> problem or None."""
    verdict = {key: None for key in reference_keys(reference)}

    def fail(key, why):
        if verdict.get(key) is None:
            verdict[key] = why

    for doc, ref_text in reference.items():
        want_rows = parse_csv(ref_text)
        got_rows = parse_csv(docs[doc]) if doc in docs else None
        want_by, got_by = {}, {}
        for i, row in enumerate(want_rows):
            want_by.setdefault(solve_key(doc, i, row), []).append(row)
        for i, row in enumerate(got_rows or []):
            got_by.setdefault(solve_key(doc, i, row), []).append(row)
        for key, wants in want_by.items():
            gots = got_by.get(key)
            if got_rows is None:
                fail(key, f"{doc} missing")
                continue
            if gots is None or len(gots) != len(wants):
                fail(key, f"{doc}: {0 if gots is None else len(gots)} rows, "
                          f"reference {len(wants)}")
                continue
            if list(gots[0]) != list(wants[0]):
                fail(key, f"{doc}: columns {list(gots[0])}, reference {list(wants[0])}")
                continue
            for got, want in zip(gots, wants):
                stalled = any((cmd.key, doc, col, want.get(col)) in STALLED_ROWS
                              for col in want)
                for col in want:
                    why = _cell_problem(col, got[col], want[col], cmd.tol, stalled)
                    if why:
                        fail(key, f"{doc}: {why}")
        for key in got_by.keys() - want_by.keys():  # charged to the document's first solve
            fail(next(iter(want_by), key), f"{doc}: unexpected solve {key}")
    if cmd.argv[0] == "sweep-c0":
        _check_sweep_invariants(cmd, docs.get("stdout", ""), fail)
    return verdict


def _check_sweep_invariants(cmd, text, fail):
    """Seed-independent checks: full grid, finite residuals, argmin in its band."""
    rows = parse_csv(text)
    if len(rows) != SWEEP_POINTS:
        fail("stdout:0", f"{len(rows)} grid points, expected {SWEEP_POINTS}")
        return
    errs = [_float(r["err"]) for r in rows]
    for i, e in enumerate(errs):
        if not math.isfinite(e):
            fail(f"stdout:{i}", f"err not finite at c0={rows[i]['c0']}")
    best = min(range(len(errs)), key=lambda i: errs[i] if math.isfinite(errs[i]) else math.inf)
    lo, hi = SWEEP_ARGMIN_BAND[cmd.key.rsplit("-o", 1)[0]]
    c0 = _float(rows[best]["c0"])
    if not lo <= c0 <= hi:
        fail(f"stdout:{best}", f"argmin c0={c0} outside [{lo}, {hi}]")
