"""Command-line front end: solves, control sweeps, comparisons, tables.

Exit codes: 0 for a run that converged (or stopped at its pass budget),
2 for a diverged run, 1 for usage errors and unwritable outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import DEFAULT_GRID, IterateMode, SeriesMode
from .diagnostics import compare_orders, solve_problem, sweep_c0
from .given_deflection import GivenDeflectionProblem
from .given_deflection import empirical_c0 as empirical_c0_a
from .given_deflection import solve as solve_deflection
from .given_load import GivenLoadProblem
from .given_load import empirical_c0 as empirical_c0_q
from .given_load import solve as solve_load
from .interpolation import solve as solve_baseline
from .kernels import BOUNDARY_KINDS, BoundarySpec
from .physics import deflection_curve
from .report import curve_csv, emit_report, fmt_float

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2

_STATUS_EXIT = {"converged": EXIT_OK, "max_iter": EXIT_OK, "diverged": EXIT_DIVERGED}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub, *, order_default=10):
    sub.add_argument("--c0", default="auto",
                     help="control value for both updates, or 'auto' for the "
                          "fitted formula matching the mode (default: auto)")
    sub.add_argument("--c1", type=float, default=None,
                     help="override the slope-update control value")
    sub.add_argument("--c2", type=float, default=None,
                     help="override the membrane-update control value")
    sub.add_argument("--order", type=int, default=order_default,
                     help=f"series order for the plain mode (default: {order_default})")
    sub.add_argument("--iterate", action="store_true",
                     help="repeat truncated low-order passes instead of one long series")
    sub.add_argument("--M", type=int, default=5, dest="M",
                     help="terms per pass in iterate mode (default: 5)")
    sub.add_argument("--N", type=int, default=100, dest="N",
                     help="degree cap per pass in iterate mode (default: 100)")
    sub.add_argument("--tol", type=float, default=1e-12,
                     help="residual tolerance (default: 1e-12)")
    sub.add_argument("--max-iter", type=int, default=500,
                     help="pass budget in iterate mode (default: 500)")
    sub.add_argument("--boundary", choices=BOUNDARY_KINDS, default="clamped",
                     help="edge support kind (default: clamped)")
    sub.add_argument("--nu", type=float, default=0.3,
                     help="Poisson ratio (default: 0.3)")
    sub.add_argument("--grid-K", type=int, default=DEFAULT_GRID, dest="grid_k",
                     help="residual grid: K+1 uniform points (default: 100)")
    sub.add_argument("--precision", choices=("double", "extended"), default="double",
                     help="coefficient arithmetic (default: double)")
    sub.add_argument("--out", type=Path, default=None,
                     help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     dest="fmt", help="report format (default: csv)")
    sub.add_argument("--deterministic", action="store_true",
                     help="zero out wall-clock fields for byte-stable output")
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file with the same keys; flags override it")


def build_parser():
    parser = _Parser(prog="vkplate",
                     description="Large-deflection circular-plate solver "
                                 "(homotopy series and iteration).")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    registry = {}

    def register(name, help_text, handler, **kw):
        sub = subs.add_parser(name, help=help_text, **kw)
        sub.set_defaults(handler=handler)
        registry[name] = sub
        return sub

    sq = register("solve-q", "solve for a prescribed load number Q", cmd_solve_q)
    sq.add_argument("--Q", type=float, default=None, dest="Q",
                    help="dimensionless load number (required)")
    _add_common(sq)

    sa = register("solve-a", "solve for a prescribed center deflection a", cmd_solve_a)
    sa.add_argument("--a", type=float, default=None, dest="a",
                    help="prescribed center deflection in thickness units (required)")
    _add_common(sa)

    sw = register("sweep-c0", "map the residual over a control-value grid", cmd_sweep)
    sw.add_argument("--Q", type=float, default=None, dest="Q")
    sw.add_argument("--a", type=float, default=None, dest="a")
    sw.add_argument("--c0-min", type=float, default=-1.0,
                    help="left end of the control grid (default: -1.0)")
    sw.add_argument("--c0-max", type=float, default=-0.05,
                    help="right end of the control grid (default: -0.05)")
    sw.add_argument("--c0-step", type=float, default=0.05,
                    help="grid spacing (default: 0.05)")
    sw.add_argument("--sweep-order", type=int, default=10,
                    help="series order per grid point (default: 10)")
    _add_common(sw)

    co = register("compare-orders", "pass-order study at a fixed control value",
                  cmd_compare_orders)
    co.add_argument("--Q", type=float, default=None, dest="Q")
    co.add_argument("--a", type=float, default=None, dest="a")
    co.add_argument("--M-set", default="1,2,3,4,5", dest="m_set",
                    help="comma-separated pass orders (default: 1,2,3,4,5)")
    _add_common(co)

    cb = register("compare-baseline", "interpolation baseline vs the iterated solver",
                  cmd_compare_baseline)
    cb.add_argument("--Q", type=float, default=None, dest="Q",
                    help="load number shared by both methods (required)")
    cb.add_argument("--theta", type=float, default=0.1,
                    help="baseline interpolation parameter (default: 0.1)")
    _add_common(cb)

    cv = register("curve", "deflection profile of a converged solution", cmd_curve)
    cv.add_argument("--Q", type=float, default=None, dest="Q")
    cv.add_argument("--a", type=float, default=None, dest="a")
    cv.add_argument("--samples", type=int, default=101,
                    help="points along the radius (default: 101)")
    _add_common(cv)

    tb = register("tables", "reproduce the seven benchmark tables", cmd_tables)
    tb.add_argument("--out-dir", type=Path, default=Path("tables"),
                    help="directory for table1.csv .. table7.csv (default: tables)")
    tb.add_argument("--tol", type=float, default=1e-12)
    tb.add_argument("--max-iter", type=int, default=500)
    tb.add_argument("--config", type=Path, default=None)

    return parser, registry


def _merge_config(sub, args, parser, argv):
    """Fold a JSON config file in as subparser defaults, then re-parse."""
    path = args.config
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        sub.error(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        sub.error(f"config file {path} must hold a JSON object")
    dests = {a.dest for a in sub._actions}
    defaults = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in dests:
            sub.error(f"unknown config key {key!r}")
        defaults[dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _resolve_controls(sub, args, value, empirical):
    """Turn --c0/--c1/--c2 into the (c1, c2) pair for a problem."""
    c0 = args.c0
    if isinstance(c0, str):
        if c0.strip().lower() == "auto":
            c0 = None
        else:
            try:
                c0 = float(c0)
            except ValueError:
                sub.error(f"--c0 must be a number or 'auto', got {args.c0!r}")
    if c0 is None:
        c0 = empirical(value, iterated=args.iterate)
    c1 = c0 if args.c1 is None else args.c1
    c2 = c0 if args.c2 is None else args.c2
    return c1, c2


def _mode(args):
    if args.iterate:
        return IterateMode(order=args.M, truncation=args.N,
                           tol=args.tol, max_iter=args.max_iter)
    return SeriesMode(order=args.order, tol=args.tol)


def _boundary(sub, args):
    try:
        return BoundarySpec(args.boundary, args.nu)
    except ValueError as exc:
        sub.error(str(exc))


def _write_text(sub, path, text):
    """Write text to path, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"vkplate: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_run(sub, args, report):
    """Report file or stdout payload, then a one-line summary."""
    if args.out is not None:
        try:
            emit_report(report, fmt=args.fmt, path=args.out,
                        deterministic=args.deterministic)
        except OSError as exc:
            print(f"vkplate: cannot write {args.out}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    else:
        sys.stdout.write(emit_report(report, fmt=args.fmt,
                                     deterministic=args.deterministic))
    print(f"status={report.status} iterations={report.iterations} "
          f"err={report.err:.6e} q={fmt_float(report.q)} "
          f"w0_over_h={fmt_float(report.w0_over_h)}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def _build_load_problem(sub, args):
    if args.Q is None:
        sub.error("--Q is required")
    c1, c2 = _resolve_controls(sub, args, args.Q, empirical_c0_q)
    try:
        return GivenLoadProblem(load=float(args.Q), c1=c1, c2=c2, mode=_mode(args),
                                boundary=_boundary(sub, args),
                                grid_size=args.grid_k, precision=args.precision)
    except ValueError as exc:
        sub.error(str(exc))


def _build_deflection_problem(sub, args):
    if args.a is None:
        sub.error("--a is required")
    c1, c2 = _resolve_controls(sub, args, args.a, empirical_c0_a)
    try:
        return GivenDeflectionProblem(deflection=float(args.a), c1=c1, c2=c2,
                                      mode=_mode(args),
                                      boundary=_boundary(sub, args),
                                      grid_size=args.grid_k,
                                      precision=args.precision)
    except ValueError as exc:
        sub.error(str(exc))


def cmd_solve_q(sub, args):
    return _emit_run(sub, args, solve_load(_build_load_problem(sub, args)))


def cmd_solve_a(sub, args):
    return _emit_run(sub, args, solve_deflection(_build_deflection_problem(sub, args)))


def _one_of_q_a(sub, args):
    if (args.Q is None) == (args.a is None):
        sub.error("exactly one of --Q / --a is required")
    if args.Q is not None:
        return _build_load_problem(sub, args)
    return _build_deflection_problem(sub, args)


def cmd_sweep(sub, args):
    if args.c0_step <= 0:
        sub.error("--c0-step must be positive")
    grid = []
    c = args.c0_min
    while c <= args.c0_max + 1e-12:
        grid.append(round(c, 10))
        c += args.c0_step
    if not grid:
        sub.error("empty control grid")
    # placeholder controls; the sweep substitutes each grid value
    args.c0 = str(grid[0])
    problem = _one_of_q_a(sub, args)
    try:
        result = sweep_c0(problem, grid, order=args.sweep_order)
    except ValueError as exc:
        sub.error(str(exc))
    lines = ["c0,err,status"]
    lines += [f"{fmt_float(p.c0)},{fmt_float(p.err)},{p.status}"
              for p in result.points]
    text = "\n".join(lines) + "\n"
    _write_text(sub, args.out, text)
    if result.best is None:
        print("argmin: none (all points diverged)", file=sys.stderr)
    else:
        print(f"argmin: c0={fmt_float(result.best.c0)} "
              f"err={result.best.err:.6e}", file=sys.stderr)
    return EXIT_OK


def cmd_compare_orders(sub, args):
    try:
        m_values = [int(tok) for tok in args.m_set.split(",") if tok.strip()]
    except ValueError:
        sub.error(f"--M-set must be comma-separated integers, got {args.m_set!r}")
    args.iterate = True
    problem = _one_of_q_a(sub, args)
    try:
        comparison = compare_orders(problem, m_values)
    except ValueError as exc:
        sub.error(str(exc))
    lines = ["m,iteration,err,wall_ms"]
    for m, iteration, err, wall in comparison.rows():
        wall = 0.0 if args.deterministic else wall
        lines.append(f"{m},{iteration},{fmt_float(err)},{fmt_float(wall)}")
    text = "\n".join(lines) + "\n"
    _write_text(sub, args.out, text)
    reached = comparison.iterations_to(args.tol)
    summary = " ".join(f"M={m}:{reached[m]}" for m in sorted(reached))
    print(f"iterations to err<={args.tol:g}: {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_compare_baseline(sub, args):
    if args.Q is None:
        sub.error("--Q is required")
    if not 0.0 < args.theta <= 1.0:
        sub.error("--theta must lie in (0, 1]")
    args.iterate = True
    problem = _build_load_problem(sub, args)
    baseline = solve_baseline(args.Q, args.theta, boundary=problem.boundary,
                              truncation=args.N, tol=args.tol,
                              max_iter=args.max_iter, grid_size=args.grid_k)
    ham = solve_load(problem)
    lines = ["method,iteration,err,q,w0_over_h,wall_ms"]
    for name, rep in (("baseline", baseline), ("ham", ham)):
        for rec in rep.history:
            wall = 0.0 if args.deterministic else rec.wall_ms
            lines.append(f"{name},{rec.iteration},{fmt_float(rec.err)},"
                         f"{fmt_float(rec.q)},{fmt_float(rec.w0_over_h)},"
                         f"{fmt_float(wall)}")
    text = "\n".join(lines) + "\n"
    _write_text(sub, args.out, text)
    print(f"baseline: status={baseline.status} iterations={baseline.iterations} "
          f"err={baseline.err:.6e}", file=sys.stderr)
    print(f"ham:      status={ham.status} iterations={ham.iterations} "
          f"err={ham.err:.6e}", file=sys.stderr)
    if baseline.status == "diverged" or ham.status == "diverged":
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_curve(sub, args):
    if args.samples < 2:
        sub.error("--samples must be >= 2")
    problem = _one_of_q_a(sub, args)
    report = solve_problem(problem)
    rows = deflection_curve(report.phi, problem.boundary.nu, samples=args.samples)
    text = curve_csv(rows)
    _write_text(sub, args.out, text)
    print(f"status={report.status} err={report.err:.6e} "
          f"w0_over_h={fmt_float(report.w0_over_h)}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def _table_rows_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def cmd_tables(sub, args):
    out_dir = args.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"vkplate: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tol, max_iter = args.tol, args.max_iter

    def series(order):
        return SeriesMode(order=order, tol=tol)

    def iterate():
        return IterateMode(order=5, truncation=100, tol=tol, max_iter=max_iter)

    tables = {}

    # residual decay of the plain series at Q = 5, fixed control value
    rows = []
    for order in (10, 20, 30, 40, 50):
        rep = solve_load(GivenLoadProblem.with_c0(5.0, -0.35, series(order)))
        rows.append((order, rep.err, rep.w0_over_h))
    tables["table1.csv"] = _table_rows_csv(("order", "err", "w0_over_h"), rows)

    # center deflection across small loads, fitted control values
    rows = []
    for q in (1.0, 2.0, 3.0, 4.0, 5.0):
        c0 = empirical_c0_q(q)
        rep = solve_load(GivenLoadProblem.with_c0(q, c0, series(50)))
        rows.append((q, c0, rep.err, rep.w0_over_h))
    tables["table2.csv"] = _table_rows_csv(("q", "c0", "err", "w0_over_h"), rows)

    # iteration history at the large load Q = 1000
    rep = solve_load(GivenLoadProblem.with_c0(1000.0, -0.02, iterate()))
    rows = [(rec.iteration, rec.err, rec.w0_over_h) for rec in rep.history]
    tables["table3.csv"] = _table_rows_csv(("iteration", "err", "w0_over_h"), rows)

    # center deflection across large loads, fitted control values
    rows = []
    for q in (200.0, 400.0, 600.0, 800.0, 1000.0):
        c0 = empirical_c0_q(q, iterated=True)
        rep = solve_load(GivenLoadProblem.with_c0(q, c0, iterate()))
        rows.append((q, c0, rep.err, rep.w0_over_h))
    tables["table4.csv"] = _table_rows_csv(("q", "c0", "err", "w0_over_h"), rows)

    # iteration history for the prescribed deflection a = 5
    rep = solve_deflection(GivenDeflectionProblem.with_c0(5.0, -0.5, iterate()))
    rows = [(rec.iteration, rec.err, rec.q) for rec in rep.history]
    tables["table5.csv"] = _table_rows_csv(("iteration", "err", "q"), rows)

    # load recovered from small prescribed deflections, plain series
    rows = []
    for a in (1.0, 2.0, 3.0, 4.0, 5.0):
        c0 = empirical_c0_a(a)
        rep = solve_deflection(GivenDeflectionProblem.with_c0(a, c0, series(50)))
        rows.append((a, c0, rep.err, rep.q))
    tables["table6.csv"] = _table_rows_csv(("a", "c0", "err", "q"), rows)

    # load recovered from large prescribed deflections, iterated
    rows = []
    for a in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        c0 = empirical_c0_a(a, iterated=True)
        rep = solve_deflection(GivenDeflectionProblem.with_c0(a, c0, iterate()))
        rows.append((a, c0, rep.err, rep.q, rep.w0_over_h))
    tables["table7.csv"] = _table_rows_csv(("a", "c0", "err", "q", "w0_over_h"),
                                           rows)

    for name, text in tables.items():
        _write_text(sub, out_dir / name, text)
        print(f"wrote {out_dir / name}", file=sys.stderr)
    return EXIT_OK


def main(argv=None):
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    sub = registry[args.command]
    if getattr(args, "config", None) is not None:
        args = _merge_config(sub, args, parser, argv)
    try:
        return args.handler(sub, args)
    except SystemExit:
        raise
    except RuntimeError as exc:
        print(f"vkplate: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
