"""Command-line front end: solves, control sweeps, comparisons, tables.

Exit codes: 0 for a run that converged (or spent its pass budget while
still improving), 3 for a stalled run, 2 for a diverged run, 1 for usage
errors and unwritable outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

from .config import PRECISIONS, IterateMode, SeriesMode
from .diagnostics import compare_orders, solve_problem, sweep_c0
from .given_deflection import GivenDeflectionProblem
from .given_deflection import empirical_c0 as empirical_c0_a
from .given_load import GivenLoadProblem
from .given_load import empirical_c0 as empirical_c0_q
from .interpolation import solve as solve_baseline
from .kernels import BOUNDARY_KINDS, BoundarySpec
from .physics import deflection_curve
from .report import csv_text, curve_csv, emit_report, fmt_float

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_STALLED = 3

_STATUS_EXIT = {"converged": EXIT_OK, "max_iter": EXIT_OK, "diverged": EXIT_DIVERGED,
                "stalled": EXIT_STALLED}

#: The most points a control grid or a deflection curve may have.
MAX_POINTS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1; ``-1e3`` is a value."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        # argparse's own pattern misses exponents; no option is spelled like a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub, omit=()):
    """Register the shared flags, except those named in omit (unread there)."""
    def add(flag, **kw):
        if flag not in omit:
            sub.add_argument(flag, **kw)

    add("--c0", default="auto",
        help="control value for both updates, or 'auto' for the "
             "fitted formula matching the mode (default: auto)")
    add("--c1", type=float, default=None,
        help="override the slope-update control value")
    add("--c2", type=float, default=None,
        help="override the membrane-update control value")
    add("--order", type=int, default=10,
        help="series order for the plain mode (default: 10)")
    add("--iterate", action="store_true",
        help="repeat truncated low-order passes instead of one long series")
    add("--M", type=int, default=IterateMode.order, dest="M",
        help="terms per pass in iterate mode (default: %(default)s)")
    add("--N", type=int, default=IterateMode.truncation, dest="N",
        help="degree cap per pass in iterate mode (default: %(default)s)")
    add("--tol", type=float, default=IterateMode.tol,
        help="residual tolerance (default: %(default)s)")
    add("--max-iter", type=int, default=IterateMode.max_iter,
        help="pass budget in iterate mode (default: %(default)s)")
    add("--boundary", choices=BOUNDARY_KINDS, default="clamped",
        help="edge support kind (default: clamped)")
    add("--nu", type=float, default=0.3,
        help="Poisson ratio (default: 0.3)")
    add("--precision", choices=PRECISIONS, default="double",
        help="coefficient arithmetic (default: double)")
    add("--out", type=Path, default=None,
        help="write the report here instead of stdout")
    add("--format", choices=("csv", "json"), default="csv",
        dest="fmt", help="report format (default: csv)")
    add("--deterministic", action="store_true",
        help="zero out wall-clock fields for byte-stable output")
    add("--config", type=Path, default=None,
        help="JSON file with the same keys; flags override it")


def build_parser():
    parser = _Parser(prog="vkplate",
                     description="Large-deflection circular-plate solver "
                                 "(homotopy series and iteration).")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    registry = {}

    def register(name, help_text, handler, **kw):
        # flags only in full: an abbreviation could pick another flag
        # (compare-orders would read --M as --M-set)
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False, **kw)
        sub.set_defaults(handler=handler)
        registry[name] = sub
        return sub

    sq = register("solve-q", "solve for a prescribed load number Q", cmd_solve)
    sq.set_defaults(target="Q")
    sq.add_argument("--Q", type=float, default=None, dest="Q",
                    help="dimensionless load number (required)")
    _add_common(sq)

    sa = register("solve-a", "solve for a prescribed center deflection a", cmd_solve)
    sa.set_defaults(target="a")
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
    _add_common(sw, omit=("--c0", "--c1", "--c2", "--order", "--iterate", "--M",
                          "--N", "--tol", "--max-iter", "--format",
                          "--deterministic"))

    co = register("compare-orders", "pass-order study at a fixed control value",
                  cmd_compare_orders)
    co.add_argument("--Q", type=float, default=None, dest="Q")
    co.add_argument("--a", type=float, default=None, dest="a")
    co.add_argument("--M-set", default="1,2,3,4,5", dest="m_set",
                    help="comma-separated pass orders (default: 1,2,3,4,5)")
    _add_common(co, omit=("--order", "--iterate", "--M", "--format"))

    cb = register("compare-baseline", "interpolation baseline vs the iterated solver",
                  cmd_compare_baseline)
    cb.add_argument("--Q", type=float, default=None, dest="Q",
                    help="load number shared by both methods (required)")
    cb.add_argument("--theta", type=float, default=0.1,
                    help="baseline interpolation parameter (default: 0.1)")
    _add_common(cb, omit=("--order", "--iterate", "--format"))

    cv = register("curve", "deflection profile of a converged solution", cmd_curve)
    cv.add_argument("--Q", type=float, default=None, dest="Q")
    cv.add_argument("--a", type=float, default=None, dest="a")
    cv.add_argument("--samples", type=int, default=101,
                    help="points along the radius (default: 101)")
    _add_common(cv, omit=("--format", "--deterministic"))

    tb = register("tables", "reproduce the seven benchmark tables", cmd_tables)
    tb.add_argument("--out-dir", type=Path, default=Path("tables"),
                    help="directory for table1.csv .. table7.csv (default: tables)")
    tb.add_argument("--tol", type=float, default=IterateMode.tol)
    tb.add_argument("--max-iter", type=int, default=IterateMode.max_iter)
    tb.add_argument("--config", type=Path, default=None)

    return parser, registry


@functools.cache
def _cli():
    """The parser and its registry, built once and never changed (a parser is
    reference-cycle garbage that only a full collection frees)."""
    return build_parser()


def _merge_config(sub, args, argv):
    """Parse again with the config file's entries as leading ``--flag=value``
    tokens, so each value meets its flag's checks and explicit flags win.

    Keys are the flags' destinations; a switch takes true or false, and
    null keeps the default.
    """
    path = args.config
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        sub.error(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        sub.error(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    tokens = []
    for key, value in raw.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"unknown config key {key!r}")
        if value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            sub.error(f"config key {key!r} must be true, false or null")
        elif value:
            tokens.append(flag)
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    return _cli()[0].parse_args(argv[:at] + tokens + argv[at:])


def _checked(sub, make, *args, **kw):
    """Call make(*args, **kw); a ValueError it raises is a usage error."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        sub.error(str(exc))


def _resolve_controls(sub, args, value, empirical, mode):
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
        c0 = empirical(value, iterated=isinstance(mode, IterateMode))
        if c0 == 0.0 and math.isfinite(value) and None in (args.c1, args.c2):
            sub.error(f"the fitted control value underflows to 0 at {value:g}; give --c0")
    c1 = c0 if args.c1 is None else args.c1
    c2 = c0 if args.c2 is None else args.c2
    return c1, c2


def _iterate_mode(sub, args, order=IterateMode.order):
    return _checked(sub, IterateMode, order=order, truncation=args.N,
                    tol=args.tol, max_iter=args.max_iter)


def _mode(sub, args):
    if args.iterate:
        return _iterate_mode(sub, args, args.M)
    return _checked(sub, SeriesMode, order=args.order, tol=args.tol)


def _write_text(path, text):
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
    _write_text(args.out, emit_report(report, fmt=args.fmt,
                                      deterministic=args.deterministic))
    print(f"status={report.status} iterations={report.iterations} "
          f"err={report.err:.6e} q={fmt_float(report.q)} "
          f"w0_over_h={fmt_float(report.w0_over_h)}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


#: Per target flag: the problem class, its target field and the fitted control value.
_PROBLEMS = {"Q": (GivenLoadProblem, "load", empirical_c0_q),
             "a": (GivenDeflectionProblem, "deflection", empirical_c0_a)}


def _build_problem(sub, args, mode, target, controls=None):
    """Problem of the --Q (load) or --a (deflection) target; controls
    (c1, c2) default to --c0/--c1/--c2."""
    value = getattr(args, target)
    if value is None:
        sub.error(f"--{target} is required")
    cls, field, empirical = _PROBLEMS[target]
    c1, c2 = controls or _resolve_controls(sub, args, value, empirical, mode)
    boundary = _checked(sub, BoundarySpec, args.boundary, args.nu)
    return _checked(sub, cls, **{field: float(value)}, c1=c1, c2=c2, mode=mode,
                    boundary=boundary, precision=args.precision)


def cmd_solve(sub, args):
    problem = _build_problem(sub, args, _mode(sub, args), args.target)
    return _emit_run(sub, args, solve_problem(problem))


def _one_of_q_a(sub, args, mode, controls=None):
    if (args.Q is None) == (args.a is None):
        sub.error("exactly one of --Q / --a is required")
    return _build_problem(sub, args, mode, "a" if args.Q is None else "Q", controls)


def cmd_sweep(sub, args):
    lo, hi, step = args.c0_min, args.c0_max, args.c0_step
    for flag, c in (("--c0-min", lo), ("--c0-max", hi)):
        if not -2.0 < c < 0.0:
            sub.error(f"{flag} must lie in (-2, 0), got {c}")
    if not step > 0:
        sub.error("--c0-step must be positive")
    span = (hi - lo + 1e-12) / step
    if span >= MAX_POINTS:
        sub.error(f"control grid has more than {MAX_POINTS} points")
    grid = [round(lo + i * step, 10) for i in range(math.floor(span) + 1)]
    if not grid:
        sub.error("empty control grid")
    mode = _checked(sub, SeriesMode, order=args.sweep_order)
    problem = _one_of_q_a(sub, args, mode, controls=(grid[0], grid[0]))
    result = _checked(sub, sweep_c0, problem, grid)
    _write_text(args.out, csv_text(("c0", "err", "status"),
                                   ((p.c0, p.err, p.status) for p in result.points)))
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
    # each pass order in m_values replaces the mode's default order
    problem = _one_of_q_a(sub, args, _iterate_mode(sub, args))
    runs = _checked(sub, compare_orders, problem, m_values)
    rows = ((m, rec.iteration, rec.err, 0.0 if args.deterministic else rec.wall_ms)
            for m in sorted(runs) for rec in runs[m].history)
    _write_text(args.out, csv_text(("m", "iteration", "err", "wall_ms"), rows))
    summary = " ".join(f"M={m}:{runs[m].iterations_to(args.tol)}" for m in sorted(runs))
    print(f"iterations to err<={args.tol:g}: {summary}", file=sys.stderr)
    return EXIT_OK


def cmd_compare_baseline(sub, args):
    problem = _build_problem(sub, args, _iterate_mode(sub, args, args.M), "Q")
    baseline = _checked(sub, solve_baseline, args.Q, args.theta, _iterate_mode(sub, args, 1),
                        boundary=problem.boundary)
    ham = solve_problem(problem)
    rows = ((name, rec.iteration, rec.err, rec.q, rec.w0_over_h,
             0.0 if args.deterministic else rec.wall_ms)
            for name, rep in (("baseline", baseline), ("ham", ham))
            for rec in rep.history)
    _write_text(args.out, csv_text(("method", "iteration", "err", "q", "w0_over_h",
                                    "wall_ms"), rows))
    print(f"baseline: status={baseline.status} iterations={baseline.iterations} "
          f"err={baseline.err:.6e}", file=sys.stderr)
    print(f"ham:      status={ham.status} iterations={ham.iterations} "
          f"err={ham.err:.6e}", file=sys.stderr)
    statuses = (baseline.status, ham.status)
    if "diverged" in statuses:
        return EXIT_DIVERGED
    return EXIT_STALLED if "stalled" in statuses else EXIT_OK


def cmd_curve(sub, args):
    if not 2 <= args.samples <= MAX_POINTS:
        sub.error(f"--samples must lie in [2, {MAX_POINTS}]")
    problem = _one_of_q_a(sub, args, _mode(sub, args))
    report = solve_problem(problem)
    rows = deflection_curve(report.phi, problem.boundary.nu, samples=args.samples)
    _write_text(args.out, curve_csv(rows))
    print(f"status={report.status} err={report.err:.6e} "
          f"w0_over_h={fmt_float(report.w0_over_h)}", file=sys.stderr)
    return _STATUS_EXIT[report.status]


def _fitted_rows(target, values, mode, *columns):
    """Per target value: (value, fitted c0, *report columns) of its solve."""
    cls, _, empirical = _PROBLEMS[target]
    rows = []
    for value in values:
        c0 = empirical(value, iterated=isinstance(mode, IterateMode))
        rep = solve_problem(cls.with_c0(value, c0, mode))
        rows.append((value, c0, *(getattr(rep, c) for c in columns)))
    return rows


def cmd_tables(sub, args):
    series = _checked(sub, SeriesMode, order=50, tol=args.tol)
    endpoint = SeriesMode(50, args.tol, every_order=False)  # for tables that read only the end
    iterate = _checked(sub, IterateMode, tol=args.tol, max_iter=args.max_iter)
    out_dir = args.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"vkplate: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    tables = {}

    # residual decay of the plain series at Q = 5, fixed control value,
    # read from one order-50 history
    rep = solve_problem(GivenLoadProblem.with_c0(5.0, -0.35, series))
    tables["table1.csv"] = (("order", "err", "w0_over_h"),
                            [(r.order, r.err, r.w0_over_h) for r in rep.history
                             if r.order in (10, 20, 30, 40, 50)])

    # center deflection across small loads, fitted control values
    tables["table2.csv"] = (("q", "c0", "err", "w0_over_h"), _fitted_rows(
        "Q", (1.0, 2.0, 3.0, 4.0, 5.0), endpoint, "err", "w0_over_h"))

    # iteration history at the large load Q = 1000
    rep = solve_problem(GivenLoadProblem.with_c0(1000.0, -0.02, iterate))
    tables["table3.csv"] = (("iteration", "err", "w0_over_h"),
                            [(r.iteration, r.err, r.w0_over_h) for r in rep.history])

    # center deflection across large loads, fitted control values
    tables["table4.csv"] = (("q", "c0", "err", "w0_over_h"), _fitted_rows(
        "Q", (200.0, 400.0, 600.0, 800.0, 1000.0), iterate, "err", "w0_over_h"))

    # iteration history for the prescribed deflection a = 5
    rep = solve_problem(GivenDeflectionProblem.with_c0(5.0, -0.5, iterate))
    tables["table5.csv"] = (("iteration", "err", "q"),
                            [(r.iteration, r.err, r.q) for r in rep.history])

    # load recovered from small prescribed deflections, plain series
    tables["table6.csv"] = (("a", "c0", "err", "q"), _fitted_rows(
        "a", (1.0, 2.0, 3.0, 4.0, 5.0), endpoint, "err", "q"))

    # load recovered from large prescribed deflections, iterated
    tables["table7.csv"] = (("a", "c0", "err", "q", "w0_over_h"), _fitted_rows(
        "a", (5.0, 10.0, 15.0, 20.0, 25.0, 30.0), iterate, "err", "q", "w0_over_h"))

    for name, (header, rows) in tables.items():
        _write_text(out_dir / name, csv_text(header, rows))
        print(f"wrote {out_dir / name}", file=sys.stderr)
    return EXIT_OK


def main(argv=None):
    parser, registry = _cli()
    args = parser.parse_args(argv)
    sub = registry[args.command]
    if args.config is not None:
        args = _merge_config(sub, args, argv)
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
