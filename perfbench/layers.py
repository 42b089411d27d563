"""The vkplate functions a traced run wraps, and the per-layer metrics.

Each layer is a module of the package.  ``PER_LAYER`` lists every metric
a traced run reports, with its unit; ``BENCHMARK.json`` declares the same
list.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

PER_LAYER = (
    ("polyseries.construct.calls", "count"),
    ("polyseries.construct.s", "s"),
    ("polyseries.add.calls", "count"),
    ("polyseries.add.s", "s"),
    ("polyseries.scaled.calls", "count"),
    ("polyseries.multiply.calls", "count"),
    ("polyseries.multiply.s", "s"),
    ("polyseries.multiply.madds", "count"),
    ("polyseries.multiply.kept_ratio", "ratio"),
    ("ham.residual_error.calls", "count"),
    ("ham.residual_error.s", "s"),
    ("ham.residual_error.self_s", "s"),
    ("polyseries.evaluate_grid.calls", "count"),
    ("polyseries.evaluate_grid.s", "s"),
    ("polyseries.horner.madds", "count"),
    ("kernels.apply.calls", "count"),
    ("kernels.apply.s", "s"),
    ("kernels.apply.coeffs", "count"),
    ("ham.deformation_step.calls", "count"),
    ("ham.deformation_step.s", "s"),
    ("ham.deformation_step.self_s", "s"),
    ("ham.iterate_pass.calls", "count"),
    ("polyseries.integral_over_y.calls", "count"),
    ("polyseries.integral_over_y.s", "s"),
    ("ddouble.calls", "count"),
    ("ddouble.s", "s"),
    ("solver.solves", "count"),
    ("solver.passes", "count"),
    ("solver.orders", "count"),
    ("solver.status.converged", "count"),
    ("solver.status.max_iter", "count"),
    ("solver.status.diverged", "count"),
    ("solver.useful_pass_ratio", "ratio"),
    ("given_load.solve.s", "s"),
    ("given_deflection.solve.s", "s"),
    ("interpolation.solve.s", "s"),
    ("solver.self_s", "s"),
    ("diagnostics.sweep_c0.s", "s"),
    ("diagnostics.compare_orders.s", "s"),
    ("report.emit.s", "s"),
    ("report.bytes", "bytes"),
    ("cli.main.s", "s"),
    ("host.calib_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Metrics that count work; two traced runs of one seed must agree exactly.
EXACT = tuple(name for name, unit in PER_LAYER
              if name.endswith((".calls", ".madds", ".coeffs"))
              or name in ("solver.passes", "solver.orders", "solver.solves"))

#: Work each workload must do: the layers expected to dominate it.
REQUIRED_WORK = {
    "paper": ("polyseries.construct.calls", "polyseries.add.calls",
              "polyseries.scaled.calls", "polyseries.multiply.madds",
              "ham.residual_error.calls", "polyseries.horner.madds",
              "kernels.apply.coeffs", "ham.deformation_step.calls",
              "ham.iterate_pass.calls", "polyseries.integral_over_y.calls",
              "solver.passes", "interpolation.solve.s",
              "diagnostics.compare_orders.s", "report.emit.s", "report.bytes",
              "cli.main.s"),
    "sweep": ("polyseries.construct.calls", "polyseries.add.calls",
              "polyseries.scaled.calls", "ham.residual_error.calls",
              "polyseries.evaluate_grid.calls", "polyseries.horner.madds",
              "ham.deformation_step.calls", "polyseries.integral_over_y.calls",
              "solver.solves", "diagnostics.sweep_c0.s", "report.emit.s",
              "report.bytes", "cli.main.s"),
    "extended": ("polyseries.multiply.madds", "ham.residual_error.calls",
                 "ham.deformation_step.calls",
                 "ham.iterate_pass.calls", "polyseries.integral_over_y.calls",
                 "ddouble.calls", "solver.passes", "cli.main.s"),
}


def _keep_report(tracer, args, kwargs, report):
    tracer.reports.append(report)


def _count_multiply(tracer, args, kwargs, result):
    f, g = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs.get("max_degree")
    n, m = len(f.coeffs), len(g.coeffs)
    full = n + m - 1
    tracer.work["polyseries.multiply.madds"] += n * m
    tracer.work["multiply.computed"] += full
    tracer.work["multiply.kept"] += full if cap is None else min(full, cap + 1)


def _count_kernel(tracer, args, kwargs, result):
    tracer.work["kernels.apply.coeffs"] += len(args[0].coeffs)


def _count_grid(tracer, args, kwargs, result):
    poly, ys = args[0], args[1]
    if poly.lo is None:  # the double-double path is counted in _horner_dd
        tracer.work["polyseries.horner.madds"] += len(poly.coeffs) * np.size(ys)


def _count_horner_dd(tracer, args, kwargs, result):
    tracer.work["polyseries.horner.madds"] += len(args[0].coeffs) * np.size(args[1])


def targets():
    """(owner, attribute, kind, name, hook) for every traced function."""
    from vkplate import (cli, ddouble, diagnostics, given_deflection, given_load, ham,
                         interpolation, kernels, polyseries, report)

    poly = polyseries.PolySeries
    found = [
        (cli, "main", "span", "cli.main", None),
        (diagnostics, "sweep_c0", "span", "diagnostics.sweep_c0", None),
        (diagnostics, "compare_orders", "span", "diagnostics.compare_orders", None),
        (given_load, "solve", "span", "given_load.solve", _keep_report),
        (given_deflection, "solve", "span", "given_deflection.solve", _keep_report),
        (interpolation, "solve", "span", "interpolation.solve", _keep_report),
        (ham, "iterate_pass", "span", "ham.iterate_pass", None),
        (ham, "deformation_step", "span", "ham.deformation_step", None),
        (ham, "residual_error", "span", "ham.residual_error", None),
        (polyseries, "multiply", "span", "polyseries.multiply", _count_multiply),
        (kernels, "apply_slope_kernel", "span", "kernels.apply", _count_kernel),
        (kernels, "apply_membrane_kernel", "span", "kernels.apply", _count_kernel),
        (poly, "evaluate_grid", "span", "polyseries.evaluate_grid", _count_grid),
        (poly, "integral_over_y", "span", "polyseries.integral_over_y", None),
        (poly, "__init__", "leaf", "polyseries.construct", None),
        (poly, "__add__", "leaf", "polyseries.add", None),
        (poly, "scaled", "leaf", "polyseries.scaled", None),
        (poly, "_horner_dd", "leaf", "polyseries.horner_dd", _count_horner_dd),
    ]
    found += [(ddouble, name, "leaf", "ddouble", None)
              for name, value in vars(ddouble).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == ddouble.__name__]
    found += [(report, name, "leaf", "report.emit", None)
              for name in ("emit_report", "history_csv", "report_json", "curve_csv",
                           "fmt_float")]
    return found


def metrics(tracer, report_bytes):
    """Per-layer metrics of one traced iteration, except the host and trace ones."""
    calls, total, own = tracer.span_totals()
    leaves = tracer.leaves
    out = {}
    for name in ("polyseries.multiply", "ham.residual_error", "polyseries.evaluate_grid",
                 "kernels.apply", "ham.deformation_step", "polyseries.integral_over_y"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for name in ("ham.residual_error", "ham.deformation_step"):
        out[f"{name}.self_s"] = own[name]
    out["ham.iterate_pass.calls"] = calls["ham.iterate_pass"]
    solves = ("given_load.solve", "given_deflection.solve", "interpolation.solve")
    for name in solves + ("diagnostics.sweep_c0", "diagnostics.compare_orders", "cli.main"):
        out[f"{name}.s"] = total[name]
    out["solver.self_s"] = sum(own[name] for name in solves)
    for name in ("polyseries.construct", "polyseries.add", "polyseries.scaled", "ddouble",
                 "report.emit"):
        out[f"{name}.calls"], out[f"{name}.s"], _ = leaves.get(name, (0, 0.0, False))
    out["report.bytes"] = report_bytes
    work = tracer.work
    for name in ("polyseries.multiply.madds", "polyseries.horner.madds",
                 "kernels.apply.coeffs"):
        out[name] = work[name]
    out["polyseries.multiply.kept_ratio"] = (work["multiply.kept"] / work["multiply.computed"]
                                             if work["multiply.computed"] else 1.0)
    out.update(_solver_metrics(tracer.reports))
    out["history_records"] = sum(len(r.history) for r in tracer.reports)
    return out


def _solver_metrics(reports):
    """Solve counts, passes, orders and statuses from the returned reports.

    A pass is one history record of an iterate-mode or baseline solve;
    a useful pass is one up to the record with the lowest residual.
    """
    status = Counter(r.status for r in reports)
    passes = useful = orders = 0
    for r in reports:
        if r.history:
            orders += r.history[-1].order
        if r.config.get("mode") == "iterate" or r.config.get("solver") == "interpolation":
            errs = [rec.err for rec in r.history]
            passes += len(errs)
            useful += 1 + min(range(len(errs)), key=errs.__getitem__) if errs else 0
    out = {"solver.solves": len(reports), "solver.passes": passes,
           "solver.orders": orders,
           "solver.useful_pass_ratio": useful / passes if passes else 1.0}
    for s in ("converged", "max_iter", "diverged"):
        out[f"solver.status.{s}"] = status[s]
    return out


def combine(runs):
    """One value per metric over traced iterations: counts from the first, times as medians."""
    first = runs[0]
    return {name: (statistics.median(r[name] for r in runs) if unit == "s" else first[name])
            for name, unit in PER_LAYER if name in first}


def self_test(workload, runs, leaked):
    """Problems found by the tracing self-tests; an empty list when all pass.

    Every history record comes from one residual evaluation, so the two
    counts must agree; work counts must repeat exactly; double-double
    arithmetic runs on ``extended`` only; each workload does the work of
    the layers expected to dominate it; and no wrapper stays bound.
    """
    problems = []
    for i, run in enumerate(runs):
        records = run["history_records"]
        if run["ham.residual_error.calls"] != records:
            problems.append(f"traced iteration {i}: {run['ham.residual_error.calls']} "
                            f"residual_error calls but {records} history records")
        for name in EXACT:
            if run[name] != runs[0][name]:
                problems.append(f"{name} differs between traced iterations: "
                                f"{runs[0][name]} then {run[name]}")
    first = runs[0]
    if workload == "extended":
        if first["ddouble.calls"] <= 0:
            problems.append("ddouble.calls is 0 on extended")
    elif first["ddouble.calls"] != 0:
        problems.append(f"ddouble.calls is {first['ddouble.calls']} on {workload}")
    for name in REQUIRED_WORK[workload]:
        if not first[name] > 0:
            problems.append(f"{name} recorded no work on {workload}")
    if leaked:
        problems.append(f"wrappers left bound after the traced run: {leaked}")
    return problems
