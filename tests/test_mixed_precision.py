"""An extended iterate run takes float64 passes until its residual nears
float64's reach (``ham.homotopy_passes``), then passes whose first order
is double-double and whose correction orders are float64
(``ham.iterate_pass``); an extended series runs in float64 when every pair
it scores lies far above float64's rounding, and in double-double otherwise
(``ham.solve``); and a pass whose series overflow ends the run as diverged,
with its report."""

import contextlib
import io
import math
from dataclasses import astuple
from functools import reduce

import numpy as np
import pytest

from vkplate import cli, ddouble, given_load, ham
from vkplate.config import IterateMode, SeriesMode
from vkplate.diagnostics import solve_problem
from vkplate.given_deflection import GivenDeflectionProblem, empirical_c0, initial_slope
from vkplate.given_load import GivenLoadProblem
from vkplate.kernels import BoundarySpec
from vkplate.polyseries import PolySeries, add, over_y_squared, weighted_integral, widen

_EXT = IterateMode(order=5, truncation=100, tol=1e-24)


def _rows(report):
    """History rows without their wall-clock column."""
    return [astuple(rec)[:-1] for rec in report.history]


@pytest.mark.parametrize("a, c0, floats", [(5.0, -0.5, 6), (10.0, -0.2, 15)])
def test_rows_before_the_switch_are_the_double_rows(a, c0, floats):
    ext = solve_problem(GivenDeflectionProblem.with_c0(a, c0, _EXT, precision="extended"))
    plain = solve_problem(GivenDeflectionProblem.with_c0(a, c0, _EXT))
    assert _rows(ext)[:floats] == _rows(plain)[:floats]
    assert _rows(ext)[floats] != _rows(plain)[floats]  # the first double-double pass


@pytest.mark.parametrize("load, c0, tol", [(5.0, -0.5, 1e-60), (132.2, -0.15, 1e-50)])
def test_switched_runs_reach_the_double_double_floor(load, c0, tol):
    # from a double-double start these runs bottom out at 1.5e-65 and
    # 1.8e-54; double stalls at 2.7e-33 and 9.9e-32
    mode = IterateMode(order=5, truncation=100, tol=tol, max_iter=200)
    rep = solve_problem(GivenLoadProblem.with_c0(load, c0, mode, precision="extended"))
    assert rep.status == "converged" and rep.err <= tol


@pytest.mark.parametrize("problem", [
    GivenLoadProblem.with_c0(0.0, -0.5, IterateMode(max_iter=3), precision="extended"),
    # converged at pass 4 (err 8.5e-9), before the switch at pass 7
    GivenDeflectionProblem.with_c0(5.0, -0.5, IterateMode(tol=1e-6), precision="extended"),
    GivenDeflectionProblem.with_c0(5.0, -0.5, _EXT, precision="extended"),
    GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(3), precision="extended"),
], ids=["zero-load", "before-switch", "after-switch", "series"])
def test_an_extended_report_is_double_double(problem):
    rep = solve_problem(problem)
    assert rep.phi.extended and rep.s.extended


def _double_double_pass(state, order, truncation, boundary):
    """An iterate pass that steps all its orders in the state's precision."""
    for k in range(1, order + 1):
        ham.deformation_step(state, k, boundary, truncation)
    return ham.HomotopyState([reduce(add, state.phi_terms)], [reduce(add, state.s_terms)],
                             state.c1, state.c2, state.load)


def test_switched_run_agrees_with_an_all_double_double_run():
    # the reference runs every pass from a double-double start in
    # double-double, all five orders of it
    problem = GivenDeflectionProblem.with_c0(10.0, -0.2, _EXT, precision="extended")
    rep = solve_problem(problem)
    b = problem.boundary
    state = ham.HomotopyState([widen(initial_slope(10.0, b))], [widen(np.zeros(1))],
                              problem.c1, problem.c2)
    ref = ham.run_passes(ham.homotopy_passes(state, _EXT, b, _double_double_pass), b, {},
                         _EXT)
    assert ref.phi.extended and len(ref.history) == len(rep.history) == 26
    last_change = abs(rep.history[-1].q - rep.history[-2].q)
    assert 0.0 < abs(rep.q - ref.q) <= last_change


def _scores(pair):
    """The float64 and the double-double score of a double-double pair, and
    the rule's threshold 2**-26 * M**2, M = max(m, m**2)."""
    phi, s, q, b = pair
    m = max(abs(np.concatenate((phi.coeffs, s.coeffs))))
    plain = ham.residual_error(PolySeries(phi.coeffs), PolySeries(s.coeffs), q, b)
    return plain, ham.residual_error(*pair), 2.0**-26 * max(m, m * m) ** 2


def _double_double_series(problem):
    """The problem's series run in double-double from its guess widened, as
    ``ham.solve`` reruns a series whose float64 trial fails."""
    b = problem.boundary
    if isinstance(problem, GivenLoadProblem):
        phi0 = given_load.initial_slope(problem.load, problem.c1, b)
    else:
        phi0 = initial_slope(problem.deflection, b)
    state = ham.HomotopyState([widen(phi0)], [widen(np.zeros(1))], problem.c1, problem.c2,
                              getattr(problem, "load", None))
    return ham.run_passes(ham.homotopy_passes(state, problem.mode, b), b, {}, problem.mode)


def _counted_ddouble(monkeypatch):
    """A list that gains the name of each ``vkplate.ddouble`` function called."""
    calls = []

    def counted(name, real):
        return lambda *args, **kw: calls.append(name) or real(*args, **kw)

    for name, value in vars(ddouble).items():
        if callable(value) and getattr(value, "__module__", None) == ddouble.__name__:
            monkeypatch.setattr(ddouble, name, counted(name, value))
    return calls


@pytest.mark.parametrize("problem, scored, above, trial", [
    # the benchmark's series; gaps up to 1.0e-13
    (GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(30), precision="extended"), 31, 31, 31),
    # `solve-a --a 5 --order 20`; up to 3.6e-13
    (GivenDeflectionProblem.with_c0(5.0, empirical_c0(5.0), SeriesMode(20),
                                    precision="extended"), 20, 10, 11),
    # up to 1.2e-13, with m < 1
    (GivenLoadProblem.with_c0(1.0, -0.9, SeriesMode(60), precision="extended"), 61, 4, 5),
    # a diverging series, m up to 2.6e4: a threshold of 2**-26 * m**2 scored
    # its last pair in float64, 4.5e-9 off the double-double score
    (GivenDeflectionProblem.with_c0(5.0, -0.9, SeriesMode(10), precision="extended"), 10, 3, 4),
], ids=["Q5-order30", "a5-order20", "Q1-order60", "a5-diverging"])
def test_a_series_far_above_float64_rounding_runs_in_float64(monkeypatch, residual_calls,
                                                             problem, scored, above, trial):
    # `scored` pairs of the double-double run, `above` of them at or above the
    # threshold; the float64 trial scores `trial` pairs, and is kept if all are
    ref = _double_double_series(problem)
    pairs = list(residual_calls)  # scored again below
    kept = 0
    for pair in pairs:
        plain, ext, threshold = _scores(pair)
        if plain >= threshold:
            kept += 1
            assert abs(plain - ext) <= 2.0**-30 * ext
    assert (len(pairs), kept) == (scored, above)

    dd_calls = _counted_ddouble(monkeypatch)
    del residual_calls[:]
    rep = solve_problem(problem)
    assert rep.phi.extended and rep.s.extended
    rerun = scored if kept < scored else 0
    assert [pair[0].extended for pair in residual_calls] == [False] * trial + [True] * rerun
    if not rerun:  # the float64 trial is kept, with no double-double arithmetic
        assert dd_calls == ["two_sum", "two_sum"]  # the report's widened pair, renormalized
        assert not (rep.phi.lo.any() or rep.s.lo.any())
        assert [(r.iteration, r.order, r.q) for r in rep.history] == \
            [(r.iteration, r.order, r.q) for r in ref.history]
        for got, want in zip(rep.history, ref.history):
            assert abs(got.err - want.err) <= 2.0**-30 * want.err
            assert abs(got.w0_over_h - want.w0_over_h) <= 1e-13 * abs(want.w0_over_h)
    else:  # abandoned at its first pair below the threshold, then run in double-double
        assert _rows(rep) == _rows(ref) and rep.status == ref.status
        assert np.array_equal(rep.phi.array, ref.phi.array)
        assert np.array_equal(rep.s.array, ref.s.array)


def test_a_non_finite_float64_score_falls_back_to_double_double(residual_calls):
    # the guess of this series scores inf in float64 and nan in double-double
    problem = GivenLoadProblem.with_c0(1e100, -0.5, SeriesMode(3), precision="extended")
    with pytest.warns(RuntimeWarning):
        rep = solve_problem(problem)
        guess = residual_calls[0]
        plain, ext, _ = _scores(guess)
        assert plain == math.inf and math.isnan(ext)
        assert math.isnan(ham.residual_error(*guess))
    assert rep.status == "diverged" and rep.err == math.inf


def _overflowed(line):
    out, err = io.StringIO(), io.StringIO()
    with pytest.warns(RuntimeWarning), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(line.split() + ["--deterministic"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", [
    "solve-q --Q 1e300 --c0 -0.5 --order 2",
    "solve-q --Q 1e300 --c0 -0.5 --iterate",
    "solve-q --Q 1e300 --c0 -0.5 --order 2 --precision extended",
    "solve-a --a 1e300 --c0 -0.5 --iterate --precision extended --format json",
    "solve-q --Q=1e155 --c0 -0.5 --order 3",
], ids=["series", "iterate", "extended-series", "extended-iterate", "sum-of-squares"])
def test_an_overflowed_pass_ends_diverged(line):
    # the series overflow to inf, and their products meet inf - inf and
    # inf * 0: the pass scores err = inf and the run ends with its report;
    # at Q = 1e155 the grid values are finite but their squares sum past the
    # float range (math.fsum raises there; at Q = 1.4e154 it does not)
    code, out, err = _overflowed(line)
    assert code == 2 and "Traceback" not in err
    assert "status=diverged" in err and "err=inf" in err
    assert out


def test_a_finite_structural_fault_still_raises():
    # a slope guess with a constant term is a bug, not an overflow
    state = ham.HomotopyState([np.array([1.0, 0.5])], [np.zeros(1)], -0.5, -0.5, 1.0)
    mode, b = IterateMode(max_iter=2), BoundarySpec()
    with pytest.raises(ValueError, match=r"y\*\*2 factor"):
        ham.run_passes(ham.homotopy_passes(state, mode, b), b, {}, mode)
    # and so does a finite row of a batch beside an overflowed one
    batch = np.array([[[np.inf, 1.0, 2.0, 3.0]], [[1.0, 0.5, 0.0, 1.0]]])
    with pytest.raises(ValueError, match=r"y\*\*2 factor"):
        over_y_squared(batch)
    with pytest.raises(ValueError, match="singular"):
        weighted_integral(batch)
    assert np.array_equal(over_y_squared(batch[:1]), [[[2.0, 3.0]]])
    assert weighted_integral(batch[:1]) == 1.0 + 1.0 + 1.0
