"""When an iterate run stops: the stall rule of ``ham.run_passes`` on
scripted residuals and at a rounding floor, and the pass counts of the
converging runs that the rule must leave alone."""

import numpy as np
import pytest

from vkplate import ham
from vkplate.config import STALL_PASSES, IterateMode, SeriesMode
from vkplate.diagnostics import compare_orders, solve_problem
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_deflection import empirical_c0 as empirical_c0_a
from vkplate.given_load import GivenLoadProblem
from vkplate.given_load import empirical_c0 as empirical_c0_q
from vkplate.interpolation import solve as solve_baseline
from vkplate.kernels import BoundarySpec, forcing
from vkplate.polyseries import PolySeries

B = BoundarySpec()
_FALLING = [2.0**-k for k in range(10)]  # best residual at pass 10
_LONG = IterateMode(max_iter=1000)


@pytest.mark.parametrize("errs, mode, status, passes", [
    # the last pass is reported as it is, not the best one
    (_FALLING + [0.5] * 100, _LONG, "stalled", 10 + STALL_PASSES),
    # a residual equal to the minimum is no new minimum
    (_FALLING + [_FALLING[-1]] * 100, _LONG, "stalled", 10 + STALL_PASSES),
    # a new minimum on the last pass before the stall starts the count again
    (_FALLING + [1.0] * (STALL_PASSES - 1) + [1e-4] + [1.0] * 100, _LONG,
     "stalled", 10 + 2 * STALL_PASSES),
    # a minimum below the best by a relative 2**-21, rounding at a floor, is none
    (_FALLING + [_FALLING[-1] * (1.0 - 2.0**-21)] * 100, _LONG, "stalled", 10 + STALL_PASSES),
    # 100 passes without a new minimum in all, but never two in a row
    ([x for k in range(100) for x in (1.0 / (k + 1), 5.0)], IterateMode(max_iter=200),
     "max_iter", 200),
    # a series always runs to its order
    (_FALLING + [0.5] * 100, SeriesMode(110), "max_iter", 110),
], ids=["plateau", "equal", "restart", "rounding", "alternating", "series"])
def test_stall_rule_on_scripted_residuals(monkeypatch, errs, mode, status, passes):
    scores = iter(errs)
    monkeypatch.setattr(ham, "residual_error", lambda *args: next(scores))
    phi, s = PolySeries(forcing(B, -1.0)), PolySeries(np.zeros(1))
    run = ((i, i, phi, s, 1.0) for i in range(1, len(errs) + 1))
    rep = ham.run_passes(run, B, {}, mode)
    assert (rep.status, len(rep.history), rep.err) == (status, passes, errs[passes - 1])


def test_a_run_at_its_rounding_floor_stalls():
    # err reaches 1.7727e-54 at pass 83; its last minima, at passes 132 and 166,
    # improve on the best by 8e-6 and 1.6e-7 relative; counted as a new
    # minimum, the second kept the run going to all 200 passes (max_iter)
    mode = IterateMode(order=5, truncation=100, tol=0.0, max_iter=200)
    rep = solve_problem(GivenLoadProblem.with_c0(132.2, -0.15, mode, precision="extended"))
    assert (rep.status, len(rep.history)) == ("stalled", 132 + STALL_PASSES)
    assert min(rec.err for rec in rep.history) < 1.8e-54


_ITER = IterateMode()
_EXT = IterateMode(tol=1e-24)


def _fitted_load(q):
    return GivenLoadProblem.with_c0(q, empirical_c0_q(q, iterated=True), _ITER)


def _fitted_deflection(a):
    return GivenDeflectionProblem.with_c0(a, empirical_c0_a(a, iterated=True), _ITER)


#: Every converging iterate run of the benchmark, with the pass count it
#: takes without a stall rule: the rule must end none of them early.
CONVERGING = {
    "table3": (lambda: GivenLoadProblem.with_c0(1000.0, -0.02, _ITER), 133),
    **{f"table4-Q{q:g}": (lambda q=q: _fitted_load(q), n)
       for q, n in ((200.0, 24), (400.0, 47), (600.0, 70), (800.0, 94), (1000.0, 118))},
    "table5": (lambda: GivenDeflectionProblem.with_c0(5.0, -0.5, _ITER), 6),
    **{f"table7-a{a:g}": (lambda a=a: _fitted_deflection(a), n)
       for a, n in ((5.0, 6), (10.0, 15), (15.0, 34), (20.0, 61), (25.0, 92))},
    "compare-baseline-ham": (lambda: _fitted_load(132.2), 16),
    "extended-a5": (lambda: GivenDeflectionProblem.with_c0(
        5.0, -0.5, _EXT, precision="extended"), 9),
    "extended-a10": (lambda: GivenDeflectionProblem.with_c0(
        10.0, -0.2, _EXT, precision="extended"), 26),
}


@pytest.mark.parametrize("make, passes", CONVERGING.values(), ids=CONVERGING.keys())
def test_converging_runs_keep_their_pass_counts(make, passes):
    rep = solve_problem(make())
    assert (rep.status, len(rep.history)) == ("converged", passes)


def test_pass_order_study_and_baseline_keep_their_pass_counts():
    comp = compare_orders(GivenLoadProblem.with_c0(132.2, -0.15, _ITER))
    got = {m: (run.status, len(run.history)) for m, run in comp.items()}
    assert got == {m: ("converged", n) for m, n in ((1, 77), (2, 39), (3, 26), (4, 20),
                                                    (5, 16))}
    base = solve_baseline(132.2, 0.1, IterateMode(order=1))
    assert (base.status, len(base.history)) == ("converged", 102)
