"""Prescribed-load solver: validation, both modes, status logic,
report plumbing, and agreement between precisions."""

import json
import math

import numpy as np
import pytest

from vkplate.config import PRECISIONS, IterateMode, SeriesMode
from vkplate.given_load import (
    GivenLoadProblem,
    empirical_c0,
    initial_slope,
    solve,
)
from vkplate.kernels import BoundarySpec, forcing
from vkplate.physics import deflection_curve
from vkplate.report import report_json


def test_problem_validation():
    with pytest.raises(ValueError):
        GivenLoadProblem(float("nan"), -0.5, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenLoadProblem(5.0, 0.0, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenLoadProblem(5.0, -0.5, -0.5, SeriesMode(5), precision="quad")
    # a NaN tolerance fails every comparison, so it is rejected, not ignored
    with pytest.raises(ValueError):
        SeriesMode(5, tol=float("nan"))
    with pytest.raises(ValueError):
        IterateMode(tol=float("nan"))


def test_with_c0_shorthand():
    p = GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(10))
    assert p.c1 == p.c2 == -0.35


def test_empirical_c0_formulas():
    assert empirical_c0(5.0) == -13.0 / 38.0
    assert empirical_c0(0.0) == -1.0
    assert empirical_c0(5.0, iterated=True) == -23.0 / 28.0
    assert empirical_c0(1000.0, iterated=True) == -23.0 / 1023.0


def test_initial_slope_shape():
    b = BoundarySpec()
    guess = initial_slope(5.0, -0.4, b)
    assert np.array_equal(guess, forcing(b, -2.0))


def test_zero_load_gives_zero_solution():
    rep = solve(GivenLoadProblem.with_c0(0.0, -0.5, SeriesMode(3)))
    assert rep.status == "converged"
    assert not np.count_nonzero(rep.phi.array) and not np.count_nonzero(rep.s.array)
    assert rep.err == 0.0 and rep.w0_over_h == 0.0


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("mode", [SeriesMode(10), IterateMode(max_iter=3)],
                         ids=["series", "iterate"])
def test_zero_load_series_keep_their_length(mode, precision):
    # the kernel image of a zero series is [0], so the guess's three zero
    # coefficients and the membrane force's one do not grow with the order
    rep = solve(GivenLoadProblem.with_c0(0.0, -0.5, mode, precision=precision))
    assert rep.phi.degree == 2 and rep.s.degree == 0
    assert rep.phi.extended == rep.s.extended == (precision == "extended")


def test_series_history_is_ordered_and_decaying():
    rep = solve(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(20)))
    iters = [rec.iteration for rec in rep.history]
    assert iters == list(range(0, 21))
    assert all(rec.order == rec.iteration for rec in rep.history)
    assert rep.history[-1].err < rep.history[2].err
    walls = [rec.wall_ms for rec in rep.history]
    assert all(b >= a for a, b in zip(walls, walls[1:]))


def test_series_center_deflection_settles():
    rep = solve(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(30)))
    assert abs(rep.w0_over_h - 0.6228) < 5e-3
    assert rep.q == 5.0


def test_iterate_mode_converges_and_echoes_config():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenLoadProblem.with_c0(132.1965, -0.15, mode))
    assert rep.status == "converged"
    assert rep.err <= 1e-12
    assert rep.config["mode"] == "iterate"
    assert rep.config["order"] == 5 and rep.config["truncation"] == 100
    assert rep.history[0].iteration == 1


@pytest.mark.parametrize("load, c0, mode, orders, status", [
    # order 0 records the guess alone, classified by its own residual
    (5.0, -0.35, SeriesMode(0), [0], "max_iter"),
    # below tol at order 10, yet the series runs to order 20
    (5.0, -0.35, SeriesMode(20, tol=5e-4), list(range(21)), "converged"),
    # below tol at order 18 but above it at order 20: the last residual decides
    (5.0, -0.35, SeriesMode(20, tol=5e-5), list(range(21)), "max_iter"),
    # the guess is recorded even above the divergence threshold (err 2e9);
    # only the first order ends the run
    (1000.0, -1.5, SeriesMode(5), [0, 1], "diverged"),
    # an iterate run stops at the first pass at or below tol
    (132.1965, -0.15, IterateMode(order=5, truncation=100, tol=1e-6, max_iter=50),
     list(range(5, 46, 5)), "converged"),
    # scoring only what the residual bound cannot clear: the last order, or
    # the first diverged one, as in the runs above
    (5.0, -0.35, SeriesMode(20, tol=5e-5, every_order=False), [20], "max_iter"),
    (1000.0, -1.5, SeriesMode(5, every_order=False), [1], "diverged"),
    (5.0, -0.35, SeriesMode(0, every_order=False), [0], "max_iter"),
])
def test_run_length_follows_the_mode(residual_calls, load, c0, mode, orders, status):
    rep = solve(GivenLoadProblem.with_c0(load, c0, mode))
    assert [rec.order for rec in rep.history] == orders
    assert rep.status == status
    assert len(residual_calls) == len(rep.history)
    if isinstance(mode, IterateMode):
        assert all(rec.err > mode.tol for rec in rep.history[:-1])
        assert rep.err <= mode.tol


def test_a_series_scores_every_order_by_default():
    # a series told otherwise ends where the full run ends
    assert SeriesMode().every_order
    full = solve(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(20)))
    sparse = solve(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(20, every_order=False)))
    assert (sparse.err, sparse.q, sparse.w0_over_h, sparse.status) == (
        full.err, full.q, full.w0_over_h, full.status)


def test_iterate_budget_exhaustion_reports_max_iter():
    mode = IterateMode(order=1, truncation=30, tol=1e-30, max_iter=3)
    rep = solve(GivenLoadProblem.with_c0(5.0, -0.5, mode))
    assert rep.status == "max_iter"
    assert len(rep.history) == 3


def test_divergence_detected():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenLoadProblem.with_c0(1000.0, -1.5, mode))
    assert rep.status == "diverged"


def test_deflection_samples_span_the_radius():
    # the JSON report derives its samples, the (y, W) columns of an
    # 11-point deflection curve of the final slope series
    for precision in PRECISIONS:
        rep = solve(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(20), precision=precision))
        samples = json.loads(report_json(rep))["deflection_samples"]
        assert samples == [[y, wv] for y, _, wv, _ in deflection_curve(rep.phi, 0.3, 11)]
        ys = [y for y, _ in samples]
        assert ys == pytest.approx(list(np.linspace(0.0, 1.0, 11)))
        assert samples[-1][1] == 0.0
        # center sample agrees with the reported center deflection
        w0 = samples[0][1]
        assert math.isclose(abs(w0) / math.sqrt(3 * (1 - 0.3**2)), rep.w0_over_h,
                            rel_tol=1e-12)


def test_extended_precision_matches_double_early():
    mode = IterateMode(order=3, truncation=40, tol=1e-10, max_iter=20)
    plain = solve(GivenLoadProblem.with_c0(5.0, -0.6, mode))
    ext = solve(GivenLoadProblem.with_c0(5.0, -0.6, mode, precision="extended"))
    assert ext.phi.extended
    assert math.isclose(plain.history[0].err, ext.history[0].err, rel_tol=1e-10)
    assert math.isclose(plain.w0_over_h, ext.w0_over_h, rel_tol=1e-10)


def test_iterations_to_helper():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenLoadProblem.with_c0(132.1965, -0.15, mode))
    it = rep.iterations_to(1e-6)
    assert it is not None and rep.history[it - 1].err <= 1e-6
    assert rep.iterations_to(0.0) is None or rep.err == 0.0
