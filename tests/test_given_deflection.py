"""Prescribed-deflection solver: the side condition, the recovered load,
and consistency with the prescribed-load solver."""

import math

import numpy as np
import pytest

from vkplate import given_deflection
from vkplate.config import IterateMode, SeriesMode
from vkplate.given_deflection import (
    GivenDeflectionProblem,
    empirical_c0,
    initial_slope,
    solve,
)
from vkplate.given_load import GivenLoadProblem
from vkplate.given_load import solve as solve_load
from vkplate.kernels import BoundarySpec
from vkplate.physics import deflection_scale


def test_problem_validation():
    with pytest.raises(ValueError):
        GivenDeflectionProblem(0.0, -0.5, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenDeflectionProblem(-2.0, -0.5, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenDeflectionProblem(5.0, -0.5, 0.0, SeriesMode(5))


def test_empirical_c0_formulas():
    assert empirical_c0(5.0) == -11.0 / 36.0
    assert empirical_c0(5.0, iterated=True) == -0.5
    assert empirical_c0(30.0, iterated=True) == -25.0 / 925.0


def test_initial_slope_satisfies_side_condition():
    # clamped edge weights are exactly representable, so the weighted
    # integral comes out bit-exact; other kinds stay within rounding
    b = BoundarySpec("clamped")
    for a in (0.5, 5.0, 30.0):
        assert initial_slope(a, b).integral_over_y() == -a
    for kind in ("simple", "hinged", "moveable"):
        b = BoundarySpec(kind)
        for a in (0.5, 5.0, 30.0):
            assert math.isclose(initial_slope(a, b).integral_over_y(), -a,
                                rel_tol=1e-14)


def test_series_run_tracks_restriction_defect():
    rep = solve(GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(30)))
    assert rep.restriction_defect is not None
    assert rep.restriction_defect <= 1e-10


@pytest.mark.parametrize("a, mode, orders, status", [
    # order 0 has no load term yet, so nothing is recorded
    (5.0, SeriesMode(0), [], "max_iter"),
    # below tol at order 13, yet the series runs to order 20
    (2.0, SeriesMode(20, tol=1e-7), list(range(1, 21)), "converged"),
    # an iterate run stops at the first pass at or below tol
    (5.0, IterateMode(order=5, truncation=100, tol=1e-6, max_iter=50),
     [5, 10, 15, 20], "converged"),
])
def test_run_length_follows_the_mode(residual_calls, a, mode, orders, status):
    rep = solve(GivenDeflectionProblem.with_c0(a, -0.5, mode))
    assert [rec.order for rec in rep.history] == orders
    assert rep.status == status
    assert len(residual_calls) == len(rep.history)
    if isinstance(mode, IterateMode):
        assert all(rec.err > mode.tol for rec in rep.history[:-1])
        assert rep.err <= mode.tol
    if not orders:
        assert math.isnan(rep.err) and rep.q == 0.0
        assert rep.restriction_defect == 0.0


def test_side_condition_guard_fires_before_the_residual(monkeypatch, residual_calls):
    monkeypatch.setattr(given_deflection, "_RESTRICTION_GUARD", -1.0)
    with pytest.raises(RuntimeError, match="side condition"):
        solve(GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(3)))
    assert residual_calls == []


def test_series_run_recovers_the_matching_load():
    rep = solve(GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(50)))
    assert abs(rep.q - 132.1965) / 132.1965 < 5e-3
    # the prescribed deflection is what the solution actually has
    scale = deflection_scale(0.3)
    assert math.isclose(rep.w0_over_h, 5.0 / scale, rel_tol=1e-12)


def test_iterate_run_converges_fast_at_good_control_value():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenDeflectionProblem.with_c0(5.0, -0.5, mode))
    assert rep.status == "converged"
    assert rep.iterations <= 10
    assert abs(rep.q - 132.1965) < 0.1
    assert rep.restriction_defect <= 1e-10


def test_history_q_column_is_the_running_load_estimate():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenDeflectionProblem.with_c0(5.0, -0.5, mode))
    assert rep.history[-1].q == rep.q
    # the estimate settles once the residual has converged
    qs = [rec.q for rec in rep.history[-2:]]
    assert max(qs) - min(qs) < 1e-6 * abs(rep.q)


def test_cross_mode_consistency():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    back = solve(GivenDeflectionProblem.with_c0(5.0, -0.5, mode))
    fwd = solve_load(GivenLoadProblem.with_c0(back.q, -0.15, mode))
    scale = deflection_scale(0.3)
    assert math.isclose(fwd.w0_over_h, 5.0 / scale, rel_tol=1e-6)


def test_deep_deflection_iterate_run():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=120)
    rep = solve(GivenDeflectionProblem.with_c0(10.0, empirical_c0(10.0, True), mode))
    assert abs(rep.q - 957.7) / 957.7 < 5e-3
    assert rep.restriction_defect <= 1e-10


def test_extended_precision_pushes_below_double_floor():
    mode = IterateMode(order=5, truncation=100, tol=1e-22, max_iter=12)
    rep = solve(GivenDeflectionProblem.with_c0(
        5.0, -0.5, mode, precision="extended"))
    assert rep.err <= 1e-20


def test_divergence_status():
    mode = IterateMode(order=5, truncation=100, tol=1e-12, max_iter=50)
    rep = solve(GivenDeflectionProblem.with_c0(30.0, -1.9, mode))
    assert rep.status == "diverged"


def test_config_echo_names_the_solver():
    rep = solve(GivenDeflectionProblem.with_c0(2.0, -0.5, SeriesMode(5)))
    assert rep.config["solver"] == "given_deflection"
    assert rep.config["deflection"] == 2.0
    assert rep.config["mode"] == "series"
