"""Prescribed-deflection solver: the side condition, the recovered load,
and consistency with the prescribed-load solver."""

import json
import math

import numpy as np
import pytest

from vkplate import cli, given_deflection, ham
from vkplate.config import DIVERGENCE_ERR, IterateMode, SeriesMode
from vkplate.given_deflection import (
    GivenDeflectionProblem,
    empirical_c0,
    initial_slope,
    solve,
)
from vkplate.given_load import GivenLoadProblem
from vkplate.given_load import solve as solve_load
from vkplate.kernels import BoundarySpec, forcing_integral
from vkplate.physics import deflection_scale
from vkplate.polyseries import weighted_integral


def test_problem_validation():
    with pytest.raises(ValueError):
        GivenDeflectionProblem(0.0, -0.5, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenDeflectionProblem(-2.0, -0.5, -0.5, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenDeflectionProblem(5.0, -0.5, 0.0, SeriesMode(5))
    with pytest.raises(ValueError):
        GivenDeflectionProblem(5.0, -0.5, -0.5, IterateMode(tol=float("nan")))


def test_empirical_c0_formulas():
    assert empirical_c0(5.0) == -11.0 / 36.0
    assert empirical_c0(5.0, iterated=True) == -0.5
    assert empirical_c0(30.0, iterated=True) == -25.0 / 925.0


def test_initial_slope_satisfies_side_condition():
    # clamped edge weights are exactly representable, so the weighted
    # integral comes out bit-exact; other kinds stay within rounding
    b = BoundarySpec("clamped")
    for a in (0.5, 5.0, 30.0):
        assert weighted_integral(initial_slope(a, b)) == -a
    for kind in ("simple", "hinged", "moveable"):
        b = BoundarySpec(kind)
        for a in (0.5, 5.0, 30.0):
            assert math.isclose(weighted_integral(initial_slope(a, b)), -a,
                                rel_tol=1e-14)


def test_series_run_tracks_restriction_defect():
    rep = solve(GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(30)))
    assert rep.restriction_defect is not None
    assert rep.restriction_defect <= 1e-10


@pytest.mark.parametrize("a, mode, orders, status", [
    # order 0 has no load term yet, so nothing could be scored: rejected
    (5.0, SeriesMode(0), [], ValueError),
    # below tol at order 13, yet the series runs to order 20
    (2.0, SeriesMode(20, tol=1e-7), list(range(1, 21)), "converged"),
    # an iterate run stops at the first pass at or below tol
    (5.0, IterateMode(order=5, truncation=100, tol=1e-6, max_iter=50),
     [5, 10, 15, 20], "converged"),
])
def test_run_length_follows_the_mode(residual_calls, a, mode, orders, status):
    if status is ValueError:
        with pytest.raises(ValueError, match="order >= 1"):
            GivenDeflectionProblem.with_c0(a, -0.5, mode)
        return
    rep = solve(GivenDeflectionProblem.with_c0(a, -0.5, mode))
    assert [rec.order for rec in rep.history] == orders
    assert rep.status == status
    assert len(residual_calls) == len(rep.history)
    if isinstance(mode, IterateMode):
        assert all(rec.err > mode.tol for rec in rep.history[:-1])
        assert rep.err <= mode.tol


@pytest.mark.parametrize("mode", [
    # run_passes goes on to a second order, which the guard stops
    SeriesMode(3),
    # run_passes stops at the first pass, converged; the guard fires after it
    IterateMode(order=5, truncation=100, tol=1e6, max_iter=5),
], ids=["series", "iterate"])
def test_side_condition_guard_fires_on_the_first_scored_pass(monkeypatch, residual_calls,
                                                             mode):
    # the guard judges a pass once it is scored, so that a diverged pass is exempt
    monkeypatch.setattr(given_deflection, "_RESTRICTION_GUARD", -1.0)
    with pytest.raises(RuntimeError, match="side condition"):
        solve(GivenDeflectionProblem.with_c0(5.0, -0.5, mode))
    assert len(residual_calls) == 1


def test_broken_load_term_solve_raises(monkeypatch):
    # load terms solved against twice the kernel integral miss the side
    # condition by 6.2 at the first pass, whose err (1.3e3) is not diverged
    monkeypatch.setattr(ham, "forcing_integral", lambda boundary: 2.0 * forcing_integral(boundary))
    with pytest.raises(RuntimeError, match="the load-term solve is broken"):
        solve(GivenDeflectionProblem.with_c0(
            5.0, -0.5, IterateMode(order=5, truncation=100, max_iter=50)))


def test_broken_load_term_solve_raises_on_an_unscored_order(monkeypatch, residual_calls):
    # a series that scores only its last order still shows order 1 to the guard
    monkeypatch.setattr(ham, "forcing_integral", lambda boundary: 2.0 * forcing_integral(boundary))
    with pytest.raises(RuntimeError, match="the load-term solve is broken"):
        solve(GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(20, every_order=False)))
    assert not residual_calls


def test_sparse_series_run_matches_the_full_run():
    full = solve(GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(30)))
    sparse = solve(GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(30, every_order=False)))
    assert [rec.order for rec in sparse.history] == [30]
    for name in ("restriction_defect", "iterations", "q", "w0_over_h", "err", "status"):
        assert getattr(sparse, name) == getattr(full, name)


@pytest.mark.parametrize("c0, trial, defect", [
    (None, 11, 4.440892098500626e-15),  # --c0 auto
    # a float64 trial whose passes' worst defect, 1.15e-14, is larger
    (-0.3, 11, 2.6645352591003757e-15),
], ids=["c0-auto", "c0-0.3"])
def test_a_rerun_series_reports_the_defect_of_its_kept_run(monkeypatch, residual_calls, capsys,
                                                           c0, trial, defect):
    # the float64 trial of this extended series fails at its order `trial` and
    # the series runs again in double-double; the report's defect is the rerun's
    line = f"solve-a --a 5 --c0 {c0 or 'auto'} --order 20 --format json --precision extended"
    assert cli.main(line.split() + ["--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["restriction_defect"] == defect
    assert [pair[0].extended for pair in residual_calls] == [False] * trial + [True] * 20
    # and the trial's passes are guarded
    monkeypatch.setattr(given_deflection, "_RESTRICTION_GUARD", -1.0)
    del residual_calls[:]
    with pytest.raises(RuntimeError, match="side condition"):
        solve(GivenDeflectionProblem.with_c0(5.0, c0 or empirical_c0(5.0), SeriesMode(20),
                                             precision="extended"))
    assert len(residual_calls) == 1 and not residual_calls[0][0].extended


def test_blown_up_run_is_diverged_not_broken():
    # err falls to 1.2e3 by pass 65, then climbs; pass 81 has err 2.3e62 and
    # max|phi| about 2e17, where a side-condition defect of 3.1 is rounding
    mode = IterateMode(order=5, truncation=240, max_iter=1500)
    rep = solve(GivenDeflectionProblem.with_c0(40.0, -0.009, mode))
    assert rep.status == "diverged" and rep.iterations == 81
    assert rep.restriction_defect > given_deflection._RESTRICTION_GUARD
    assert all(rec.err <= DIVERGENCE_ERR for rec in rep.history[:-1])


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
