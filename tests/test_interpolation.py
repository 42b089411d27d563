"""Relaxed fixed-point baseline, which runs on the staggered first-order
homotopy pass, and that pass checked against the baseline's own sweep."""

import math

import numpy as np
import pytest

from vkplate import ham
from vkplate.config import GRID, IterateMode, SeriesMode, config_echo
from vkplate.given_load import GivenLoadProblem, initial_slope
from vkplate.ham import HomotopyState, staggered_pass
from vkplate.interpolation import solve
from vkplate.kernels import BOUNDARY_KINDS, BoundarySpec

import oracles

B = BoundarySpec()


def test_first_iterate_is_the_load_guess_at_minus_theta():
    # the baseline's first iterate -theta Q K[1], spelled by the oracle, is the
    # prescribed-load guess at c0 = -theta, bit for bit, on every edge
    for kind in BOUNDARY_KINDS:
        b = BoundarySpec(kind)
        for load, theta in ((5.0, 0.4), (132.2, 0.1), (10.0, 0.3), (-7.3, 1.0)):
            phi = initial_slope(load, -theta, b)
            assert isinstance(phi, np.ndarray)
            assert np.array_equal(phi, oracles.first_iterate(load, theta, b))


def test_theta_domain():
    mode = IterateMode(order=1, truncation=20, max_iter=2)
    for theta in (0.0, 1.5, -0.3, math.nan):
        with pytest.raises(ValueError, match="theta"):
            solve(5.0, theta, mode, B)
    assert solve(5.0, 1.0, mode, B).config["theta"] == 1.0  # closed at one


def test_solve_runs_the_staggered_pass_it_finds_at_the_call(monkeypatch):
    # a wrapped ham.staggered_pass (a profiler's) is the pass that runs
    calls = []
    real = ham.staggered_pass

    def traced(state, order, truncation, boundary):
        calls.append((order, truncation, boundary))
        return real(state, order, truncation, boundary)

    monkeypatch.setattr(ham, "staggered_pass", traced)
    rep = solve(10.0, 0.3, IterateMode(order=1, truncation=40, tol=1e-30, max_iter=5), B)
    assert rep.iterations == 5 and calls == [(1, 40, B)] * 5


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
@pytest.mark.parametrize("truncation", [None, 20])
def test_step_matches_reference_sweep(truncation, kind):
    # the paper's theorem: five staggered first-order passes at c1 = -theta,
    # c2 = -1 are the baseline sweeps, to rounding; untruncated the degree
    # grows 2 -> 486, and at truncation 20 both the capped products and the
    # cut act from the third sweep
    boundary = BoundarySpec(kind)
    for n, pairs in enumerate(oracles.baseline_sweeps(10.0, 0.3, 5, truncation, boundary)):
        for ours, ref in pairs:
            assert ours.shape == ref.array.shape
            assert oracles.grid_gap(ours, ref) <= 1e-12
            if n == 0:  # the first sweep agrees coefficient by coefficient
                assert np.allclose(ours, ref.array, rtol=1e-14, atol=1e-17)
    if truncation is not None:
        assert all(len(ours) == truncation + 1 for ours, _ in pairs)


def test_step_caps_degrees_at_the_truncation():
    # the first sweep's psi has degree 4, below every product cap, so a
    # cut at n keeps exactly its first n + 1 coefficients; the coupling
    # (degree 6) is cut too, while phi and the load image (degree 2) are
    # not, and a cut at or above every degree changes nothing
    state = HomotopyState([initial_slope(5.0, -0.4, B)], [np.zeros(1)], -0.4, -1.0, 5.0)
    full = staggered_pass(state, 1, None, B)
    full_phi, full_psi = full.phi_terms[0], full.s_terms[0]
    assert len(full_psi) == 5 and len(full_phi) == 7
    for n in (2, 3, 6, 9):  # from n = 2 the product cap n + 2 covers phi**2
        cut = staggered_pass(state, 1, n, B)
        cut_phi, cut_psi = cut.phi_terms[0], cut.s_terms[0]
        assert len(cut_psi) == min(n + 1, 5)
        assert len(cut_phi) == max(3, min(n + 1, 7))
        assert np.array_equal(cut_psi, full_psi[: n + 1])
    assert np.array_equal(staggered_pass(state, 1, 6, B).phi_terms[0], full_phi)
    with pytest.raises(ValueError):
        staggered_pass(state, 1, -1, B)


def test_equivalence_over_many_sweeps():
    gap = max(oracles.grid_gap(ours, ref)
              for pairs in oracles.baseline_sweeps(5.0, 0.35, 12, truncation=60)
              for ours, ref in pairs)
    assert gap <= 1e-12


def test_solve_converges_at_small_relaxation():
    rep = solve(132.1965, 0.1, IterateMode(order=1, truncation=100, tol=1e-8, max_iter=200))
    assert rep.status == "converged"
    assert rep.err <= 1e-8
    assert abs(rep.w0_over_h - 3.026) < 5e-3
    assert rep.config["solver"] == "interpolation"


def test_solve_diverges_without_relaxation():
    rep = solve(132.1965, 1.0, IterateMode(order=1, truncation=100, tol=1e-8, max_iter=50))
    assert rep.status == "diverged"


def test_history_schema():
    rep = solve(10.0, 0.3, IterateMode(order=1, truncation=60, tol=1e-10, max_iter=100))
    assert [rec.iteration for rec in rep.history] == \
        list(range(1, rep.iterations + 1))
    assert all(math.isfinite(rec.err) for rec in rep.history)
    assert rep.q == 10.0


def test_baseline_settings_are_a_checked_order_one_mode():
    # the settings reach the sweep: a budget of 7 at a tolerance no sweep
    # meets, then a tolerance first met by the seventh sweep (err 5.9e-5)
    rep = solve(10.0, 0.3, IterateMode(order=1, truncation=40, tol=1e-30, max_iter=7))
    assert rep.iterations == 7 and rep.status == "max_iter"
    assert (rep.config["truncation"], rep.config["tol"], rep.config["max_iter"]) == \
        (40, 1e-30, 7)
    assert len(rep.phi.coeffs) == len(rep.s.coeffs) == 41
    rep = solve(10.0, 0.3, IterateMode(order=1, truncation=40, tol=1e-4))
    assert rep.iterations == 7 and rep.status == "converged"
    # a NaN tolerance used to run out the budget as max_iter, and a zero
    # budget to return an empty history with err NaN; a sweep is a
    # first-order pass, so no other order or mode is accepted
    for settings in (dict(tol=math.nan), dict(max_iter=0), dict(order=2)):
        with pytest.raises(ValueError):
            solve(10.0, 0.3, IterateMode(**{"order": 1, "truncation": 60, **settings}))
    with pytest.raises(ValueError):
        solve(10.0, 0.3, SeriesMode(1))


def test_solve_is_the_staggered_pass_on_the_shared_driver():
    # five sweeps through ham.solve leave the pair that five hand-run
    # staggered passes from the same start leave, bit for bit
    rep = solve(10.0, 0.3, IterateMode(order=1, truncation=40, tol=1e-30, max_iter=5))
    state = HomotopyState([initial_slope(10.0, -0.3, B)], [np.zeros(1)], -0.3, -1.0, 10.0)
    for _ in range(5):
        state = staggered_pass(state, 1, 40, B)
    assert np.array_equal(rep.phi.coeffs, state.phi_terms[0])
    assert np.array_equal(rep.s.coeffs, state.s_terms[0])
    assert [rec.order for rec in rep.history] == [1, 2, 3, 4, 5]


def test_baseline_config_is_the_shared_echo():
    # the baseline is GivenLoadProblem(Q, -theta, -1) on ham.solve, so its
    # config is config_echo's: the controls, precision, mode and order,
    # and every key the baseline echoed before
    b = BoundarySpec("simple")
    mode = IterateMode(order=1, truncation=40, tol=1e-6, max_iter=30)
    cfg = solve(10.0, 0.3, mode, b).config
    assert (cfg["c1"], cfg["c2"], cfg["mode"], cfg["order"]) == (-0.3, -1.0, "iterate", 1)
    assert cfg["precision"] == "double"
    assert {key: cfg[key] for key in ("solver", "load", "theta", "boundary", "nu",
                                      "truncation", "tol", "max_iter", "grid_size")} == {
        "solver": "interpolation", "load": 10.0, "theta": 0.3, "boundary": "simple",
        "nu": b.nu, "truncation": 40, "tol": 1e-6, "max_iter": 30, "grid_size": GRID}
    assert cfg == config_echo(GivenLoadProblem(10.0, -0.3, -1.0, mode, b),
                              {"solver": "interpolation", "load": 10.0, "theta": 0.3})
