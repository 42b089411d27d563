"""Relaxed fixed-point baseline and its exact correspondence with the
staggered first-order homotopy iteration."""

import math

import numpy as np
import pytest

from vkplate.config import IterateMode, SeriesMode
from vkplate.ham import HomotopyState, staggered_pass
from vkplate.interpolation import (
    equivalence_check,
    initial_state,
    solve,
    step,
)
from vkplate.kernels import BOUNDARY_KINDS, BoundarySpec, forcing
from vkplate.polyseries import PolySeries

import oracles

B = BoundarySpec()


def test_initial_state_scaling():
    phi = initial_state(5.0, 0.4, B)
    assert isinstance(phi, np.ndarray)
    assert np.array_equal(phi, forcing(B, -2.0))


def test_theta_domain():
    with pytest.raises(ValueError):
        initial_state(5.0, 0.0, B)
    with pytest.raises(ValueError):
        initial_state(5.0, 1.5, B)
    initial_state(5.0, 1.0, B)  # closed at one


def test_one_step_equals_staggered_first_order_pass():
    q, theta = 5.0, 0.5
    phi, psi = step(initial_state(q, theta, B), theta, q, B, truncation=None)
    ham = HomotopyState([forcing(B, -theta * q)], [np.zeros(1)], -theta, -1.0, q)
    ham = staggered_pass(ham, B)
    assert np.allclose(phi, ham.phi_terms[0], rtol=1e-14, atol=1e-17)
    assert np.allclose(psi, ham.s_terms[0], rtol=1e-14, atol=1e-17)


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
@pytest.mark.parametrize("truncation", [None, 20])
def test_step_matches_reference_sweep(truncation, kind):
    # five sweeps: untruncated the degree grows 2 -> 486; at truncation
    # 20 both the capped products and the cut act from the third sweep
    boundary = BoundarySpec(kind)
    q, theta = 10.0, 0.3
    phi = initial_state(q, theta, boundary)
    ref = PolySeries(phi)
    for _ in range(5):
        phi, psi = step(phi, theta, q, boundary, truncation)
        ref, ref_psi = oracles.interpolation_step(ref, theta, q, boundary, truncation)
        assert np.array_equal(phi, ref.array)
        assert np.array_equal(psi, ref_psi.array)
    if truncation is not None:
        assert len(phi) == len(psi) == truncation + 1


def test_step_caps_degrees_at_the_truncation():
    # the first sweep's psi has degree 4, below every product cap, so a
    # cut at n keeps exactly its first n + 1 coefficients; the coupling
    # (degree 6) is cut too, while phi and the load image (degree 2) are
    # not, and a cut at or above every degree changes nothing
    phi = initial_state(5.0, 0.4, B)
    full_phi, full_psi = step(phi, 0.4, 5.0, B, truncation=None)
    assert len(full_psi) == 5 and len(full_phi) == 7
    for n in (2, 3, 6, 9):  # from n = 2 the product cap n + 2 covers phi**2
        cut_phi, cut_psi = step(phi, 0.4, 5.0, B, truncation=n)
        assert len(cut_psi) == min(n + 1, 5)
        assert len(cut_phi) == max(3, min(n + 1, 7))
        assert np.array_equal(cut_psi, full_psi[: n + 1])
    assert np.array_equal(step(phi, 0.4, 5.0, B, truncation=6)[0], full_phi)
    with pytest.raises(ValueError):
        step(phi, 0.4, 5.0, B, truncation=-1)


def test_equivalence_over_many_sweeps():
    gap = equivalence_check(5.0, 0.35, iterations=12, truncation=60)
    assert gap <= 1e-12


@pytest.mark.parametrize("iterations", [0, -3])
def test_equivalence_check_needs_a_sweep(iterations):
    # no sweep compares nothing, which would report a vacuous gap of 0.0
    with pytest.raises(ValueError):
        equivalence_check(5.0, 0.35, iterations=iterations)


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
