"""Relaxed fixed-point baseline and its exact correspondence with the
staggered first-order homotopy iteration."""

import math

import numpy as np
import pytest

from vkplate.ham import HomotopyState, staggered_pass
from vkplate.interpolation import (
    equivalence_check,
    initial_state,
    solve,
    step,
)
from vkplate.kernels import BoundarySpec, load_forcing
from vkplate.polyseries import PolySeries

B = BoundarySpec()


def test_initial_state_scaling():
    st = initial_state(5.0, 0.4, B)
    assert np.allclose(st.phi.coeffs, load_forcing(B).scaled(-2.0).coeffs)
    assert st.psi is None
    assert st.iteration == 1


def test_theta_domain():
    with pytest.raises(ValueError):
        initial_state(5.0, 0.0, B)
    with pytest.raises(ValueError):
        initial_state(5.0, 1.5, B)
    initial_state(5.0, 1.0, B)  # closed at one


def test_one_step_equals_staggered_first_order_pass():
    q, theta = 5.0, 0.5
    st = step(initial_state(q, theta, B), truncation=None)
    phi0 = load_forcing(B).scaled(-theta * q)
    ham = HomotopyState([phi0.array], [PolySeries.zero().array], -theta, -1.0, q)
    ham = staggered_pass(ham, B)
    assert np.allclose(st.phi.coeffs, ham.phi_terms[0], rtol=1e-14,
                       atol=1e-17)
    assert np.allclose(st.psi.coeffs, ham.s_terms[0], rtol=1e-14,
                       atol=1e-17)


def test_equivalence_over_many_sweeps():
    gap = equivalence_check(5.0, 0.35, iterations=12, truncation=60)
    assert gap <= 1e-12


def test_solve_converges_at_small_relaxation():
    rep = solve(132.1965, 0.1, truncation=100, tol=1e-8, max_iter=200)
    assert rep.status == "converged"
    assert rep.err <= 1e-8
    assert abs(rep.w0_over_h - 3.026) < 5e-3
    assert rep.config["solver"] == "interpolation"


def test_solve_diverges_without_relaxation():
    rep = solve(132.1965, 1.0, truncation=100, tol=1e-8, max_iter=50)
    assert rep.status == "diverged"


def test_history_schema():
    rep = solve(10.0, 0.3, truncation=60, tol=1e-10, max_iter=100)
    assert [rec.iteration for rec in rep.history] == \
        list(range(1, rep.iterations + 1))
    assert all(math.isfinite(rec.err) for rec in rep.history)
    assert rep.q == 10.0
