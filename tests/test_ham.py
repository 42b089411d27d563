"""Deformation-order machinery: hand-worked low orders, ordering guards,
truncation behavior, pass collapsing, and the mean-square residual."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vkplate.ham import (
    HomotopyState,
    OrderingError,
    _membrane_base,
    _slope_base,
    deformation_step,
    iterate_pass,
    residual_error,
    staggered_pass,
)
from vkplate.kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing_integral,
    kernel_value,
    load_forcing,
)
from vkplate.polyseries import PolySeries, multiply

B = BoundarySpec()  # clamped, nu = 0.3


def _load_state(load, c0):
    phi0 = load_forcing(B).scaled(load * c0)
    return HomotopyState.for_load(phi0, PolySeries.zero(), load, c0, c0)


def _deflection_state(a, c0):
    phi0 = load_forcing(B).scaled(-4.0 * a / (2.0 * B.lam + 1.0))
    return HomotopyState.for_deflection(phi0, PolySeries.zero(), a, c0, c0)


def test_first_order_slope_rhs_closed_form():
    # with s0 = 0 the first slope right-hand side collapses to
    # (1 + c0) * Q * load_forcing; the first order inherits no phi0 term,
    # so the step stores exactly c0 times it
    q, c0 = 5.0, -0.35
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    want = load_forcing(B).scaled(q * (1.0 + c0) * c0)
    assert np.allclose(state.phi_terms[1].coeffs, want.coeffs, rtol=1e-14)


def test_control_value_minus_one_gives_vanishing_first_update():
    state = _load_state(5.0, -1.0)
    deformation_step(state, 1, B)
    assert state.phi_terms[1].is_zero


def test_first_order_membrane_rhs_closed_form():
    q, c0 = 3.0, -0.4
    state = _load_state(q, c0)
    d2 = _membrane_base(state, 1, B, cap=None)
    lf = load_forcing(B)
    sq = multiply(lf, lf).scaled((q * c0) ** 2)
    want = apply_membrane_kernel(sq.divided_by_y_squared(), B).scaled(-0.5)
    assert np.allclose(d2.coeffs, want.coeffs, rtol=1e-14)
    deformation_step(state, 1, B)
    assert np.allclose(state.s_terms[1].coeffs, want.scaled(c0).coeffs,
                       rtol=1e-14)


def test_second_order_slope_rhs_assembly():
    q, c0 = 2.0, -0.5
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    phi0, phi1 = state.phi_terms
    s1 = state.s_terms[1]
    # s0 = 0, so the coupling sum at order 2 is phi0 * s1 alone;
    # no forcing appears past the first order in prescribed-load mode
    want = phi1 + apply_slope_kernel(
        multiply(phi0, s1).divided_by_y_squared(), B
    )
    got = _slope_base(state, 2, B, cap=None)
    assert np.allclose(got.coeffs, want.coeffs, rtol=1e-13, atol=1e-16)
    deformation_step(state, 2, B)
    assert np.allclose(state.phi_terms[2].coeffs,
                       (phi1 + want.scaled(c0)).coeffs, rtol=1e-13, atol=1e-16)


def test_inheritance_from_second_order_on():
    # every order past the first adds its update to the previous term
    q, c0 = 2.0, -0.5
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    for k in range(2, 8):
        d1 = _slope_base(state, k, B, cap=None)  # no forcing past order 1
        d2 = _membrane_base(state, k, B, cap=None)
        deformation_step(state, k, B)
        want_phi = state.phi_terms[k - 1] + d1.scaled(c0)
        want_s = state.s_terms[k - 1] + d2.scaled(c0)
        assert np.allclose(state.phi_terms[k].coeffs, want_phi.coeffs, rtol=1e-13)
        assert np.allclose(state.s_terms[k].coeffs, want_s.coeffs, rtol=1e-13)


def test_ordering_guards():
    state = _load_state(1.0, -0.5)
    with pytest.raises(OrderingError):
        deformation_step(state, 2, B)  # order 1 not built yet
    with pytest.raises(OrderingError):
        deformation_step(state, 0, B)
    deformation_step(state, 1, B)
    with pytest.raises(OrderingError):
        deformation_step(state, 1, B)  # order 1 already built


def test_prescribed_deflection_initial_integral_is_exact():
    for a in (1.0, 5.0, 30.0):
        state = _deflection_state(a, -0.5)
        assert state.phi_terms[0].integral_over_y() == -a


def test_first_load_term_closed_form():
    a = 5.0
    state = _deflection_state(a, -0.5)
    deformation_step(state, 1, B)
    assert len(state.q_terms) == 1
    assert math.isclose(state.q_terms[0], 4.0 * a / (2.0 * B.lam + 1.0),
                        rel_tol=1e-14)


def test_load_term_sequence_guard():
    state = _deflection_state(2.0, -0.5)
    state.q_terms.append(1.0)  # a load term for order 1 that the step did not solve
    with pytest.raises(OrderingError):
        deformation_step(state, 1, B)
    state = _deflection_state(2.0, -0.5)
    deformation_step(state, 1, B)
    state.q_terms.pop()  # order 2 finds its predecessor's load term missing
    with pytest.raises(OrderingError):
        deformation_step(state, 2, B)


def test_solved_load_term_zeroes_the_rhs_integral():
    state = _deflection_state(4.0, -0.3)
    for k in (1, 2, 3):
        deformation_step(state, k, B)
        d1 = _slope_base(state, k, B, cap=None) + load_forcing(B).scaled(
            state.q_terms[k - 1])
        assert abs(d1.integral_over_y()) < 1e-12
        assert abs(state.phi_terms[k].integral_over_y()) < 1e-12


def test_truncation_caps_stored_degrees():
    n = 8
    state = _load_state(5.0, -0.6)
    for k in (1, 2, 3, 4):
        deformation_step(state, k, B, truncation=n)
        assert state.phi_terms[k].degree <= n
        assert state.s_terms[k].degree <= n


def test_truncated_step_matches_full_step_truncated_at_low_order():
    # at the first order no degree exceeds the cap, so both paths agree
    full = _load_state(5.0, -0.6)
    capped = _load_state(5.0, -0.6)
    deformation_step(full, 1, B)
    deformation_step(capped, 1, B, truncation=50)
    assert np.allclose(full.phi_terms[1].coeffs, capped.phi_terms[1].coeffs,
                       rtol=1e-15)


def test_truncated_deflection_step_keeps_side_condition():
    state = _deflection_state(5.0, -0.5)
    for k in (1, 2, 3, 4, 5):
        deformation_step(state, k, B, truncation=20)
        phi = sum(state.phi_terms[1:], state.phi_terms[0])
        assert abs(phi.integral_over_y() + 5.0) < 1e-12


def test_iterate_pass_collapses_partial_sums():
    state = _load_state(5.0, -0.6)
    fresh = iterate_pass(state, 3, 30, B)
    want_phi, want_s = state.partial_sums()
    assert np.allclose(fresh.phi_terms[0].coeffs, want_phi.coeffs, rtol=1e-15)
    assert np.allclose(fresh.s_terms[0].coeffs, want_s.coeffs, rtol=1e-15)
    assert fresh.order == 0 and fresh.q_terms == [5.0]


def test_iterate_pass_reports_load_estimate():
    state = _deflection_state(5.0, -0.5)
    fresh = iterate_pass(state, 2, 40, B)
    assert math.isclose(fresh.load_estimate, math.fsum(state.q_terms),
                        rel_tol=1e-15)
    assert fresh.target_deflection == 5.0


def test_staggered_pass_adopts_membrane_update_first():
    q, theta = 5.0, 0.5
    phi0 = load_forcing(B).scaled(-theta * q)
    state = HomotopyState.for_load(phi0, PolySeries.zero(), q, -theta, -1.0)
    nxt = staggered_pass(state, B)
    # manual: psi = G-image of phi0**2 / (2 y**2); then the slope update
    # sees that psi, not the stale zero
    psi = apply_membrane_kernel(
        multiply(phi0, phi0).divided_by_y_squared(), B
    ).scaled(0.5)
    want_phi = phi0.scaled(1.0 - theta) - apply_slope_kernel(
        multiply(phi0, psi).divided_by_y_squared(), B
    ).scaled(theta) - load_forcing(B).scaled(theta * q)
    assert np.allclose(nxt.s_terms[0].coeffs, psi.coeffs, rtol=1e-13)
    assert np.allclose(nxt.phi_terms[0].coeffs, want_phi.coeffs, rtol=1e-13,
                       atol=1e-16)


def test_staggered_pass_rejects_deflection_states():
    with pytest.raises(OrderingError):
        staggered_pass(_deflection_state(1.0, -0.5), B)


def test_residual_zero_for_zero_load_zero_solution():
    rep = residual_error(PolySeries.zero(), PolySeries.zero(), 0.0, B)
    assert rep.err == 0.0


def test_residuals_vanish_at_origin():
    state = _load_state(5.0, -0.35)
    for k in (1, 2, 3):
        deformation_step(state, k, B)
    phi, s = state.partial_sums()
    rep = residual_error(phi, s, 5.0, B, grid_size=10, keep_points=True)
    assert rep.slope_residual[0] == 0.0
    assert rep.membrane_residual[0] == 0.0


def test_residual_against_quadrature_oracle():
    # independent evaluation of both operators at a handful of points
    rng = np.random.default_rng(83)
    phi = PolySeries(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 4)]))
    s = PolySeries(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 3)]))
    q = 2.0
    grid_size = 8
    ys = np.linspace(0.0, 1.0, grid_size + 1)

    def n1_at(t):
        def integrand(e):
            inner = phi.evaluate(e) * s.evaluate(e) / e**2 if e > 0 else 0.0
            return kernel_value(t, e, B.lam) * (inner + q)
        lo, _ = quad(integrand, 0.0, t, limit=200)
        hi, _ = quad(integrand, t, 1.0, limit=200)
        return phi.evaluate(t) + lo + hi

    def n2_at(t):
        def integrand(e):
            return kernel_value(t, e, B.mu) * (phi.evaluate(e) ** 2 / e**2
                                               if e > 0 else 0.0)
        lo, _ = quad(integrand, 0.0, t, limit=200)
        hi, _ = quad(integrand, t, 1.0, limit=200)
        return s.evaluate(t) - 0.5 * (lo + hi)

    want = sum(n1_at(float(t)) ** 2 + n2_at(float(t)) ** 2 for t in ys)
    want /= grid_size + 1
    got = residual_error(phi, s, q, B, grid_size=grid_size).err
    assert math.isclose(got, want, rel_tol=1e-9)


def test_residual_extended_matches_double():
    state = _load_state(5.0, -0.35)
    for k in (1, 2, 3, 4):
        deformation_step(state, k, B)
    phi, s = state.partial_sums()
    plain = residual_error(phi, s, 5.0, B).err
    ext = residual_error(phi.to_extended(), s.to_extended(), 5.0, B).err
    assert math.isclose(plain, ext, rel_tol=1e-12)


def test_residual_rejects_bad_grid():
    with pytest.raises(ValueError):
        residual_error(PolySeries.zero(), PolySeries.zero(), 0.0, B, grid_size=0)
