"""Deformation-order machinery: hand-worked low orders, ordering guards,
truncation behavior, pass collapsing, the mean-square residual and its
bound, and the
array core checked bit for bit against the ``PolySeries`` reference
recurrence of ``oracles``."""

import math
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from vkplate import given_deflection, given_load, ham
from vkplate.config import DIVERGENCE_ERR, GRID, IterateMode, SeriesMode
from vkplate.ham import (
    HomotopyState,
    OrderingError,
    _membrane_base,
    _slope_base,
    deformation_step,
    homotopy_passes,
    iterate_pass,
    residual_error,
    staggered_pass,
)
from vkplate.diagnostics import solve_problem
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_load import GivenLoadProblem
from vkplate.kernels import (
    BOUNDARY_KINDS,
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    kernel_map,
)
from vkplate.polyseries import PolySeries, convolve, multiply, over_y_squared, widen

import oracles
from oracles import kernel_value

B = BoundarySpec()  # clamped, nu = 0.3
ZERO = PolySeries(np.zeros(1))


def _load_state(load, c0):
    return HomotopyState([forcing(B, load * c0)], [np.zeros(1)], c0, c0, load)


def _deflection_state(a, c0):
    phi0 = forcing(B, -4.0 * a / (2.0 * B.lam + 1.0))
    return HomotopyState([phi0], [np.zeros(1)], c0, c0)


def _series(terms):
    """Terms of a state as ``PolySeries``."""
    return [PolySeries.from_array(t) for t in terms]


def _partial_sums(state):
    """The partial sums of both series, added in order as ``PolySeries``."""
    return tuple(reduce(PolySeries.__add__, _series(terms))
                 for terms in (state.phi_terms, state.s_terms))


def test_first_order_slope_rhs_closed_form():
    # with s0 = 0 the first slope right-hand side collapses to
    # (1 + c0) * forcing(B, Q); the first order inherits no phi0 term,
    # so the step stores exactly c0 times it
    q, c0 = 5.0, -0.35
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    want = forcing(B, q * (1.0 + c0) * c0)
    assert np.allclose(state.phi_terms[1], want, rtol=1e-14)


def test_control_value_minus_one_gives_vanishing_first_update():
    state = _load_state(5.0, -1.0)
    deformation_step(state, 1, B)
    assert not state.phi_terms[1].any()


def test_first_order_membrane_rhs_closed_form():
    q, c0 = 3.0, -0.4
    state = _load_state(q, c0)
    d2 = _membrane_base(state.phi_terms, state.s_terms, 1, B, cap=None)
    lf = PolySeries(forcing(B))
    sq = multiply(lf, lf).scaled((q * c0) ** 2)
    want = apply_membrane_kernel(sq.divided_by_y_squared(), B).scaled(-0.5)
    assert np.allclose(d2, want.coeffs, rtol=1e-14)
    deformation_step(state, 1, B)
    assert np.allclose(state.s_terms[1], want.scaled(c0).coeffs,
                       rtol=1e-14)


def test_second_order_slope_rhs_assembly():
    q, c0 = 2.0, -0.5
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    phi0, phi1 = _series(state.phi_terms)
    s1 = PolySeries(state.s_terms[1])
    # s0 = 0, so the coupling sum at order 2 is phi0 * s1 alone;
    # no forcing appears past the first order in prescribed-load mode
    want = phi1 + apply_slope_kernel(
        multiply(phi0, s1).divided_by_y_squared(), B
    )
    got = _slope_base(state.phi_terms, state.s_terms, 2, B, cap=None)
    assert np.allclose(got, want.coeffs, rtol=1e-13, atol=1e-16)
    deformation_step(state, 2, B)
    assert np.allclose(state.phi_terms[2],
                       (phi1 + want.scaled(c0)).coeffs, rtol=1e-13, atol=1e-16)


def test_inheritance_from_second_order_on():
    # every order past the first adds its update to the previous term
    q, c0 = 2.0, -0.5
    state = _load_state(q, c0)
    deformation_step(state, 1, B)
    for k in range(2, 8):
        # no forcing past order 1
        d1 = PolySeries(_slope_base(state.phi_terms, state.s_terms, k, B, cap=None))
        d2 = PolySeries(_membrane_base(state.phi_terms, state.s_terms, k, B, cap=None))
        deformation_step(state, k, B)
        want_phi = PolySeries(state.phi_terms[k - 1]) + d1.scaled(c0)
        want_s = PolySeries(state.s_terms[k - 1]) + d2.scaled(c0)
        assert np.allclose(state.phi_terms[k], want_phi.coeffs, rtol=1e-13)
        assert np.allclose(state.s_terms[k], want_s.coeffs, rtol=1e-13)


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
        assert PolySeries(state.phi_terms[0]).integral_over_y() == -a


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
        d1 = PolySeries(_slope_base(state.phi_terms, state.s_terms, k, B, cap=None)
                        ) + PolySeries(forcing(B, state.q_terms[k - 1]))
        assert abs(d1.integral_over_y()) < 1e-12
        assert abs(PolySeries(state.phi_terms[k]).integral_over_y()) < 1e-12


def test_truncation_caps_stored_degrees():
    n = 8
    state = _load_state(5.0, -0.6)
    for k in (1, 2, 3, 4):
        deformation_step(state, k, B, truncation=n)
        assert len(state.phi_terms[k]) - 1 <= n
        assert len(state.s_terms[k]) - 1 <= n


def test_truncated_step_matches_full_step_truncated_at_low_order():
    # at the first order no degree exceeds the cap, so both paths agree
    full = _load_state(5.0, -0.6)
    capped = _load_state(5.0, -0.6)
    deformation_step(full, 1, B)
    deformation_step(capped, 1, B, truncation=50)
    assert np.allclose(full.phi_terms[1], capped.phi_terms[1], rtol=1e-15)


def test_truncated_deflection_step_keeps_side_condition():
    state = _deflection_state(5.0, -0.5)
    for k in (1, 2, 3, 4, 5):
        deformation_step(state, k, B, truncation=20)
        phi, _ = _partial_sums(state)
        assert abs(phi.integral_over_y() + 5.0) < 1e-12


def test_negative_truncation_is_rejected():
    # a negative cut used to give a wrong slope term and an empty membrane
    # term here, and an uncut slope in the staggered pass; a cut at 0 or 1
    # stored degree-2 terms, since the guess and the forcing have degree 2
    for n in (-1, 0, 1):
        state = _load_state(5.0, -0.6)
        with pytest.raises(ValueError):
            deformation_step(state, 1, B, truncation=n)
        assert state.q_terms == [] and len(state.phi_terms) == 1
        with pytest.raises(ValueError):
            staggered_pass(state, B, truncation=n)


def test_iterate_pass_collapses_partial_sums():
    state = _load_state(5.0, -0.6)
    fresh = iterate_pass(state, 3, 30, B)
    want_phi, want_s = _partial_sums(state)
    assert np.allclose(fresh.phi_terms[0], want_phi.coeffs, rtol=1e-15)
    assert np.allclose(fresh.s_terms[0], want_s.coeffs, rtol=1e-15)
    assert state.q_terms == [5.0, 0.0, 0.0]
    assert len(fresh.phi_terms) == 1 and fresh.q_terms == [] and fresh.q == 5.0


def test_iterate_pass_reports_load_estimate():
    # the finished pass holds its load terms and reports their sum; the
    # fresh state starts the next pass with none, still in
    # prescribed-deflection mode
    state = _deflection_state(5.0, -0.5)
    fresh = iterate_pass(state, 2, 40, B)
    assert len(state.q_terms) == 2
    assert state.q == math.fsum(state.q_terms)
    assert fresh.load is None and fresh.q_terms == [] and fresh.q == 0.0
    state = _deflection_state(5.0, -0.5)
    mode = IterateMode(order=2, truncation=40, max_iter=1)
    [(_, _, _, _, q)] = homotopy_passes(state, mode, B)
    assert q == math.fsum(state.q_terms) != 0.0


def test_default_pass_is_looked_up_when_a_solve_runs(monkeypatch):
    # a wrapper bound to ham.iterate_pass after import (as the benchmark's
    # tracer binds one) runs every pass of an iterate solve
    orders = []

    def wrapped(state, order, truncation, boundary):
        orders.append(order)
        return iterate_pass(state, order, truncation, boundary)

    monkeypatch.setattr(ham, "iterate_pass", wrapped)
    mode = IterateMode(order=2, truncation=30, tol=1e-30, max_iter=3)
    problem = GivenLoadProblem.with_c0(5.0, -0.5, mode)
    rep = ham.solve(problem, forcing(B, -2.5), {})
    assert orders == [2, 2, 2] and rep.iterations == 3


def test_a_load_series_yields_its_guess_first():
    # a load series scores its guess as order 0; a deflection guess has no
    # load term yet, so its stream starts at order 1
    state = _load_state(5.0, -0.5)
    guess = state.phi_terms[0]
    passes = list(homotopy_passes(state, SeriesMode(2), B))
    assert [p[1] for p in passes] == [0, 1, 2]
    assert passes[0][0] == 0 and passes[0][4] == 5.0
    assert np.array_equal(passes[0][2].array, guess)
    passes = homotopy_passes(_deflection_state(5.0, -0.5), SeriesMode(2), B)
    assert [p[1] for p in passes] == [1, 2]


@pytest.mark.parametrize("solve, problem, records", [
    (given_deflection.solve, GivenDeflectionProblem.with_c0(5.0, -0.5, IterateMode(max_iter=5)), 5),
    (given_deflection.solve, GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(4)), 4),
    (given_load.solve, GivenLoadProblem.with_c0(5.0, -0.5, SeriesMode(4)), 5),
], ids=["deflection-iterate", "deflection-series", "load-series"])
def test_each_record_integrates_its_slope_once(monkeypatch, solve, problem, records):
    # run_passes takes W(0) once per pass and hands it to the deflection
    # guard, which integrates nothing itself
    calls = []
    real = PolySeries.integral_over_y

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(PolySeries, "integral_over_y", counted)
    rep = solve(problem)
    assert len(calls) == len(rep.history) == records


def test_staggered_pass_adopts_membrane_update_first():
    q, theta = 5.0, 0.5
    phi0 = PolySeries(forcing(B, -theta * q))
    state = HomotopyState([phi0.array], [np.zeros(1)], -theta, -1.0, q)
    nxt = staggered_pass(state, B)
    # manual: psi = G-image of phi0**2 / (2 y**2); then the slope update
    # sees that psi, not the stale zero
    psi = apply_membrane_kernel(
        multiply(phi0, phi0).divided_by_y_squared(), B
    ).scaled(0.5)
    want_phi = phi0.scaled(1.0 - theta) + apply_slope_kernel(
        multiply(phi0, psi).divided_by_y_squared(), B
    ).scaled(-theta) + PolySeries(forcing(B, -theta * q))
    assert np.allclose(nxt.s_terms[0], psi.coeffs, rtol=1e-13)
    assert np.allclose(nxt.phi_terms[0], want_phi.coeffs, rtol=1e-13,
                       atol=1e-16)


def test_staggered_pass_rejects_deflection_states():
    with pytest.raises(OrderingError):
        staggered_pass(_deflection_state(1.0, -0.5), B)


def test_residual_zero_for_zero_load_zero_solution():
    assert residual_error(ZERO, ZERO, 0.0, B) == 0.0


def test_residuals_vanish_at_origin():
    state = _load_state(5.0, -0.35)
    for k in (1, 2, 3):
        deformation_step(state, k, B)
    phi, s = _partial_sums(state)
    # at y = 0 each operator is the sum of its terms' constant coefficients:
    # the partial sums', the kernel images' and the load image's, all zero
    assert phi.array[0] == 0.0 and s.array[0] == 0.0
    for f, w in ((convolve(phi.array, s.array), B.lam),
                 (convolve(phi.array, phi.array), B.mu)):
        assert kernel_map(over_y_squared(f), w)[0] == 0.0
    assert forcing(B, 5.0)[0] == 0.0


def test_residual_against_quadrature_oracle():
    # independent evaluation of both operators at a handful of points
    rng = np.random.default_rng(83)
    phi = PolySeries(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 4)]))
    s = PolySeries(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 3)]))
    q = 2.0
    ys = np.linspace(0.0, 1.0, GRID + 1)

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
    want /= GRID + 1
    got = residual_error(phi, s, q, B)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_residual_extended_matches_double():
    state = _load_state(5.0, -0.35)
    for k in (1, 2, 3, 4):
        deformation_step(state, k, B)
    phi, s = _partial_sums(state)
    plain = residual_error(phi, s, 5.0, B)
    ext = residual_error(*(PolySeries.from_array(widen(p.array)) for p in (phi, s)),
                         5.0, B)
    assert math.isclose(plain, ext, rel_tol=1e-12)


def test_extended_residual_peak_memory():
    # an N = 100 iterate pair, its grid tables already built: with Estrin's
    # scheme as its grid evaluation this residual peaked at 339,245-339,359
    # bytes above entry (numpy 2.4, Python 3.11); the two-level Dot2 at 337,113
    import tracemalloc

    mode = IterateMode(order=5, truncation=100, tol=1e-24, max_iter=3)
    problem = GivenDeflectionProblem.with_c0(5.0, -0.5, mode, precision="extended")
    report = solve_problem(problem)
    assert len(report.phi.coeffs) == len(report.s.coeffs) == 101
    args = (report.phi, report.s, report.q, problem.boundary)
    residual_error(*args)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        residual_error(*args)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 339_359


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
def test_residual_bound_holds_at_every_scored_order(monkeypatch, kind, precision):
    # every pair a full series run scores, converging and diverging, load
    # and deflection; the largest err / bound seen here is 0.40
    pairs = []
    real = ham.residual_error

    def scored(phi, s, q, boundary):
        err = real(phi, s, q, boundary)
        pairs.append((err, ham.residual_bound(phi, s, q, boundary)))
        return err

    monkeypatch.setattr(ham, "residual_error", scored)
    b = BoundarySpec(kind)
    for problem, target, c0 in ((GivenLoadProblem, 5.0, -0.35),
                                (GivenLoadProblem, 5.0, -0.05),
                                (GivenLoadProblem, 1000.0, -1.99),
                                (GivenDeflectionProblem, 5.0, -0.25),
                                (GivenDeflectionProblem, 5.0, -0.9)):
        solve_problem(problem.with_c0(target, c0, SeriesMode(20), boundary=b,
                                      precision=precision))
    assert len(pairs) >= 75
    assert max(err for err, _ in pairs) > DIVERGENCE_ERR
    assert all(err <= bound for err, bound in pairs)


def test_coupling_sum_without_y_squared_factor_raises():
    # a slope guess with a constant term gives a coupling sum that does
    # not vanish to second order at 0, a structural bug reported as such
    state = HomotopyState([np.array([1.0, 0.5])], [np.array([0.5, 0.0])], -0.5, -0.5, 1.0)
    with pytest.raises(ValueError, match=r"y\*\*2 factor"):
        deformation_step(state, 1, B)


def _reference_pair(mode, precision, boundary, c0=-0.4):
    """One starting state twice: arrays for the core, PolySeries for the oracle."""
    if mode == "load":
        load, phi0 = 5.0, forcing(boundary, 5.0 * c0)
    else:  # center deflection 3
        load, phi0 = None, forcing(boundary, -4.0 * 3.0 / (2.0 * boundary.lam + 1.0))
    s0 = np.zeros(1)
    if precision == "extended":
        phi0, s0 = widen(phi0), widen(s0)
    return (HomotopyState([phi0], [s0], c0, c0, load),
            HomotopyState([PolySeries.from_array(phi0)], [PolySeries.from_array(s0)],
                          c0, c0, load))


def _assert_terms_equal(state, ref):
    for got, want in zip(state.phi_terms + state.s_terms, ref.phi_terms + ref.s_terms,
                         strict=True):
        assert np.array_equal(got, want.array)
    assert np.array_equal(state.q_terms, ref.q_terms)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
@pytest.mark.parametrize("mode", ["load", "deflection"])
@pytest.mark.parametrize("truncation", [None, 6])
def test_array_core_matches_reference_recurrence(truncation, mode, kind, precision):
    # six orders: at truncation 6 the products outgrow the cap within
    # them, so both the capped convolution and the cut act
    boundary = BoundarySpec(kind)
    state, ref = _reference_pair(mode, precision, boundary)
    for k in range(1, 7):
        deformation_step(state, k, boundary, truncation)
        oracles.deformation_step(ref, k, boundary, truncation)
        _assert_terms_equal(state, ref)
    if truncation is not None:
        assert max(len(t.coeffs) for t in ref.phi_terms) == truncation + 1
    # a pass collapses into the in-order sums of its terms
    state, ref = _reference_pair(mode, precision, boundary)
    fresh = iterate_pass(state, 3, truncation, boundary)
    for k in range(1, 4):
        oracles.deformation_step(ref, k, boundary, truncation)
    want_phi = reduce(PolySeries.__add__, ref.phi_terms)
    want_s = reduce(PolySeries.__add__, ref.s_terms)
    assert np.array_equal(fresh.phi_terms[0], want_phi.array)
    assert np.array_equal(fresh.s_terms[0], want_s.array)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("truncation", [None, 6])
def test_staggered_pass_matches_reference(truncation, precision):
    boundary = BoundarySpec("hinged")
    state, ref = _reference_pair("load", precision, boundary, c0=-0.3)
    for _ in range(4):
        state = staggered_pass(state, boundary, truncation)
        ref = oracles.staggered_pass(ref, boundary, truncation)
        _assert_terms_equal(state, ref)
