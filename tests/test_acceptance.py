"""End-to-end acceptance runs for the plate solver.

Each test covers one published-behavior claim at its stated tolerance
and prints a single [PASS]/[FAIL] line with the measured values (visible
with -s, and in the failure report otherwise).
"""

import math
import time

import numpy as np

from vkplate.config import IterateMode, SeriesMode
from vkplate.diagnostics import compare_orders, sweep_c0
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_deflection import empirical_c0 as empirical_c0_a
from vkplate.given_deflection import solve as solve_deflection
from vkplate.given_load import GivenLoadProblem
from vkplate.given_load import empirical_c0 as empirical_c0_q
from vkplate.given_load import solve as solve_load
from vkplate.interpolation import solve as solve_baseline
from vkplate.kernels import (
    BOUNDARY_KINDS,
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    kernel_map,
)
from vkplate.physics import deflection_scale
from vkplate.polyseries import (
    PolySeries,
    convolve,
    deflection_series,
    multiply,
    over_y_squared,
)

import oracles
from oracles import kernel_value


def _check(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _iterate(max_iter=500, tol=1e-12):
    return IterateMode(order=5, truncation=100, tol=tol, max_iter=max_iter)


def test_series_residual_decay_at_moderate_load():
    t0 = time.perf_counter()
    rep = solve_load(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(50)))
    errs = {rec.iteration: rec.err for rec in rep.history}
    whs = {rec.iteration: rec.w0_over_h for rec in rep.history}
    expected = {10: 3.3e-4, 20: 6.5e-5, 30: 1.1e-5, 40: 1.6e-6, 50: 1.7e-7}
    ok = all(want / 10 <= errs[n] <= want * 10 for n, want in expected.items())
    ok = ok and all(abs(whs[n] - 0.62) <= 0.005 for n in (20, 30, 40, 50))
    detail = ("err " + " ".join(f"{n}:{errs[n]:.2e}" for n in expected)
              + " w0/h " + " ".join(f"{n}:{whs[n]:.4f}" for n in (20, 30, 40, 50))
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("series residual decay at load 5", ok, detail)


def test_small_load_center_deflections():
    t0 = time.perf_counter()
    expected = {1.0: 0.15, 2.0: 0.29, 3.0: 0.41, 4.0: 0.53, 5.0: 0.62}
    got = {}
    for q, want in expected.items():
        rep = solve_load(GivenLoadProblem.with_c0(q, empirical_c0_q(q),
                                                  SeriesMode(50)))
        got[q] = rep.w0_over_h
    ok = all(abs(got[q] - want) <= 0.01 for q, want in expected.items())
    detail = (" ".join(f"Q={q:g}:{got[q]:.4f}" for q in expected)
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("center deflection vs small loads", ok, detail)


def test_large_load_iteration_residuals():
    t0 = time.perf_counter()
    rep = solve_load(GivenLoadProblem.with_c0(
        1000.0, -0.02, _iterate(max_iter=100, tol=1e-30)))
    errs = {rec.iteration: rec.err for rec in rep.history}
    ok = errs[20] <= 2e-1 and errs[100] <= 1e-8
    ok = ok and abs(rep.w0_over_h - 6.1) <= 0.05
    detail = (f"err 20:{errs[20]:.3e} 100:{errs[100]:.3e} "
              f"w0/h {rep.w0_over_h:.4f} ({time.perf_counter() - t0:.1f}s)")
    _check("iteration residual decay at load 1000", ok, detail)


def test_large_load_family_center_deflections():
    t0 = time.perf_counter()
    expected = {200.0: 3.5, 400.0: 4.5, 600.0: 5.2, 800.0: 5.7, 1000.0: 6.1}
    got = {}
    for q, want in expected.items():
        rep = solve_load(GivenLoadProblem.with_c0(
            q, empirical_c0_q(q, iterated=True), _iterate()))
        got[q] = rep.w0_over_h
    ok = all(abs(got[q] - want) <= 0.05 for q, want in expected.items())
    detail = (" ".join(f"Q={q:g}:{got[q]:.3f}" for q in expected)
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("center deflection vs large loads", ok, detail)


def test_prescribed_deflection_fast_convergence():
    t0 = time.perf_counter()
    plain = solve_deflection(GivenDeflectionProblem.with_c0(
        5.0, -0.5, _iterate(max_iter=30, tol=1e-30)))
    errs = {rec.iteration: rec.err for rec in plain.history}
    floor = min(errs.values())
    ext = solve_deflection(GivenDeflectionProblem.with_c0(
        5.0, -0.5, _iterate(max_iter=12, tol=1e-30), precision="extended"))
    ext_errs = {rec.iteration: rec.err for rec in ext.history}
    ok = abs(plain.q - 132.2) <= 0.1
    ok = ok and errs[4] <= 1e-8
    ok = ok and floor <= 1e-24
    ok = ok and ext_errs[10] <= 1e-20
    detail = (f"q {plain.q:.4f}, err@4 {errs[4]:.2e}, floor {floor:.2e}, "
              f"extended err@10 {ext_errs[10]:.2e} "
              f"({time.perf_counter() - t0:.1f}s)")
    _check("fast convergence at deflection 5", ok, detail)


def test_load_recovered_from_small_deflections():
    t0 = time.perf_counter()
    expected = {1.0: 4.8, 2.0: 14.6, 3.0: 35.2, 4.0: 72.4, 5.0: 132.2}
    got = {}
    for a, want in expected.items():
        rep = solve_deflection(GivenDeflectionProblem.with_c0(
            a, empirical_c0_a(a), SeriesMode(50)))
        got[a] = rep.q
    ok = all(abs(got[a] - want) / want <= 0.005 for a, want in expected.items())
    detail = (" ".join(f"a={a:g}:{got[a]:.2f}" for a in expected)
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("load recovered from small deflections", ok, detail)


def test_load_recovered_from_large_deflections():
    t0 = time.perf_counter()
    expected = {5.0: 132.2, 10.0: 957.7, 15.0: 3152.1, 20.0: 7386.9,
                25.0: 14334.1, 30.0: 24665.7}
    got, wh30 = {}, None
    for a, want in expected.items():
        rep = solve_deflection(GivenDeflectionProblem.with_c0(
            a, empirical_c0_a(a, iterated=True), _iterate()))
        got[a] = rep.q
        if a == 30.0:
            wh30 = rep.w0_over_h
    ok = all(abs(got[a] - want) / want <= 0.005 for a, want in expected.items())
    ok = ok and abs(wh30 - 18.2) <= 0.1
    detail = (" ".join(f"a={a:g}:{got[a]:.1f}" for a in expected)
              + f" w0/h(30) {wh30:.3f} ({time.perf_counter() - t0:.1f}s)")
    _check("load recovered from large deflections", ok, detail)


def test_round_trip_through_the_recovered_load():
    # table 7's a = 5, 10, 15: the load solve at the recovered q must put
    # the center back at a, i.e. w0/h = a / sqrt(3 (1 - nu**2)).  Measured
    # gaps 8.9e-8, 6.9e-8 and 5.0e-8 at tol 1e-12 and N = 100; a q off by
    # 1e-6 relative moves w0/h by 1.0e-6 or more
    t0 = time.perf_counter()
    gaps = {}
    ok = True
    for a in (5.0, 10.0, 15.0):
        back = solve_deflection(GivenDeflectionProblem.with_c0(
            a, empirical_c0_a(a, iterated=True), _iterate()))
        fwd = solve_load(GivenLoadProblem.with_c0(
            back.q, empirical_c0_q(back.q, iterated=True), _iterate()))
        gaps[a] = abs(fwd.w0_over_h - a / deflection_scale(0.3))
        ok = ok and back.status == fwd.status == "converged" and gaps[a] <= 2e-7
    detail = (" ".join(f"a={a:g}:{gap:.1e}" for a, gap in gaps.items())
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("round trip a -> q -> w0/h", ok, detail)


def _documented_load_series(load, c0, order, boundary):
    """Order-``order`` partial sums of the prescribed-load series.

    Written from the ``given_load`` and ``ham`` docstrings, not from the
    solver: the guess is phi0 = Q*c0*K[1] with s0 = 0, and for m >= 1
    phi_m = chi_m*phi_(m-1) + c0*R1_(m-1), s_m = chi_m*s_(m-1) + c0*R2_(m-1),
    with chi_1 = 0, chi_m = 1 after, and R_(m-1) the order m-1 part of
    N1 and N2 (the load enters N1 at order 0 only).
    """
    zero = PolySeries(np.zeros(1))
    phi = [PolySeries(forcing(boundary, load * c0))]
    s = [zero]
    for m in range(1, order + 1):
        cross = sum((multiply(phi[i], s[m - 1 - i]) for i in range(m)), zero)
        square = sum((multiply(phi[i], phi[m - 1 - i]) for i in range(m)), zero)
        r1 = phi[m - 1] + apply_slope_kernel(cross.divided_by_y_squared(), boundary)
        if m == 1:
            r1 = r1 + PolySeries(forcing(boundary, load))
        r2 = s[m - 1] + apply_membrane_kernel(square.divided_by_y_squared(),
                                              boundary).scaled(-0.5)
        chi = 0.0 if m == 1 else 1.0
        phi.append(phi[m - 1].scaled(chi) + r1.scaled(c0))
        s.append(s[m - 1].scaled(chi) + r2.scaled(c0))
    return sum(phi, zero), sum(s, zero)


def _quadrature_err(phi, s, load, boundary):
    """Averaged squared N1 and N2 on the 101 uniform points of [0, 1].

    An oracle for ``residual_error`` that shares none of its machinery:
    each kernel integral is taken over ``kernel_value``, split at its
    kink e = y, by Gauss-Legendre rules with enough nodes to be exact
    for the polynomial integrands.
    """
    x, w = np.polynomial.legendre.leggauss(phi.coeffs.size + s.coeffs.size)
    y = np.linspace(0.0, 1.0, 101)[:, None]
    t, w = (x + 1.0) / 2.0, w / 2.0
    e = np.hstack([y * t, y + (1.0 - y) * t])
    we = np.hstack([y * w, (1.0 - y) * w])
    p_e = np.polynomial.polynomial.polyval(e, phi.coeffs)
    s_e = np.polynomial.polynomial.polyval(e, s.coeffs)
    e2 = np.where(e > 0.0, e * e, 1.0)  # the y = 0 row has zero weights
    k_lam = np.vectorize(kernel_value)(y, e, boundary.lam)
    k_mu = np.vectorize(kernel_value)(y, e, boundary.mu)
    n1 = (np.polynomial.polynomial.polyval(y[:, 0], phi.coeffs)
          + np.sum(we * k_lam * (p_e * s_e / e2 + load), axis=1))
    n2 = (np.polynomial.polynomial.polyval(y[:, 0], s.coeffs)
          - 0.5 * np.sum(we * k_mu * p_e * p_e / e2, axis=1))
    return float(np.mean(n1 * n1 + n2 * n2))


def test_control_sweep_minima():
    # Both sweeps set c1 = c2 = c0 per grid point (the single-control
    # convention) at order 20.  Order 20 is not converged over the whole
    # grid: the load err is 9.9e2 at -1.00 and the deflection points at
    # -1.00...-0.85 are diverged.  Both still enter the minimum, which
    # drops only non-finite residuals.
    #
    # The fixed-order residual oscillates in c0, so a 0.05 grid samples
    # its valleys unevenly: at a = 5 it dips to 2.0e-3 at -0.29 and to
    # 2.6e-3 at -0.42, and the grid sees 4.3e-3 at -0.30 against 2.0e-2
    # at -0.40.
    #
    # The load-5 minimum is the one of the documented scheme, built and
    # scored here independently of the solver.  At c0 = -0.35 that
    # scheme gives the reference's order-20 residual 6.5e-5, so it is
    # the reference's scheme.  The reference's location -0.35 +- 0.1 and
    # the fitted -13/(13 + Q**2) are printed beside it; the README says
    # why neither is this scheme's minimum.
    t0 = time.perf_counter()
    grid = [round(c, 2) for c in np.arange(-1.0, -0.04, 0.05)]
    q_sweep = sweep_c0(GivenLoadProblem.with_c0(5.0, -0.5, SeriesMode(20)), grid)
    a_best = sweep_c0(GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(20)),
                      grid).best.c0
    b = BoundarySpec()
    oracle = {c0: _quadrature_err(*_documented_load_series(5.0, c0, 20, b), 5.0, b)
              for c0 in grid}
    gap = max(abs(p.err / oracle[p.c0] - 1.0) for p in q_sweep.points)
    q_best = q_sweep.best.c0
    o_best = min(oracle, key=oracle.get)
    q_ok = (gap <= 1e-9 and q_best == o_best
            and f"{oracle[-0.35]:.1e}" == "6.5e-05")
    a_ok = abs(a_best - (-0.25)) <= 0.1
    detail = (f"load-5 argmin {q_best:+.2f} (oracle {o_best:+.2f}, gap "
              f"{gap:.1e}, oracle err at -0.35 {oracle[-0.35]:.2e} want 6.5e-05, "
              f"{'ok' if q_ok else 'MISS'}; reference -0.35, fitted "
              f"{empirical_c0_q(5.0):+.3f}); deflection-5 argmin {a_best:+.2f} "
              f"(want -0.25+-0.1, {'ok' if a_ok else 'MISS'}) "
              f"({time.perf_counter() - t0:.1f}s)")
    _check("control sweep minima", q_ok and a_ok, detail)


def test_baseline_equivalence_theorem():
    t0 = time.perf_counter()
    gaps = {}
    for q, theta in ((5.0, 0.35), (132.2, 0.1)):
        gaps[(q, theta)] = max(oracles.grid_gap(ours, ref)
                               for pairs in oracles.baseline_sweeps(q, theta, 50, 100)
                               for ours, ref in pairs)
    ok = all(g <= 1e-12 for g in gaps.values())
    detail = (" ".join(f"(Q={q:g},theta={t:g}):{g:.2e}"
                       for (q, t), g in gaps.items())
              + f" ({time.perf_counter() - t0:.1f}s)")
    _check("baseline equals staggered first-order iteration", ok, detail)


def test_pass_order_monotonicity_and_baseline_speed():
    t0 = time.perf_counter()
    comp = compare_orders(
        GivenLoadProblem.with_c0(132.2, -0.15, _iterate()), (1, 2, 3, 4, 5))
    reached = {m: run.iterations_to(1e-10) for m, run in comp.items()}
    mono = None not in reached.values() and all(
        reached[m] >= reached[m + 1] for m in range(1, 5))
    ham = solve_deflection(GivenDeflectionProblem.with_c0(5.0, -0.5, _iterate()))
    base = solve_baseline(132.2, 0.1, IterateMode(order=1, truncation=100, tol=1e-8))
    ham_iters = ham.iterations_to(1e-8)
    base_iters = base.iterations_to(1e-8)
    faster = (ham_iters is not None and base_iters is not None
              and ham_iters < base_iters)
    ok = mono and faster
    detail = (f"iters-to-1e-10 {reached}; deflection-mode {ham_iters} vs "
              f"baseline {base_iters} to 1e-8 ({time.perf_counter() - t0:.1f}s)")
    _check("higher pass order never slower; baseline slower than both", ok,
           detail)


def test_operator_oracles_and_invariants():
    from scipy.integrate import quad

    t0 = time.perf_counter()
    ok, notes = True, []

    # closed-form kernel images against direct quadrature
    worst = 0.0
    for kind in BOUNDARY_KINDS:
        b = BoundarySpec(kind)
        for m in (0, 3, 10):
            mono = PolySeries([0.0] * m + [1.0])
            for op, w in ((apply_slope_kernel, b.lam),
                          (apply_membrane_kernel, b.mu)):
                image = op(mono, b)
                for y in (0.0, 0.3, 0.7, 1.0):
                    lo, _ = quad(lambda e: kernel_value(y, e, w) * e**m,
                                 0.0, y)
                    hi, _ = quad(lambda e: kernel_value(y, e, w) * e**m,
                                 y, 1.0)
                    worst = max(worst, abs(image.evaluate(y) - (lo + hi)))
    ok = ok and worst <= 1e-10
    notes.append(f"kernel-vs-quadrature {worst:.1e}")

    # linearity of the integral operators
    rng = np.random.default_rng(911)
    b = BoundarySpec("hinged")
    f = PolySeries(rng.uniform(-1, 1, 8))
    g = PolySeries(rng.uniform(-1, 1, 5))
    lin = apply_slope_kernel(f.scaled(1.5) + g.scaled(-2.0), b) \
        + (apply_slope_kernel(f, b).scaled(1.5)
           + apply_slope_kernel(g, b).scaled(-2.0)).scaled(-1.0)
    lin_err = max((abs(c) for c in lin.coeffs), default=0.0)
    ok = ok and lin_err <= 1e-13
    notes.append(f"linearity {lin_err:.1e}")

    # side condition held at every recorded step of deflection-mode runs
    defects = []
    for problem in (
        GivenDeflectionProblem.with_c0(5.0, -0.25, SeriesMode(30)),
        GivenDeflectionProblem.with_c0(5.0, -0.5, _iterate(max_iter=30)),
    ):
        defects.append(solve_deflection(problem).restriction_defect)
    ok = ok and max(defects) <= 1e-10
    notes.append(f"restriction defect {max(defects):.1e}")

    # edge deflection exactly zero; both residuals exactly zero on the axis
    rep = solve_load(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(30)))
    w_edge = deflection_series(rep.phi).evaluate(1.0)
    # at y = 0 each operator is the sum of its terms' constant coefficients
    b = BoundarySpec()
    phi, s = rep.phi.array, rep.s.array
    axis = [phi[0], s[0], forcing(b, 5.0)[0],
            kernel_map(over_y_squared(convolve(phi, s)), b.lam)[0],
            kernel_map(over_y_squared(convolve(phi, phi)), b.mu)[0]]
    ok = ok and w_edge == 0.0
    ok = ok and not any(axis)
    notes.append(f"edge W {w_edge:g}, axis terms {max(map(abs, axis)):g}")

    # deflection mode and load mode agree through the shared load value
    back = solve_deflection(GivenDeflectionProblem.with_c0(5.0, -0.5, _iterate()))
    fwd = solve_load(GivenLoadProblem.with_c0(back.q, -0.15, _iterate()))
    scale = deflection_scale(0.3)
    cross = abs(fwd.w0_over_h - 5.0 / scale)
    ok = ok and cross <= 1e-6
    notes.append(f"cross-mode gap {cross:.1e}")

    detail = "; ".join(notes) + f" ({time.perf_counter() - t0:.1f}s)"
    _check("operator oracles and structural invariants", ok, detail)
