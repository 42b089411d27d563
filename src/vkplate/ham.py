"""Homotopy-series machinery for the plate equations.

The integral-form plate system couples a slope series ``phi`` (y times
the deflection gradient) and a membrane-force series ``s`` through

    N1(phi, s) = phi + K[(phi * s) / y**2] + Q * K[1]        (slope)
    N2(phi, s) = s - (1/2) * G[(phi * phi) / y**2]           (membrane)

where K and G are the closed-form kernel maps of :mod:`.kernels` and a
solution drives both operators to zero.  The homotopy construction
turns that into a triangular sequence of deformation equations:
``deformation_step`` builds order k from the slope and membrane
right-hand sides of the orders below k, scaled by the control values
``c1`` and ``c2``.  The first order carries the full forcing and
inherits nothing; later orders inherit the previous term unchanged.

Two consumption patterns sit on top of the raw stepping
(``homotopy_passes``):

* a plain series: run orders 1..n once and sum, and
* an iterated scheme (``iterate_pass``): run a small number of orders
  with all right-hand sides truncated to a fixed degree, collapse the
  partial sums into a fresh zeroth-order state, and repeat until the
  residual is small.

In prescribed-deflection mode each order also determines one term of
the load expansion from the side condition that the weighted integral
of every correction vanishes, keeping the center deflection pinned.

``run_passes`` is the one solve loop: it scores every pass a solver
yields with ``residual_error``, records it, stops on divergence or
tolerance, and builds the run report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import ddouble as dd
from .config import IterateMode
from .kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing_integral,
    load_forcing,
)
from .physics import w_over_h
from .polyseries import PolySeries, deflection_series, multiply, poly_sum
from .report import IterationRecord, RunReport


class OrderingError(RuntimeError):
    """A deformation order was requested out of sequence."""


@dataclass
class HomotopyState:
    """Solution terms accumulated through some deformation order.

    ``phi_terms[k]`` / ``s_terms[k]`` hold order k of the two series.
    ``q_terms`` is the load expansion: a frozen single entry in
    prescribed-load mode, one solved entry per order in
    prescribed-deflection mode.
    """

    phi_terms: list
    s_terms: list
    q_terms: list
    c1: float
    c2: float
    fixed_load: bool
    target_deflection: float | None = None
    load_estimate: float = 0.0

    @classmethod
    def for_load(cls, phi0, s0, load, c1, c2):
        return cls([phi0], [s0], [load], c1, c2, fixed_load=True,
                   load_estimate=load)

    @classmethod
    def for_deflection(cls, phi0, s0, deflection, c1, c2):
        return cls([phi0], [s0], [], c1, c2, fixed_load=False,
                   target_deflection=deflection)

    @property
    def order(self) -> int:
        return len(self.phi_terms) - 1

    def partial_sums(self):
        return poly_sum(self.phi_terms), poly_sum(self.s_terms)


def _scaled_forcing(boundary, coef, extended):
    lf = load_forcing(boundary)
    if extended:
        lf = lf.to_extended()
    return lf.scaled(coef)


def _cross_sum(phi_terms, s_terms, k, cap):
    """Convolution sum phi_i * s_(k-1-i) over i = 0..k-1, capped in degree."""
    acc = None
    for i in range(k):
        p = multiply(phi_terms[i], s_terms[k - 1 - i], max_degree=cap)
        acc = p if acc is None else acc + p
    return acc


def _square_sum(phi_terms, k, cap):
    """Convolution sum phi_i * phi_(k-1-i); symmetric pairs share one product."""
    acc = None
    for i in range(k):
        j = k - 1 - i
        if i > j:
            break
        p = multiply(phi_terms[i], phi_terms[j], max_degree=cap)
        if i != j:
            p = p.scaled(2.0)
        acc = p if acc is None else acc + p
    return acc


def _slope_base(state, k, boundary, cap):
    """phi_(k-1) plus the kernel image of the coupling sum (no forcing)."""
    prod = _cross_sum(state.phi_terms, state.s_terms, k, cap)
    return state.phi_terms[k - 1] + apply_slope_kernel(
        prod.divided_by_y_squared(), boundary
    )


def _membrane_base(state, k, boundary, cap):
    """s_(k-1) minus half the kernel image of the slope self-coupling."""
    sq = _square_sum(state.phi_terms, k, cap)
    return state.s_terms[k - 1] - apply_membrane_kernel(
        sq.divided_by_y_squared(), boundary
    ).scaled(0.5)


def deformation_step(state: HomotopyState, k: int, boundary: BoundarySpec,
                     truncation: int | None = None):
    """Extend the state by deformation order k.

    With ``truncation`` set, coupling products are computed only up to
    degree truncation + 2 and both right-hand sides are cut at the
    truncation degree before use, which caps all stored degrees.  In
    prescribed-deflection mode the load term is solved from the
    truncated assembly, so the side condition holds exactly (to
    rounding) for the series that is actually stored.
    """
    if len(state.phi_terms) != k or len(state.s_terms) != k:
        raise OrderingError(
            f"step to order {k} expects exactly orders 0..{k - 1} present"
        )
    cap = None if truncation is None else truncation + 2
    ext = state.phi_terms[0].extended

    base = _slope_base(state, k, boundary, cap)
    if truncation is not None:
        base = base.truncated(truncation)
    if state.fixed_load:
        coef = state.q_terms[0] if k == 1 else 0.0
    else:
        if len(state.q_terms) != k - 1:
            raise OrderingError("load terms out of sequence")
        coef = -base.integral_over_y() / forcing_integral(boundary)
        state.q_terms.append(coef)
    d1 = base if coef == 0.0 else base + _scaled_forcing(boundary, coef, ext)

    d2 = _membrane_base(state, k, boundary, cap)
    if truncation is not None:
        d2 = d2.truncated(truncation)

    if k == 1:  # the first order inherits no earlier term
        phi_k = d1.scaled(state.c1)
        s_k = d2.scaled(state.c2)
    else:
        phi_k = state.phi_terms[k - 1] + d1.scaled(state.c1)
        s_k = state.s_terms[k - 1] + d2.scaled(state.c2)
    state.phi_terms.append(phi_k)
    state.s_terms.append(s_k)
    return phi_k, s_k


def iterate_pass(state: HomotopyState, order: int, truncation: int | None,
                 boundary: BoundarySpec) -> HomotopyState:
    """Run one deformation pass and collapse it into a fresh state.

    The input state is extended in place through the requested order;
    the returned state has the partial sums as its new zeroth-order
    terms and, in prescribed-deflection mode, carries the load estimate
    (the summed load expansion) of the completed pass.
    """
    if order < 1:
        raise OrderingError(f"pass order must be >= 1, got {order}")
    for k in range(1, order + 1):
        deformation_step(state, k, boundary, truncation)
    phi0, s0 = state.partial_sums()
    if state.fixed_load:
        return HomotopyState.for_load(phi0, s0, state.q_terms[0],
                                      state.c1, state.c2)
    fresh = HomotopyState.for_deflection(phi0, s0, state.target_deflection,
                                         state.c1, state.c2)
    fresh.load_estimate = math.fsum(state.q_terms)
    return fresh


def homotopy_passes(state: HomotopyState, mode, boundary: BoundarySpec):
    """Yield ``(iteration, order, phi, s, q)`` after each order or pass.

    A ``SeriesMode`` yields the running partial sums after orders
    1..order; an ``IterateMode`` yields the collapsed state after each
    pass, up to the pass budget.  ``q`` is the load the pair is scored
    against: the prescribed load, or the summed load expansion so far.
    """
    if isinstance(mode, IterateMode):
        for it in range(1, mode.max_iter + 1):
            state = iterate_pass(state, mode.order, mode.truncation, boundary)
            yield (it, it * mode.order, state.phi_terms[0], state.s_terms[0],
                   state.load_estimate)
        return
    phi, s = state.phi_terms[0], state.s_terms[0]
    for k in range(1, mode.order + 1):
        deformation_step(state, k, boundary)
        phi = phi + state.phi_terms[k]
        s = s + state.s_terms[k]
        q = state.q_terms[0] if state.fixed_load else math.fsum(state.q_terms)
        yield k, k, phi, s, q


def staggered_pass(state: HomotopyState, boundary: BoundarySpec,
                   truncation: int | None = None) -> HomotopyState:
    """First-order pass with the membrane update adopted before the slope one.

    Updating ``s`` first and letting the slope equation see the updated
    value reproduces, with c1 = -theta and c2 = -1, the classical
    interpolation iteration step; this is the schedule the equivalence
    check drives.
    """
    if not state.fixed_load:
        raise OrderingError("staggered pass is defined for prescribed-load states")
    cap = None if truncation is None else truncation + 2
    d2 = _membrane_base(state, 1, boundary, cap)
    if truncation is not None:
        d2 = d2.truncated(truncation)
    s_star = state.s_terms[0] + d2.scaled(state.c2)

    mid = HomotopyState.for_load(state.phi_terms[0], s_star, state.q_terms[0],
                                 state.c1, state.c2)
    base = _slope_base(mid, 1, boundary, cap)
    if truncation is not None:
        base = base.truncated(truncation)
    d1 = base + _scaled_forcing(boundary, state.q_terms[0],
                                base.extended)
    phi_star = state.phi_terms[0] + d1.scaled(state.c1)
    return HomotopyState.for_load(phi_star, s_star, state.q_terms[0],
                                  state.c1, state.c2)


@dataclass
class ResidualReport:
    """Mean-square residual of both governing operators on a uniform grid."""

    err: float
    grid_size: int
    points: np.ndarray | None = None
    slope_residual: np.ndarray | None = None
    membrane_residual: np.ndarray | None = None


def residual_error(phi: PolySeries, s: PolySeries, load: float,
                   boundary: BoundarySpec, grid_size: int = 100,
                   keep_points: bool = False) -> ResidualReport:
    """Evaluate N1 and N2 for a candidate pair and average the squares.

    The operators are assembled without any truncation; the grid is the
    grid_size + 1 uniform points of [0, 1].  Both residuals vanish
    identically at y = 0 by construction.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    ext = phi.extended or s.extended
    n1 = phi + apply_slope_kernel(multiply(phi, s).divided_by_y_squared(), boundary)
    if load != 0.0:
        n1 = n1 + _scaled_forcing(boundary, load, ext)
    n2 = s - apply_membrane_kernel(
        multiply(phi, phi).divided_by_y_squared(), boundary
    ).scaled(0.5)
    ys = np.linspace(0.0, 1.0, grid_size + 1)
    if not ext:
        v1 = n1.evaluate_grid(ys)
        v2 = n2.evaluate_grid(ys)
        err = math.fsum(v1 * v1) + math.fsum(v2 * v2)
        err /= grid_size + 1
        return ResidualReport(err, grid_size, ys if keep_points else None,
                              v1 if keep_points else None,
                              v2 if keep_points else None)
    v1h, v1l = n1.to_extended()._horner_dd(ys)
    v2h, v2l = n2.to_extended()._horner_dd(ys)
    q1h, q1l = dd.mul(v1h, v1l, v1h, v1l)
    q2h, q2l = dd.mul(v2h, v2l, v2h, v2l)
    th, tl = dd.add(q1h, q1l, q2h, q2l)
    sh, sl = dd.reduce_sum(th, tl)
    sh, sl = dd.div_d(sh, sl, float(grid_size + 1))
    return ResidualReport(dd.to_float(sh, sl), grid_size,
                          ys if keep_points else None,
                          v1h if keep_points else None,
                          v2h if keep_points else None)


def run_passes(passes, start, boundary: BoundarySpec, config: dict, *,
               grid_size: int, divergence_err: float, tol: float,
               stop_at_tol: bool) -> RunReport:
    """Score, record and classify the passes of one solve.

    ``passes`` yields ``(iteration, order, phi, s, q)``; ``start`` is the
    ``(phi, s, q)`` reported if it yields nothing.  Each pass gets one
    residual evaluation and one history record.  A non-finite residual
    or one above ``divergence_err`` ends the run as diverged; an order-0
    record is the starting guess, not a pass, and is never judged
    diverged.  With ``stop_at_tol`` the run ends at the first residual
    at or below ``tol``; otherwise it runs out the passes and the last
    residual decides between converged and max_iter.
    """
    phi, s, q = start
    records = []
    status = "max_iter"
    err = math.inf
    t0 = time.perf_counter()
    for iteration, order, phi, s, q in passes:
        err = residual_error(phi, s, q, boundary, grid_size).err
        # W(0) = -integral of phi/y, reported in thickness units
        records.append(IterationRecord(iteration, order, err, q,
                                       w_over_h(phi.integral_over_y(), boundary.nu),
                                       (time.perf_counter() - t0) * 1e3))
        if order > 0 and (not math.isfinite(err) or err > divergence_err):
            status = "diverged"
            break
        if stop_at_tol and err <= tol:
            break
    if status == "max_iter" and err <= tol:
        status = "converged"
    w = deflection_series(phi)
    samples = [(float(y), w.evaluate(float(y))) for y in np.linspace(0.0, 1.0, 11)]
    return RunReport(config=config, history=records, phi=phi, s=s, q=q,
                     w0_over_h=w_over_h(phi.integral_over_y(), boundary.nu),
                     status=status, deflection_samples=samples)
