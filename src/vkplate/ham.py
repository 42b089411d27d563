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

The recurrence runs on plain coefficient arrays (float64, or the (2, n)
double-double stack of :mod:`.polyseries`); a ``PolySeries`` is built
only where a pass leaves it.  Two consumption patterns sit on top of the
raw stepping (``homotopy_passes``):

* a plain series: run orders 1..n once and sum, and
* an iterated scheme (``iterate_pass``): run a small number of orders
  with all right-hand sides truncated to a fixed degree, collapse the
  partial sums into a fresh zeroth-order state, and repeat until the
  residual is small.

Each order also appends one term of the load expansion: a prescribed
load at order 1 and zero after it, or, with a prescribed center
deflection, the term that makes the weighted integral of the order's
correction vanish, which keeps the center deflection pinned.

``solve`` sets up both solvers; ``run_passes`` is the one solve loop:
it scores every pass with ``residual_error``, records it, stops on
divergence or tolerance, and builds the run report.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import ddouble as dd
from .config import DIVERGENCE_ERR, IterateMode, SeriesMode, config_echo
from .kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    forcing_integral,
    kernel_map,
    load_forcing,
)
from .physics import deflection_curve, w_over_h
from .polyseries import (
    PolySeries,
    add,
    convolve,
    multiply,
    over_y_squared,
    scale,
    weighted_integral,
)
from .report import IterationRecord, RunReport


class OrderingError(RuntimeError):
    """A deformation order was requested out of sequence."""


@dataclass
class HomotopyState:
    """Solution terms accumulated through some deformation order.

    ``phi_terms[k]`` / ``s_terms[k]`` hold order k of the two series as
    coefficient arrays (float64, or the ``(2, n)`` double-double stack;
    see :mod:`.polyseries`).  ``q_terms[k - 1]`` is the load term of
    order k.  With ``load`` set the load is prescribed and its expansion
    is ``[load, 0.0, ...]``; with ``load`` None the center deflection is
    prescribed and each term is solved from the side condition.
    """

    phi_terms: list
    s_terms: list
    c1: float
    c2: float
    load: float | None = None
    q_terms: list = field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.phi_terms) - 1

    @property
    def q(self) -> float:
        """The prescribed load, or the summed load expansion so far."""
        return self.load if self.load is not None else math.fsum(self.q_terms)


def _coupling_sum(f_terms, g_terms, k, cap):
    """Convolution sum f_i * g_(k-1-i) over i = 0..k-1, capped in degree.

    For a self-coupling (``g_terms is f_terms``) symmetric pairs share one
    product, doubled.
    """
    square = f_terms is g_terms
    acc = None
    for i in range((k + 1) // 2 if square else k):
        p = convolve(f_terms[i], g_terms[k - 1 - i], cap)
        if square and 2 * i != k - 1:
            p = scale(p, 2.0)
        acc = p if acc is None else add(acc, p)
    return acc


def _slope_base(phi_terms, s_terms, k, boundary, cap):
    """phi_(k-1) plus the kernel image of the coupling sum (no forcing)."""
    prod = _coupling_sum(phi_terms, s_terms, k, cap)
    return add(phi_terms[k - 1], kernel_map(over_y_squared(prod), boundary.lam))


def _membrane_base(phi_terms, s_terms, k, boundary, cap):
    """s_(k-1) minus half the kernel image of the slope self-coupling."""
    sq = _coupling_sum(phi_terms, phi_terms, k, cap)
    return add(s_terms[k - 1], -scale(kernel_map(over_y_squared(sq), boundary.mu), 0.5))


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
    phi, s = state.phi_terms, state.s_terms
    if len(phi) != k or len(s) != k:
        raise OrderingError(
            f"step to order {k} expects exactly orders 0..{k - 1} present"
        )
    if len(state.q_terms) != k - 1:
        raise OrderingError("load terms out of sequence")
    cap = None if truncation is None else truncation + 2
    keep = slice(None) if truncation is None else slice(truncation + 1)

    base = _slope_base(phi, s, k, boundary, cap)[..., keep]
    if state.load is None:
        coef = -weighted_integral(base) / forcing_integral(boundary)
    else:
        coef = state.load if k == 1 else 0.0
    state.q_terms.append(coef)
    d1 = base if coef == 0.0 else add(base, forcing(boundary, coef, base.ndim == 2))
    d2 = _membrane_base(phi, s, k, boundary, cap)[..., keep]

    if k == 1:  # the first order inherits no earlier term
        phi_k = scale(d1, state.c1)
        s_k = scale(d2, state.c2)
    else:
        phi_k = add(phi[k - 1], scale(d1, state.c1))
        s_k = add(s[k - 1], scale(d2, state.c2))
    phi.append(phi_k)
    s.append(s_k)
    return phi_k, s_k


def iterate_pass(state: HomotopyState, order: int, truncation: int | None,
                 boundary: BoundarySpec) -> HomotopyState:
    """Run one deformation pass and collapse it into a fresh state.

    The input state is extended in place through the requested order,
    so its ``q`` is the load of the completed pass; the returned state
    has the partial sums as its new zeroth-order terms.
    """
    if order < 1:
        raise OrderingError(f"pass order must be >= 1, got {order}")
    for k in range(1, order + 1):
        deformation_step(state, k, boundary, truncation)
    return HomotopyState([reduce(add, state.phi_terms)], [reduce(add, state.s_terms)],
                         state.c1, state.c2, state.load)


def homotopy_passes(state: HomotopyState, mode, boundary: BoundarySpec):
    """Yield ``(iteration, order, phi, s, q)`` after each order or pass.

    A ``SeriesMode`` yields the running partial sums after orders
    1..order; an ``IterateMode`` yields the collapsed state after each
    pass, up to the pass budget.  ``q`` is the load the pair is scored
    against: the prescribed load, or the summed load expansion so far.
    ``phi`` and ``s`` are ``PolySeries``; the state holds arrays.
    """
    series = PolySeries.from_array
    if isinstance(mode, IterateMode):
        for it in range(1, mode.max_iter + 1):
            fresh = iterate_pass(state, mode.order, mode.truncation, boundary)
            q, state = state.q, fresh  # free the finished terms before the pass is scored
            yield (it, it * mode.order, series(state.phi_terms[0]),
                   series(state.s_terms[0]), q)
        return
    phi, s = state.phi_terms[0], state.s_terms[0]
    for k in range(1, mode.order + 1):
        deformation_step(state, k, boundary)
        phi = add(phi, state.phi_terms[k])
        s = add(s, state.s_terms[k])
        yield k, k, series(phi), series(s), state.q


def staggered_pass(state: HomotopyState, boundary: BoundarySpec,
                   truncation: int | None = None) -> HomotopyState:
    """First-order pass with the membrane update adopted before the slope one.

    Updating ``s`` first and letting the slope equation see the updated
    value reproduces, with c1 = -theta and c2 = -1, the classical
    interpolation iteration step; this is the schedule the equivalence
    check drives.
    """
    if state.load is None:
        raise OrderingError("staggered pass is defined for prescribed-load states")
    cap = None if truncation is None else truncation + 2
    keep = slice(None) if truncation is None else slice(truncation + 1)
    phi0, s0, load = state.phi_terms[0], state.s_terms[0], state.load
    d2 = _membrane_base([phi0], [s0], 1, boundary, cap)[..., keep]
    s_star = add(s0, scale(d2, state.c2))

    base = _slope_base([phi0], [s_star], 1, boundary, cap)[..., keep]
    d1 = add(base, forcing(boundary, load, base.ndim == 2))
    phi_star = add(phi0, scale(d1, state.c1))
    return HomotopyState([phi_star], [s_star], state.c1, state.c2, load)


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
        lf = load_forcing(boundary)
        n1 = n1 + (lf.to_extended() if ext else lf).scaled(load)
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
    vh, vl = np.concatenate((v1h, v2h)), np.concatenate((v1l, v2l))
    # the sum of squares: vh**2 compensated by dot_rows, 2 vh vl in float64
    sh, sl = dd.dot_rows(vh, vh)
    sh, sl = dd.quick_two_sum(sh, sl + 2.0 * np.dot(vh, vl))
    sh, sl = dd.div_d(sh, sl, float(grid_size + 1))
    return ResidualReport(dd.to_float(sh, sl), grid_size,
                          ys if keep_points else None,
                          v1h if keep_points else None,
                          v2h if keep_points else None)


def run_passes(passes, start, boundary: BoundarySpec, config: dict, *,
               grid_size: int, tol: float,
               stop_at_tol: bool) -> RunReport:
    """Score, record and classify the passes of one solve.

    ``passes`` yields ``(iteration, order, phi, s, q)``; ``start`` is the
    ``(phi, s, q)`` reported if it yields nothing.  Each pass gets one
    residual evaluation and one history record.  A non-finite residual
    or one above ``DIVERGENCE_ERR`` ends the run as diverged; an order-0
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
        if order > 0 and (not math.isfinite(err) or err > DIVERGENCE_ERR):
            status = "diverged"
            break
        if stop_at_tol and err <= tol:
            break
    if status == "max_iter" and err <= tol:
        status = "converged"
    samples = [(y, wv) for y, _, wv, _ in deflection_curve(phi, boundary.nu, 11)]
    return RunReport(config=config, history=records, phi=phi, s=s, q=q,
                     w0_over_h=w_over_h(phi.integral_over_y(), boundary.nu),
                     status=status, deflection_samples=samples)


def solve(problem, phi0: PolySeries, load: float | None, head: dict,
          watch=iter) -> RunReport:
    """Solve a problem from the slope guess ``phi0`` with no membrane force.

    ``load`` is the prescribed load, or None for a prescribed deflection;
    ``head`` leads the config echo.  ``watch`` sees every pass on its way
    to ``run_passes``.  A load series also records its guess as order 0.
    """
    mode, b = problem.mode, problem.boundary
    s0 = PolySeries.zero(extended=problem.precision == "extended")
    if s0.extended:
        phi0 = phi0.to_extended()
    state = HomotopyState([phi0.array], [s0.array], problem.c1, problem.c2, load)
    passes = homotopy_passes(state, mode, b)
    if load is not None and isinstance(mode, SeriesMode):
        passes = itertools.chain([(0, 0, phi0, s0, load)], passes)
    return run_passes(watch(passes), (phi0, s0, state.q), b, config_echo(problem, head),
                      grid_size=problem.grid_size, tol=mode.tol,
                      stop_at_tol=isinstance(mode, IterateMode))
