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
from .config import DIVERGENCE_ERR, GRID, IterateMode, SeriesMode, config_echo
from .kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    forcing_integral,
    kernel_map,
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
    widen,
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


def truncation_rule(truncation: int | None):
    """``(cap, keep)`` of a degree truncation: coupling products are computed
    up to degree ``cap`` = truncation + 2 and right-hand sides are cut with
    the slice ``keep`` to degrees 0..truncation.  No truncation gives
    ``(None, slice(None))``; one below 2 is a ``ValueError``, because the
    guess and the forcing, which no cut reaches, have degree 2."""
    if truncation is None:
        return None, slice(None)
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    return truncation + 2, slice(truncation + 1)


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
    cap, keep = truncation_rule(truncation)

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
    cap, keep = truncation_rule(truncation)
    phi0, s0, load = state.phi_terms[0], state.s_terms[0], state.load
    d2 = _membrane_base([phi0], [s0], 1, boundary, cap)[..., keep]
    s_star = add(s0, scale(d2, state.c2))

    base = _slope_base([phi0], [s_star], 1, boundary, cap)[..., keep]
    d1 = add(base, forcing(boundary, load, base.ndim == 2))
    phi_star = add(phi0, scale(d1, state.c1))
    return HomotopyState([phi_star], [s_star], state.c1, state.c2, load)


def residual_error(phi: PolySeries, s: PolySeries, load: float,
                   boundary: BoundarySpec) -> float:
    """Mean square of N1 and N2 for a candidate pair on the residual grid.

    The operators are assembled without any truncation; the grid is the
    ``config.GRID`` + 1 uniform points of [0, 1].  Both residuals vanish
    identically at y = 0 by construction: the pair, the kernel images and
    the load image all have a zero constant term.
    """
    ext = phi.extended or s.extended
    n1 = phi + apply_slope_kernel(multiply(phi, s).divided_by_y_squared(), boundary)
    if load != 0.0:
        n1 = n1 + PolySeries.from_array(forcing(boundary, load, ext))
    n2 = s + apply_membrane_kernel(
        multiply(phi, phi).divided_by_y_squared(), boundary
    ).scaled(-0.5)
    ys = np.linspace(0.0, 1.0, GRID + 1)
    if not ext:
        v1 = n1.evaluate_grid(ys)
        v2 = n2.evaluate_grid(ys)
        return (math.fsum(v1 * v1) + math.fsum(v2 * v2)) / (GRID + 1)
    v1h, v1l = n1._horner_dd(ys)  # n1 and n2 are double-double when either input is
    v2h, v2l = n2._horner_dd(ys)
    vh, vl = np.concatenate((v1h, v2h)), np.concatenate((v1l, v2l))
    # the sum of squares: vh**2 compensated by dot_rows, 2 vh vl in float64
    sh, sl = dd.dot_rows(vh, vh)
    sh, sl = dd.quick_two_sum(sh, sl + 2.0 * np.dot(vh, vl))
    sh, sl = dd.div_d(sh, sl, float(GRID + 1))
    return dd.to_float(sh, sl)


def run_passes(passes, start, boundary: BoundarySpec, config: dict,
               mode: SeriesMode | IterateMode) -> RunReport:
    """Score, record and classify the passes of one solve under ``mode``.

    ``passes`` yields ``(iteration, order, phi, s, q)``; ``start`` is the
    ``(phi, s, q)`` reported if it yields nothing.  Each pass gets one
    residual evaluation and one history record.  A non-finite residual
    or one above ``DIVERGENCE_ERR`` ends the run as diverged; an order-0
    record is the starting guess, not a pass, and is never judged
    diverged.  An ``IterateMode`` run ends at the first residual at or
    below ``mode.tol``; a ``SeriesMode`` run takes every pass, and its
    last residual decides between converged and max_iter.
    """
    phi, s, q = start
    records = []
    status = "max_iter"
    err = math.inf
    t0 = time.perf_counter()
    for iteration, order, phi, s, q in passes:
        err = residual_error(phi, s, q, boundary)
        # W(0) = -integral of phi/y, reported in thickness units
        records.append(IterationRecord(iteration, order, err, q,
                                       w_over_h(phi.integral_over_y(), boundary.nu),
                                       (time.perf_counter() - t0) * 1e3))
        if order > 0 and (not math.isfinite(err) or err > DIVERGENCE_ERR):
            status = "diverged"
            break
        if isinstance(mode, IterateMode) and err <= mode.tol:
            break
    if status == "max_iter" and err <= mode.tol:
        status = "converged"
    samples = [(y, wv) for y, _, wv, _ in deflection_curve(phi, boundary.nu, 11)]
    return RunReport(config=config, history=records, phi=phi, s=s, q=q,
                     w0_over_h=w_over_h(phi.integral_over_y(), boundary.nu),
                     status=status, deflection_samples=samples)


def solve(problem, phi0: np.ndarray, load: float | None, head: dict,
          watch=iter) -> RunReport:
    """Solve a problem from the float64 slope guess ``phi0`` with no membrane force.

    ``load`` is the prescribed load, or None for a prescribed deflection;
    ``head`` leads the config echo.  ``watch`` sees every pass on its way
    to ``run_passes``.  A load series also records its guess as order 0.
    """
    mode, b = problem.mode, problem.boundary
    s0 = np.zeros(1)
    if problem.precision == "extended":
        phi0, s0 = widen(phi0), widen(s0)
    state = HomotopyState([phi0], [s0], problem.c1, problem.c2, load)
    phi0, s0 = PolySeries.from_array(phi0), PolySeries.from_array(s0)
    passes = homotopy_passes(state, mode, b)
    if load is not None and isinstance(mode, SeriesMode):
        passes = itertools.chain([(0, 0, phi0, s0, load)], passes)
    return run_passes(watch(passes), (phi0, s0, state.q), b, config_echo(problem, head), mode)
