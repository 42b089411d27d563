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
  residual is small.  Each pass refines the last, so a double-double
  pass steps only its first order, which carries the residual, in
  double-double, and its correction orders in float64.

Each order also appends one term of the load expansion: a prescribed
load at order 1 and zero after it, or, with a prescribed center
deflection, the term that makes the weighted integral of the order's
correction vanish, which keeps the center deflection pinned.

``solve`` sets up all three solvers, the interpolation baseline with
``staggered_pass`` as its pass; ``run_passes`` is the one solve loop and
the one judge of a pass: it scores and records every pass (a series that
reads only its end skips the orders ``residual_bound`` clears), shows it
to the solver's ``watch``, stops on divergence, tolerance or a stall, and
builds the run report.  An extended series runs in float64 when every pair
it scores lies far above float64's rounding, and in double-double
otherwise.  ``residual_error`` assembles a pair's operators in the pair's
own precision; double-double ones, which cancel in that assembly, are
evaluated on the grid in float64 when that evaluation's rounding is
provably far below the score, and in double-double otherwise.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import ddouble as dd
from .config import (DIVERGENCE_ERR, GRID, GRID_POINTS, STALL_PASSES, IterateMode,
                     SeriesMode, config_echo)
from .kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    forcing_integral,
    kernel_map,
)
from .physics import w_over_h
from .polyseries import (
    PolySeries,
    add,
    convolve,
    fsum,
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
    def q(self) -> float:
        """The prescribed load, or the summed load expansion so far."""
        return self.q_through(len(self.q_terms))

    def q_through(self, k: int) -> float:
        """The prescribed load, or the load expansion summed through order k."""
        return self.load if self.load is not None else math.fsum(self.q_terms[:k])

    def row(self, i: int) -> HomotopyState:
        """Row i of a batch's state (see ``deformation_step``): its control's own state."""
        return HomotopyState([t[i, 0] for t in self.phi_terms], [t[i, 0] for t in self.s_terms],
                             float(self.c1[i, 0, 0]), float(self.c2[i, 0, 0]), self.load,
                             [float(q[i, 0, 0]) if isinstance(q, np.ndarray) else q
                              for q in self.q_terms])


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

    The terms may be a float64 batch (:mod:`.polyseries`; ``c1``, ``c2``
    shaped (R, 1, 1)).  With ``truncation`` set, coupling products are computed only up to
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
    if isinstance(coef, np.ndarray):  # a batch's load terms, each added unless zero
        d1 = np.where(coef == 0.0, base, add(base, forcing(boundary, coef)))
    else:
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

    The input state's load terms are extended in place through the
    requested order, so its ``q`` is the load of the completed pass; the
    returned state has the partial sums as its new zeroth-order terms.

    A double-double state steps only order 1 in double-double: it alone
    carries the current residual.  Orders 2..order are corrections of that
    residual's size, as in mixed-precision iterative refinement, and run on
    the float64 high parts of the terms, appending to the same load terms.
    The collapse adds phi_0 + phi_1 (double-double) and the float64 orders
    in order.  Float64 states and batches run every order as they are.
    """
    if order < 1:
        raise OrderingError(f"pass order must be >= 1, got {order}")
    deformation_step(state, 1, boundary, truncation)
    rest = state
    if state.phi_terms[0].ndim == 2:
        rest = HomotopyState([t[0] for t in state.phi_terms], [t[0] for t in state.s_terms],
                             state.c1, state.c2, state.load, state.q_terms)
    for k in range(2, order + 1):
        deformation_step(rest, k, boundary, truncation)
    return HomotopyState([reduce(add, state.phi_terms[:2] + rest.phi_terms[2:])],
                         [reduce(add, state.s_terms[:2] + rest.s_terms[2:])],
                         state.c1, state.c2, state.load)


def homotopy_passes(state: HomotopyState, mode, boundary: BoundarySpec, step=None,
                    extended: bool = False):
    """Yield ``(iteration, order, phi, s, q)`` for every pair a solve judges.

    A ``SeriesMode`` yields the running partial sums after orders
    1..order, after the guess ``(0, 0, phi0, s0, load)`` of a load state
    (a deflection guess has no load term to score); an ``IterateMode``
    yields the state after each pass
    ``step(state, mode.order, mode.truncation, boundary)``, up to the pass
    budget.  ``step`` None is ``iterate_pass``, looked up at the call so
    that a wrapped ``ham.iterate_pass`` (a profiler's) is the one run.
    ``q`` is the load the pair is scored against: the prescribed load, or
    the summed load expansion so far.  ``phi`` and ``s`` are
    ``PolySeries``; the state holds arrays.

    ``extended`` widens an iterate run's state to double-double once a pass
    scores err <= 2**-53 * m**2 (sent back), m the pair's largest
    |coefficient|, so its rounding is sqrt(2**-53) below sqrt(err).  From
    then on ``iterate_pass`` steps each pass's first order in double-double
    and its other orders in float64.  A series runs in its state's
    precision, which ``solve`` picks.
    """
    series = PolySeries.from_array
    if isinstance(mode, IterateMode):
        step = step or iterate_pass
        for it in range(1, mode.max_iter + 1):
            fresh = step(state, mode.order, mode.truncation, boundary)
            q, state = state.q, fresh  # free the finished terms before the pass is scored
            phi, s = state.phi_terms[0], state.s_terms[0]
            err = yield it, it * mode.order, series(phi), series(s), q
            if extended and phi.ndim == 1 and err <= 2.0**-53 * _largest(phi, s) ** 2:
                state.phi_terms[0], state.s_terms[0] = widen(phi), widen(s)
        return
    phi, s = state.phi_terms[0], state.s_terms[0]
    if state.load is not None:
        yield 0, 0, series(phi), series(s), state.load
    for k in range(1, mode.order + 1):
        if k == len(state.phi_terms):  # a stepped state holds orders already
            deformation_step(state, k, boundary)
        phi = add(phi, state.phi_terms[k])
        s = add(s, state.s_terms[k])
        yield k, k, series(phi), series(s), state.q_through(k)


def staggered_pass(state: HomotopyState, order: int, truncation: int | None,
                   boundary: BoundarySpec) -> HomotopyState:
    """First-order pass with the membrane update adopted before the slope one.

    Updating ``s`` first and letting the slope equation see the updated
    value reproduces, with c1 = -theta and c2 = -1, the classical
    interpolation iteration step.  It is the pass of the baseline,
    ``vkplate.interpolation.solve``: ``iterate_pass``'s arguments, order 1.
    """
    if order != 1:
        raise OrderingError(f"the staggered pass is first-order, got order {order}")
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


def _largest(*arrays) -> float:
    """m, the largest |coefficient| of float64 arrays: by Python's ``max``, with
    no list (a first numpy reduction paged in 64 KB of code)."""
    return float(max(max(map(abs, a)) for a in arrays))


def residual_error(phi: PolySeries, s: PolySeries, load: float,
                   boundary: BoundarySpec) -> float:
    """Mean square of N1 and N2 for a candidate pair on the residual grid.

    The operators are assembled without any truncation, in the pair's own
    precision: double-double when either input is; the grid is the
    ``config.GRID`` + 1 uniform points of [0, 1].  Both residuals vanish
    identically at y = 0 by construction: the pair, the kernel images and
    the load image all have a zero constant term.

    Double-double operators, which have cancelled in their assembly, are
    evaluated in float64 (``PolySeries._grid_hi``), and that score err is
    kept when it is finite and the sum of the two evaluations' error
    bounds, (2 n + 2) u Σ|c_m| for n coefficients, is at most
    2**-26 * sqrt(err): the grid values then lie within 2**-26 of their
    root mean square, and err within about 2**-25 relative.  Otherwise both
    are evaluated in double-double (``PolySeries._horner_dd``) and their
    squares summed by ``dd.dot_rows``.
    """
    if not (phi.extended or s.extended):  # both built first: overflows warn in that order
        n1, n2 = _operators(phi, s, load, boundary)
        v1, v2 = n1.evaluate_grid(GRID_POINTS), n2.evaluate_grid(GRID_POINTS)
        return (fsum(v1 * v1) + fsum(v2 * v2)) / (GRID + 1)
    # each operator is built once the one before is evaluated and freed: with
    # both alive, extended's VmHWM growth over 10 iterations read about 90 kB
    # higher (tools/vmhwm.py).  A score that falls through builds them again,
    # and warns as it did before: 3 of the 121 double-double scores of
    # tools/same_outputs.py's command lines do, 2 of them overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        ops = _operators(phi, s, load, boundary)
        (v1, b1), (v2, b2) = (n._grid_hi(GRID_POINTS) for n in ops)
        err = (fsum(v1 * v1) + fsum(v2 * v2)) / (GRID + 1)
    if err < math.inf and b1 + b2 <= 2.0**-26 * math.sqrt(err):
        return err
    v1, v2 = (n._horner_dd(GRID_POINTS) for n in _operators(phi, s, load, boundary))
    vh, vl = np.concatenate((v1[0], v2[0])), np.concatenate((v1[1], v2[1]))
    # the sum of squares: vh**2 compensated by dot_rows, 2 vh vl in float64
    sh, sl = dd.dot_rows(vh, vh)
    sh, sl = dd.quick_two_sum(sh, sl + 2.0 * np.dot(vh, vl))
    sh, sl = dd.div_d(sh, sl, float(GRID + 1))
    return dd.to_float(sh, sl)


def _operators(phi: PolySeries, s: PolySeries, load: float, boundary: BoundarySpec):
    """N1, then N2, as series: double-double when either input is."""
    ext = phi.extended or s.extended
    yield (phi + apply_slope_kernel(multiply(phi, s).divided_by_y_squared(), boundary)
           + PolySeries.from_array(forcing(boundary, load, ext)))
    yield s + apply_membrane_kernel(multiply(phi, phi).divided_by_y_squared(),
                                    boundary).scaled(-0.5)


@functools.lru_cache(maxsize=16)
def _ramp(size: int):
    """Read-only k and 1 / k for k = 1..size - 1, one table per power-of-two size."""
    table = np.stack((k := np.arange(1.0, size), 1.0 / k))
    table.flags.writeable = False
    return table


def _norm(p: np.ndarray, inv: np.ndarray) -> float:
    """L2 norm on [0, 1] of a float64 polynomial, rounded up; ``inv[d]`` is
    1 / (d + 1) for d up to 2·len(p) − 2 at least.

    ‖p‖² = Σ_d (p⊛p)_d / (d + 1).  The margin n²·2⁻⁵⁰·Σ p_m², at least
    n·2⁻⁵⁰ times the same sum over |p|, covers the rounding of that sum
    and a relative 2⁻⁵³ change of each coefficient (the low part of a
    double-double one).
    """
    if not p.size:
        return 0.0
    sq = np.dot(np.convolve(p, p), inv[: 2 * p.size - 1])
    return math.sqrt(abs(sq) + p.size * p.size * 2.0**-50 * np.dot(p, p))


def residual_bound(phi: PolySeries, s: PolySeries, load: float,
                   boundary: BoundarySpec) -> float:
    """Upper bound of ``residual_error(phi, s, load, boundary)``, with no
    product series and no grid.

    With Φ, S the pair's float64 coefficients (the high parts of a
    double-double pair), F the load image ``forcing(boundary, load)`` and
    ‖·‖ the L2 norm on [0, 1] (``_norm``),

        err <= (‖(Φ + F)′‖ + (|λ − 1| + 2)·‖Φ/y‖·‖S/y‖)²
               + (‖S′‖ + ½(|μ − 1| + 2)·‖Φ/y‖²)²,

    to rounding, because a mean over grid points is at most the sum of
    the squared maxima of N1 and N2 on [0, 1], and:

    * every term vanishes at y = 0, so |p(y)| = |∫₀^y p′| <= ‖p′‖;
    * the kernel of edge weight w (``kernels._weights``) maps f to
      K_w[f](y) = y·((w − 1)∫u·f + ∫f) − ∫₀^y (y − u)·f, so
      |K_w[f]| <= (|w − 1| + 2)·∫|f| on [0, 1];
    * by Cauchy–Schwarz, ∫|Φ·S/y²| <= ‖Φ/y‖·‖S/y‖.
    """
    f, g = phi.coeffs, s.coeffs
    slope = add(f, forcing(boundary, load))
    k, inv = _ramp(1 << (2 * max(slope.size, g.size) - 1).bit_length())
    f_y, g_y = _norm(f[1:], inv), _norm(g[1:], inv)
    d_slope = _norm(slope[1:] * k[: slope.size - 1], inv)
    d_s = _norm(g[1:] * k[: g.size - 1], inv)
    n1 = d_slope + (abs(boundary.lam - 1.0) + 2.0) * f_y * g_y
    n2 = d_s + 0.5 * (abs(boundary.mu - 1.0) + 2.0) * f_y * f_y
    return n1 * n1 + n2 * n2


def run_passes(passes, boundary: BoundarySpec, config: dict,
               mode: SeriesMode | IterateMode, watch=None,
               trial: bool = False) -> RunReport | None:
    """Score, record and classify the passes of one solve under ``mode``.

    ``passes`` generates at least one ``(iteration, order, phi, s, q)`` and
    is sent the last scored err (None before the first) for the next.
    Each pass gets one residual evaluation, one ``w0 =
    phi.integral_over_y()`` (W(0) = -w0), one history record and, with
    ``watch`` set, one call ``watch(w0, diverged)``, whose largest return
    value is the report's ``restriction_defect``.  A non-finite residual
    (nan is recorded as inf) or one above ``DIVERGENCE_ERR`` ends the run
    diverged; an order-0 record is the starting guess, not a pass, and is
    never judged diverged.  An ``IterateMode`` run ends as converged at the
    first residual at or below ``mode.tol``, or as stalled once
    ``STALL_PASSES`` passes in a row set no new residual minimum, one below
    the best by more than a relative 2**-20; one that spends its
    ``mode.max_iter`` passes still improving ends as max_iter.
    A ``SeriesMode`` run takes every pass, and its last residual decides
    between converged and max_iter.  Every status reports the last pass.

    Outside a trial, a ``SeriesMode`` with ``every_order`` False scores and
    records only its last order and each order above 0 whose
    ``residual_bound`` is not at or below ``DIVERGENCE_ERR / 2`` (the factor
    2 absorbs rounding).  An order it skips has a finite residual under the
    threshold, so it is not diverged; it still gets its ``watch(w0, False)``,
    and err, status and the first diverged order are those of a full run.

    With ``trial`` the passes are the float64 trial of an extended series
    (see ``solve``), and the run returns None at the first pair whose err
    is not finite and at least 2**-26 * M**2, with M = max(m, m**2) and m
    the pair's largest |coefficient|: N1 and N2 add up the pair and the
    kernel images of its products, whose coefficients reach about m**2.
    Above the threshold sqrt(err) >= 2**-13 * M, while the float64 rounding
    of the pair, N1 and N2 is about n * 2**-53 * M for n coefficients,
    n * 2**-40 of sqrt(err), so the err is good to about n * 2**-39
    relative.  Over 3,533 double-double pairs of extended series (load and
    deflection, clamped and simple edges, c0 from -1.5 to -0.01, orders 10
    and 30) the largest relative gap between the score of the high parts
    and the double-double score above the threshold was 1.2e-12; a
    threshold of 2**-26 * m**2 let a gap of 4.3e-5 through, on a diverging
    series with m = 1.1e8.  A pair whose threshold overflows fails unscored.
    A trial skips no order, so it is kept or abandoned as a full run's is.
    """
    sparse = isinstance(mode, SeriesMode) and not mode.every_order and not trial
    records = []
    status = "max_iter"
    err, best = None, math.inf
    since_best = 0
    defect = None if watch is None else 0.0
    t0 = time.perf_counter()
    while True:
        try:
            iteration, order, phi, s, q = passes.send(err)
        except StopIteration:
            break
        w0 = phi.integral_over_y()
        skip = sparse and order < mode.order and (
            order == 0 or residual_bound(phi, s, q, boundary) <= DIVERGENCE_ERR / 2)
        if trial:  # every pair must lie far above float64's rounding
            big = max(m := _largest(phi.coeffs, s.coeffs), m * m)
            if not (floor := 2.0**-26 * big * big) < math.inf:
                return None  # no finite err reaches it: left unscored
        if not skip:
            err = residual_error(phi, s, q, boundary)
            if err != err:  # nan: the pair is not finite
                err = math.inf
            if trial and not floor <= err < math.inf:
                return None
        diverged = not skip and order > 0 and err > DIVERGENCE_ERR
        if watch is not None:
            defect = max(defect, watch(w0, diverged))
        if skip:
            continue
        records.append(IterationRecord(iteration, order, err, q, w_over_h(w0, boundary.nu),
                                       (time.perf_counter() - t0) * 1e3))
        if diverged:
            status = "diverged"
            break
        if isinstance(mode, IterateMode):
            if err <= mode.tol:
                break
            # a new minimum must beat the best by more than rounding at a floor
            best, since_best = ((err, 0) if err < best * (1.0 - 2.0**-20)
                                else (best, since_best + 1))
            if since_best >= STALL_PASSES:
                status = "stalled"
                break
    if status == "max_iter" and err <= mode.tol:
        status = "converged"
    return RunReport(config=config, history=records, phi=phi, s=s, status=status,
                     restriction_defect=defect)


def solve(problem, phi0: np.ndarray, head: dict, watch=None, step=None,
          state: HomotopyState | None = None) -> RunReport:
    """Solve a problem from the float64 slope guess ``phi0`` with no membrane force.

    The load is ``problem.load``, prescribed, or solved for when the
    problem has none (a prescribed deflection); ``head`` leads the config
    echo.  ``step`` is the pass of an iterate mode (see
    ``homotopy_passes``), ``watch`` is ``run_passes``' per-pass call, and
    ``state`` (a batch's row, stepped already) replaces the fresh state.

    An extended series first runs as a float64 trial, which warns of
    nothing and scores every order, and keeps it when ``run_passes`` does:
    every err is finite and far above float64's rounding.  Otherwise the
    series runs again in double-double, from its guess widened.
    """
    mode, b = problem.mode, problem.boundary
    ext = problem.precision == "extended"
    trial = ext and isinstance(mode, SeriesMode)
    state = state or HomotopyState([phi0], [np.zeros(1)], problem.c1, problem.c2,
                                   getattr(problem, "load", None))
    config = config_echo(problem, head)
    # extended: 16 KB numpy ufunc buffers, not 64 KB, for broadcast double-double products
    bufsize = np.setbufsize(2048 if ext else np.getbufsize())
    try:
        with np.errstate(all="ignore" if trial else None):
            report = run_passes(homotopy_passes(state, mode, b, step, ext), b, config, mode,
                                watch, trial)
        if report is None:  # the trial's terms are freed as the widened guess replaces them
            state = HomotopyState([widen(state.phi_terms[0])], [widen(state.s_terms[0])],
                                  state.c1, state.c2, state.load)
            report = run_passes(homotopy_passes(state, mode, b), b, config, mode, watch)
    finally:
        np.setbufsize(bufsize)
    if ext and not report.phi.extended:  # an extended report is double-double
        report.phi, report.s = (PolySeries.from_array(widen(p.array))
                                for p in (report.phi, report.s))
    return report
