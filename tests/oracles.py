"""Oracles the tests check the program against.

``kernel_value`` is the pointwise kernel the closed forms are checked
against.  The rest are reference recurrences written on ``PolySeries``
operations, as the solvers ran them before they moved onto plain
coefficient arrays: the homotopy deformation step, the iterate pass and
the staggered pass, term by term, filling a ``HomotopyState`` whose terms
are ``PolySeries``, and one sweep of the interpolation baseline.  The
array code of ``vkplate.ham`` must reproduce the first three bit for bit.

The baseline sweep is the paper's independent spelling of the relaxed
fixed-point iteration, from its own first iterate ``first_iterate``.
``baseline_sweeps`` runs it beside
``ham.staggered_pass`` at c1 = -theta, c2 = -1, the pass the baseline
solver runs on; the two differ only in rounding, and ``grid_gap`` measures
by how much.
"""

from functools import reduce

import numpy as np

from vkplate.config import GRID_POINTS
from vkplate.ham import HomotopyState, OrderingError
from vkplate.ham import staggered_pass as ham_staggered_pass
from vkplate.kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    forcing_integral,
)
from vkplate.polyseries import PolySeries, add, multiply


def kernel_value(y: float, e: float, w: float) -> float:
    """Kernel K(y, e) = (w - 1)*y*e + min(y, e) of the edge weight w."""
    return (w - 1.0) * y * e + min(y, e)


def _scaled_forcing(boundary, coef, extended):
    return PolySeries.from_array(forcing(boundary, coef, extended))


def _truncated(p, truncation):
    """The series cut after degree ``truncation`` (unchanged for None)."""
    if truncation is None:
        return p
    return PolySeries.from_array(p.array[..., : truncation + 1])


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


def slope_base(state, k, boundary, cap):
    """phi_(k-1) plus the kernel image of the coupling sum (no forcing)."""
    prod = _cross_sum(state.phi_terms, state.s_terms, k, cap)
    return state.phi_terms[k - 1] + apply_slope_kernel(
        prod.divided_by_y_squared(), boundary
    )


def membrane_base(state, k, boundary, cap):
    """s_(k-1) minus half the kernel image of the slope self-coupling."""
    sq = _square_sum(state.phi_terms, k, cap)
    return state.s_terms[k - 1] + apply_membrane_kernel(
        sq.divided_by_y_squared(), boundary
    ).scaled(-0.5)


def deformation_step(state, k, boundary, truncation=None):
    """Extend a state of ``PolySeries`` terms by deformation order k."""
    if len(state.phi_terms) != k or len(state.s_terms) != k:
        raise OrderingError(f"step to order {k} expects exactly orders 0..{k - 1} present")
    if len(state.q_terms) != k - 1:
        raise OrderingError("load terms out of sequence")
    cap = None if truncation is None else truncation + 2
    ext = state.phi_terms[0].extended

    base = _truncated(slope_base(state, k, boundary, cap), truncation)
    if state.load is None:
        coef = -base.integral_over_y() / forcing_integral(boundary)
    else:
        coef = state.load if k == 1 else 0.0
    state.q_terms.append(coef)
    d1 = base if coef == 0.0 else base + _scaled_forcing(boundary, coef, ext)

    d2 = _truncated(membrane_base(state, k, boundary, cap), truncation)

    if k == 1:  # the first order inherits no earlier term
        phi_k = d1.scaled(state.c1)
        s_k = d2.scaled(state.c2)
    else:
        phi_k = state.phi_terms[k - 1] + d1.scaled(state.c1)
        s_k = state.s_terms[k - 1] + d2.scaled(state.c2)
    state.phi_terms.append(phi_k)
    state.s_terms.append(s_k)
    return phi_k, s_k


def iterate_pass(state, order, boundary, truncation=None):
    """An iterate pass on ``PolySeries`` terms, collapsed into a fresh state.

    A double-double state steps order 1 in double-double and orders
    2..order on the float64 high parts of its terms, appending to the same
    load terms; the collapse adds phi_0, phi_1 and the float64 orders in
    order.  A float64 state steps every order as it is.
    """
    deformation_step(state, 1, boundary, truncation)
    rest = state
    if state.phi_terms[0].extended:
        rest = HomotopyState([PolySeries(t.coeffs) for t in state.phi_terms],
                             [PolySeries(t.coeffs) for t in state.s_terms],
                             state.c1, state.c2, state.load, state.q_terms)
    for k in range(2, order + 1):
        deformation_step(rest, k, boundary, truncation)
    return HomotopyState([reduce(PolySeries.__add__, state.phi_terms[:2] + rest.phi_terms[2:])],
                         [reduce(PolySeries.__add__, state.s_terms[:2] + rest.s_terms[2:])],
                         state.c1, state.c2, state.load)


def staggered_pass(state, boundary, truncation=None):
    """The staggered first-order pass on ``PolySeries`` terms."""
    cap = None if truncation is None else truncation + 2
    d2 = _truncated(membrane_base(state, 1, boundary, cap), truncation)
    s_star = state.s_terms[0] + d2.scaled(state.c2)

    mid = HomotopyState([state.phi_terms[0]], [s_star], state.c1, state.c2, state.load)
    base = _truncated(slope_base(mid, 1, boundary, cap), truncation)
    d1 = base + _scaled_forcing(boundary, state.load, base.extended)
    phi_star = state.phi_terms[0] + d1.scaled(state.c1)
    return HomotopyState([phi_star], [s_star], state.c1, state.c2, state.load)


def first_iterate(load, theta, boundary):
    """The baseline's first slope iterate -theta * Q * K[1], K[1] = ((lam + 1) y - y**2) / 2."""
    return (-theta * load) * np.array([0.0, (boundary.lam + 1.0) / 2.0, -0.5])


def interpolation_step(phi, theta, load, boundary, truncation=100):
    """One sweep of the interpolation baseline on ``PolySeries``: (phi_next, psi)."""
    cap = None if truncation is None else truncation + 2
    psi = apply_membrane_kernel(
        multiply(phi, phi, max_degree=cap).divided_by_y_squared(), boundary
    ).scaled(0.5)
    psi = _truncated(psi, truncation)
    coupling = apply_slope_kernel(
        multiply(phi, psi, max_degree=cap).divided_by_y_squared(), boundary
    )
    coupling = _truncated(coupling, truncation)
    phi_next = (phi.scaled(1.0 - theta)
                + _scaled_forcing(boundary, -theta * load, False)
                + coupling.scaled(-theta))
    return phi_next, psi


def baseline_sweeps(load, theta, sweeps, truncation=100, boundary=BoundarySpec()):
    """Run ``ham.staggered_pass`` (c1 = -theta, c2 = -1) and ``interpolation_step``
    side by side from the same first iterate.  Yields, after each sweep, the
    pairs (phi, reference phi) and (s, reference psi): an array and a
    ``PolySeries``."""
    phi = first_iterate(load, theta, boundary)
    state = HomotopyState([phi], [np.zeros(1)], -theta, -1.0, load)
    ref = PolySeries(phi)
    for _ in range(sweeps):
        state = ham_staggered_pass(state, 1, truncation, boundary)
        ref, ref_psi = interpolation_step(ref, theta, load, boundary, truncation)
        yield (state.phi_terms[0], ref), (state.s_terms[0], ref_psi)


def grid_gap(ours, ref):
    """Sup-norm of ``ours - ref`` on the residual grid, relative to that of ``ref``."""
    size = np.max(np.abs(ref.evaluate_grid(GRID_POINTS)))
    gap = np.max(np.abs(PolySeries(add(ours, -ref.array)).evaluate_grid(GRID_POINTS)))
    return float(gap / max(size, 1e-30))
