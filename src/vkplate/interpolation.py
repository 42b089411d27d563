"""Classical interpolation iteration for the plate system, plus the
executable equivalence check against the homotopy machinery.

The scheme relaxes a Picard iteration with a factor theta in (0, 1]:
starting from ``phi_1 = -theta * Q * K[1]``, each sweep computes the
membrane response of the current slope iterate and then blends

    psi_n     = (1/2) G[phi_n**2 / y**2]
    phi_(n+1) = (1 - theta) phi_n - theta Q K[1] - theta K[phi_n psi_n / y**2].

theta = 1 is the raw Picard map, which stops converging at moderate
loads; small theta trades speed for reach.  ``step`` is written
directly from that recurrence and shares nothing with the homotopy
stepping, which is the point: ``equivalence_check`` runs both and
confirms they produce the same iterates when the homotopy is driven
first-order, staggered, with c1 = -theta and c2 = -1.  Only the run
bookkeeping (``vkplate.ham.run_passes``) is common to both solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_GRID
from .ham import HomotopyState, run_passes, staggered_pass
from .kernels import (
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    load_forcing,
)
from .polyseries import PolySeries, multiply
from .report import RunReport


@dataclass
class InterpState:
    """One sweep of the interpolation iteration.

    ``phi`` is the current slope iterate; ``psi`` the membrane response
    computed during the latest sweep (None before the first one).
    """

    theta: float
    load: float
    boundary: BoundarySpec
    phi: PolySeries
    psi: PolySeries | None
    iteration: int


def initial_state(load: float, theta: float,
                  boundary: BoundarySpec = BoundarySpec()) -> InterpState:
    """First iterate: the load image scaled by -theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    phi1 = load_forcing(boundary).scaled(-theta * load)
    return InterpState(theta, load, boundary, phi1, None, iteration=1)


def step(state: InterpState, truncation: int | None = 100) -> InterpState:
    """One sweep of the recurrence; degrees capped at the truncation."""
    b = state.boundary
    cap = None if truncation is None else truncation + 2
    phi = state.phi
    psi = apply_membrane_kernel(
        multiply(phi, phi, max_degree=cap).divided_by_y_squared(), b
    ).scaled(0.5)
    if truncation is not None:
        psi = psi.truncated(truncation)
    coupling = apply_slope_kernel(
        multiply(phi, psi, max_degree=cap).divided_by_y_squared(), b
    )
    if truncation is not None:
        coupling = coupling.truncated(truncation)
    theta = state.theta
    phi_next = (phi.scaled(1.0 - theta)
                - load_forcing(b).scaled(theta * state.load)
                - coupling.scaled(theta))
    return InterpState(theta, state.load, b, phi_next, psi,
                       state.iteration + 1)


def solve(load: float, theta: float, boundary: BoundarySpec = BoundarySpec(),
          truncation: int | None = 100, tol: float = 1e-12,
          max_iter: int = 500, grid_size: int = DEFAULT_GRID) -> RunReport:
    """Iterate to tolerance and report history in the standard schema."""
    state = initial_state(load, theta, boundary)

    def passes(state):
        for it in range(1, max_iter + 1):
            state = step(state, truncation)
            yield it, it, state.phi, state.psi, load

    cfg = {
        "solver": "interpolation",
        "load": load,
        "theta": theta,
        "boundary": boundary.kind,
        "nu": boundary.nu,
        "truncation": truncation,
        "tol": tol,
        "max_iter": max_iter,
        "grid_size": grid_size,
    }
    return run_passes(passes(state), (state.phi, PolySeries.zero(), load), boundary,
                      cfg, grid_size=grid_size, tol=tol, stop_at_tol=True)


def equivalence_check(load: float, theta: float, iterations: int = 50,
                      truncation: int | None = 100,
                      boundary: BoundarySpec = BoundarySpec()) -> float:
    """Largest relative sup-norm gap between the two codepaths.

    Runs the interpolation recurrence and the staggered first-order
    homotopy (c1 = -theta, c2 = -1) side by side from the same first
    iterate and compares both function pairs on a uniform grid after
    every sweep.  Agreement to rounding is the executable proof that
    the classical scheme is that homotopy special case.
    """
    interp = initial_state(load, theta, boundary)
    ham_state = HomotopyState([load_forcing(boundary).scaled(-theta * load).array],
                              [PolySeries.zero().array], -theta, -1.0, load)
    ys = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(iterations):
        interp = step(interp, truncation)
        ham_state = staggered_pass(ham_state, boundary, truncation)
        pairs = ((interp.phi, PolySeries(ham_state.phi_terms[0])),
                 (interp.psi, PolySeries(ham_state.s_terms[0])))
        for ours, theirs in pairs:
            ref = float(np.max(np.abs(theirs.evaluate_grid(ys))))
            gap = float(np.max(np.abs((ours - theirs).evaluate_grid(ys))))
            worst = max(worst, gap / max(ref, 1e-30))
    return worst
