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

Like the homotopy recurrence, a sweep runs on float64 coefficient
arrays and the array functions of :mod:`.polyseries`; ``InterpState``
holds arrays, and ``solve`` wraps them in ``PolySeries`` only for the
passes it hands to ``run_passes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_GRID
from .ham import HomotopyState, run_passes, staggered_pass
from .kernels import BoundarySpec, forcing, kernel_map
from .polyseries import PolySeries, add, convolve, over_y_squared, scale
from .report import RunReport


@dataclass
class InterpState:
    """One sweep of the interpolation iteration.

    ``phi`` is the current slope iterate and ``psi`` the membrane response
    computed during the latest sweep (None before the first one), both as
    float64 coefficient arrays.
    """

    theta: float
    load: float
    boundary: BoundarySpec
    phi: np.ndarray
    psi: np.ndarray | None
    iteration: int


def initial_state(load: float, theta: float,
                  boundary: BoundarySpec = BoundarySpec()) -> InterpState:
    """First iterate: the load image scaled by -theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    return InterpState(theta, load, boundary, forcing(boundary, -theta * load), None,
                       iteration=1)


def step(state: InterpState, truncation: int | None = 100) -> InterpState:
    """One sweep of the recurrence; degrees capped at the truncation."""
    if truncation is not None and truncation < 0:
        raise ValueError("truncation must be >= 0")
    b = state.boundary
    cap = None if truncation is None else truncation + 2
    keep = slice(None) if truncation is None else slice(truncation + 1)
    phi, theta = state.phi, state.theta
    psi = scale(kernel_map(over_y_squared(convolve(phi, phi, cap)), b.mu), 0.5)[keep]
    coupling = kernel_map(over_y_squared(convolve(phi, psi, cap)), b.lam)[keep]
    phi_next = add(add(scale(phi, 1.0 - theta), -forcing(b, theta * state.load)),
                   -scale(coupling, theta))
    return InterpState(theta, state.load, b, phi_next, psi, state.iteration + 1)


def solve(load: float, theta: float, boundary: BoundarySpec = BoundarySpec(),
          truncation: int | None = 100, tol: float = 1e-12,
          max_iter: int = 500, grid_size: int = DEFAULT_GRID) -> RunReport:
    """Iterate to tolerance and report history in the standard schema."""
    state = initial_state(load, theta, boundary)

    def passes(state):
        for it in range(1, max_iter + 1):
            state = step(state, truncation)
            yield it, it, PolySeries(state.phi), PolySeries(state.psi), load

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
    start = (PolySeries(state.phi), PolySeries(np.zeros(1)), load)
    return run_passes(passes(state), start, boundary, cfg, grid_size=grid_size, tol=tol,
                      stop_at_tol=True)


def equivalence_check(load: float, theta: float, iterations: int = 50,
                      truncation: int | None = 100,
                      boundary: BoundarySpec = BoundarySpec()) -> float:
    """Largest relative sup-norm gap between the two codepaths.

    Runs the interpolation recurrence and the staggered first-order
    homotopy (c1 = -theta, c2 = -1) side by side from the same first
    iterate and compares both function pairs on a uniform grid after
    every sweep.  Agreement to rounding is the executable proof that
    the classical scheme is that homotopy special case, so at least one
    sweep is required.
    """
    if iterations < 1:
        raise ValueError(f"iterations = {iterations}; the check needs at least one sweep")
    interp = initial_state(load, theta, boundary)
    ham_state = HomotopyState([interp.phi], [np.zeros(1)], -theta, -1.0, load)
    ys = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for _ in range(iterations):
        interp = step(interp, truncation)
        ham_state = staggered_pass(ham_state, boundary, truncation)
        pairs = ((interp.phi, ham_state.phi_terms[0]), (interp.psi, ham_state.s_terms[0]))
        for ours, theirs in pairs:
            ref = float(np.max(np.abs(PolySeries(theirs).evaluate_grid(ys))))
            gap = float(np.max(np.abs(PolySeries(add(ours, -theirs)).evaluate_grid(ys))))
            worst = max(worst, gap / max(ref, 1e-30))
    return worst
