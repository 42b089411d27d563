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
stepping but the truncation rule (``vkplate.ham.truncation_rule``).
That independence is the point: ``equivalence_check`` runs both and
confirms they produce the same iterates when the homotopy is driven
first-order, staggered, with c1 = -theta and c2 = -1.  Besides that
rule, only the run bookkeeping (``vkplate.ham.run_passes``) is common
to both solvers.

Like the homotopy recurrence, a sweep runs on float64 coefficient
arrays and the array functions of :mod:`.polyseries`; ``solve`` wraps
them in ``PolySeries`` only for the passes it hands to ``run_passes``.
Its settings are an order-1 ``IterateMode``, because the scheme is the
homotopy's first-order iteration: the truncation degree, the tolerance
and the sweep budget.
"""

from __future__ import annotations

import numpy as np

from .config import GRID, IterateMode
from .ham import HomotopyState, run_passes, staggered_pass, truncation_rule
from .kernels import BoundarySpec, forcing, kernel_map
from .polyseries import PolySeries, add, convolve, over_y_squared, scale
from .report import RunReport


def initial_state(load: float, theta: float,
                  boundary: BoundarySpec = BoundarySpec()) -> np.ndarray:
    """First slope iterate: the load image scaled by -theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    return forcing(boundary, -theta * load)


def step(phi: np.ndarray, theta: float, load: float, boundary: BoundarySpec,
         truncation: int | None = IterateMode.truncation):
    """One sweep of the recurrence from the slope iterate ``phi``.

    Returns ``(phi_next, psi)``, psi being the membrane response of
    ``phi``; degrees are capped at the truncation.
    """
    cap, keep = truncation_rule(truncation)
    psi = scale(kernel_map(over_y_squared(convolve(phi, phi, cap)), boundary.mu), 0.5)[keep]
    coupling = kernel_map(over_y_squared(convolve(phi, psi, cap)), boundary.lam)[keep]
    phi_next = add(add(scale(phi, 1.0 - theta), -forcing(boundary, theta * load)),
                   -scale(coupling, theta))
    return phi_next, psi


def solve(load: float, theta: float, mode: IterateMode = IterateMode(order=1),
          boundary: BoundarySpec = BoundarySpec()) -> RunReport:
    """Sweep under an order-1 ``IterateMode`` (one sweep is one first-order
    pass) and report history in the standard schema."""
    if not (isinstance(mode, IterateMode) and mode.order == 1):
        raise ValueError(f"the baseline runs an order-1 IterateMode, got {mode!r}")
    phi = initial_state(load, theta, boundary)

    def passes(phi):
        for it in range(1, mode.max_iter + 1):
            phi, psi = step(phi, theta, load, boundary, mode.truncation)
            yield it, it, PolySeries(phi), PolySeries(psi), load

    cfg = {
        "solver": "interpolation",
        "load": load,
        "theta": theta,
        "boundary": boundary.kind,
        "nu": boundary.nu,
        "truncation": mode.truncation,
        "tol": mode.tol,
        "max_iter": mode.max_iter,
        "grid_size": GRID,
    }
    start = (PolySeries(phi), PolySeries(np.zeros(1)), load)
    return run_passes(passes(phi), start, boundary, cfg, mode)


def equivalence_check(load: float, theta: float, iterations: int = 50,
                      truncation: int | None = IterateMode.truncation,
                      boundary: BoundarySpec = BoundarySpec()) -> float:
    """Largest relative sup-norm gap between the two codepaths.

    Runs the interpolation recurrence and the staggered first-order
    homotopy (c1 = -theta, c2 = -1) side by side from the same first
    iterate and compares both function pairs on the residual grid after
    every sweep.  Agreement to rounding is the executable proof that
    the classical scheme is that homotopy special case, so at least one
    sweep is required.
    """
    if iterations < 1:
        raise ValueError(f"iterations = {iterations}; the check needs at least one sweep")
    phi = initial_state(load, theta, boundary)
    ham_state = HomotopyState([phi], [np.zeros(1)], -theta, -1.0, load)
    ys = np.linspace(0.0, 1.0, GRID + 1)
    worst = 0.0
    for _ in range(iterations):
        phi, psi = step(phi, theta, load, boundary, truncation)
        ham_state = staggered_pass(ham_state, boundary, truncation)
        pairs = ((phi, ham_state.phi_terms[0]), (psi, ham_state.s_terms[0]))
        for ours, theirs in pairs:
            ref = float(np.max(np.abs(PolySeries(theirs).evaluate_grid(ys))))
            gap = float(np.max(np.abs(PolySeries(add(ours, -theirs)).evaluate_grid(ys))))
            worst = max(worst, gap / max(ref, 1e-30))
    return worst
