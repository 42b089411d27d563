"""Classical interpolation iteration for the plate system, run as the
homotopy's first-order iteration.

The scheme relaxes a Picard iteration with a factor theta in (0, 1]:
starting from ``phi_1 = -theta * Q * K[1]``, each sweep computes the
membrane response of the current slope iterate and then blends

    psi_n     = (1/2) G[phi_n**2 / y**2]
    phi_(n+1) = (1 - theta) phi_n - theta Q K[1] - theta K[phi_n psi_n / y**2].

theta = 1 is the raw Picard map, which stops converging at moderate
loads; small theta trades speed for reach.  That sweep is the
first-order homotopy pass with the membrane update adopted first and
c1 = -theta, c2 = -1, so ``solve`` runs ``vkplate.ham.staggered_pass``
from ``HomotopyState([phi_1], [0], -theta, -1, Q)``.  The tests check
that correspondence against the recurrence above, written independently
on ``PolySeries`` operations.

Its settings are an order-1 ``IterateMode``: the truncation degree, the
tolerance and the sweep budget.
"""

from __future__ import annotations

import numpy as np

from .config import GRID, IterateMode
from .ham import HomotopyState, run_passes, staggered_pass
from .kernels import BoundarySpec, forcing
from .polyseries import PolySeries
from .report import RunReport


def initial_state(load: float, theta: float,
                  boundary: BoundarySpec = BoundarySpec()) -> np.ndarray:
    """First slope iterate: the load image scaled by -theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    return forcing(boundary, -theta * load)


def solve(load: float, theta: float, mode: IterateMode = IterateMode(order=1),
          boundary: BoundarySpec = BoundarySpec()) -> RunReport:
    """Sweep under an order-1 ``IterateMode`` (one sweep is one first-order
    pass) and report history in the standard schema."""
    if not (isinstance(mode, IterateMode) and mode.order == 1):
        raise ValueError(f"the baseline runs an order-1 IterateMode, got {mode!r}")
    phi = initial_state(load, theta, boundary)

    def passes(state):
        for it in range(1, mode.max_iter + 1):
            state = staggered_pass(state, boundary, mode.truncation)
            yield it, it, PolySeries(state.phi_terms[0]), PolySeries(state.s_terms[0]), load

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
    start = HomotopyState([phi], [np.zeros(1)], -theta, -1.0, load)
    return run_passes(passes(start), (PolySeries(phi), PolySeries(np.zeros(1)), load),
                      boundary, cfg, mode)
