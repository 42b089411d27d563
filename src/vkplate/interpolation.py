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
c1 = -theta, c2 = -1, so ``solve`` is the problem
``GivenLoadProblem(Q, -theta, -1, mode, boundary)`` solved by
``vkplate.ham.solve`` with ``vkplate.ham.staggered_pass`` as its pass,
from the guess ``phi_1`` and no membrane force.  The tests check that
correspondence against the recurrence above, written independently on
``PolySeries`` operations.

Its settings are an order-1 ``IterateMode``: the truncation degree, the
tolerance and the sweep budget.
"""

from __future__ import annotations

import numpy as np

from . import ham
from .config import IterateMode
from .given_load import GivenLoadProblem
from .kernels import BoundarySpec, forcing
from .report import RunReport


def initial_state(load: float, theta: float,
                  boundary: BoundarySpec = BoundarySpec()) -> np.ndarray:
    """First slope iterate: the load image scaled by -theta."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    return forcing(boundary, -theta * load)


def _sweep(state, order, truncation, boundary):
    """One baseline sweep, called as a pass of ``ham.homotopy_passes``;
    ``order`` is 1, as ``solve`` checks."""
    return ham.staggered_pass(state, boundary, truncation)


def solve(load: float, theta: float, mode: IterateMode = IterateMode(order=1),
          boundary: BoundarySpec = BoundarySpec()) -> RunReport:
    """Sweep under an order-1 ``IterateMode`` (one sweep is one first-order
    pass) and report history in the standard schema."""
    if not (isinstance(mode, IterateMode) and mode.order == 1):
        raise ValueError(f"the baseline runs an order-1 IterateMode, got {mode!r}")
    phi = initial_state(load, theta, boundary)
    problem = GivenLoadProblem(load, -theta, -1.0, mode, boundary)
    return ham.solve(problem, phi,
                     {"solver": "interpolation", "load": load, "theta": theta},
                     step=_sweep)
