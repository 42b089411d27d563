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
c1 = -theta, c2 = -1, and ``phi_1`` is ``given_load.initial_slope`` at
c0 = -theta, so ``solve`` is ``GivenLoadProblem(Q, -theta, -1, mode,
boundary)`` solved by ``ham.solve`` from that guess and no membrane force,
with ``ham.staggered_pass`` as its pass.  The tests check that
correspondence against the recurrence above, written independently on
``PolySeries`` operations.

Its settings are an order-1 ``IterateMode``: the truncation degree, the
tolerance and the sweep budget.
"""

from __future__ import annotations

from . import ham
from .config import IterateMode
from .given_load import GivenLoadProblem, initial_slope
from .kernels import BoundarySpec
from .report import RunReport


def solve(load: float, theta: float, mode: IterateMode = IterateMode(order=1),
          boundary: BoundarySpec = BoundarySpec()) -> RunReport:
    """Sweep under an order-1 ``IterateMode`` (one sweep is one first-order
    pass) with theta in (0, 1], and report history in the standard schema."""
    if not (isinstance(mode, IterateMode) and mode.order == 1):
        raise ValueError(f"the baseline runs an order-1 IterateMode, got {mode!r}")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta = {theta} outside (0, 1]")
    problem = GivenLoadProblem(load, -theta, -1.0, mode, boundary)
    # looked up here, so that a wrapped ham.staggered_pass (a profiler's) is the one run
    return ham.solve(problem, initial_slope(load, -theta, boundary),
                     {"solver": "interpolation", "load": load, "theta": theta},
                     step=ham.staggered_pass)
