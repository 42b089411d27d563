"""Prescribed-deflection solver: pin the center deflection, recover the load.

The zeroth-order guess ``phi0 = (-2a / (2 lam + 1)) ((lam + 1) y - y**2)``
is built so its weighted integral equals ``-a`` exactly; every later
order keeps a vanishing weighted integral because
:func:`vkplate.ham.deformation_step` solves one term of the load
expansion per order from that side condition, so the center deflection
never moves while the load estimate converges; ``solve`` guards that on
every pass ``run_passes`` scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ham
from .config import IterateMode, SeriesMode, check_settings
from .kernels import BoundarySpec, forcing
from .report import RunReport

#: Hard guard on the side condition of every pass not scored as diverged;
#: drifting past this means a bug, not rounding.  A diverging run is exempt:
#: its coefficients grow without bound, and a defect of order one is then
#: rounding.
_RESTRICTION_GUARD = 1e-6


@dataclass(frozen=True)
class GivenDeflectionProblem:
    """A prescribed-deflection run: center deflection (in W units), controls, mode."""

    deflection: float
    c1: float
    c2: float
    mode: SeriesMode | IterateMode
    boundary: BoundarySpec = BoundarySpec()
    precision: str = "double"

    def __post_init__(self):
        if not math.isfinite(self.deflection) or self.deflection <= 0.0:
            raise ValueError("deflection must be finite and positive")
        if isinstance(self.mode, SeriesMode) and self.mode.order == 0:
            raise ValueError("a deflection series needs order >= 1: "
                             "order 0 has no load term to score")
        check_settings(self)

    @classmethod
    def with_c0(cls, deflection, c0, mode, **kw):
        """Single-control shorthand: c1 = c2 = c0."""
        return cls(deflection, c0, c0, mode, **kw)


def empirical_c0(deflection: float, iterated: bool = False) -> float:
    """Fitted control value for a prescribed deflection.

    ``-11 / (11 + a**2)`` suits the plain series up to moderate
    deflections; ``-25 / (25 + a**2)`` the truncated iteration.
    """
    a2 = deflection * deflection
    if iterated:
        return -25.0 / (25.0 + a2)
    return -11.0 / (11.0 + a2)


def initial_slope(deflection: float, boundary: BoundarySpec) -> np.ndarray:
    """Coefficients of the zeroth-order slope guess, weighted integral exactly -deflection."""
    return forcing(boundary, -4.0 * deflection / (2.0 * boundary.lam + 1.0))


def solve(problem: GivenDeflectionProblem, state: ham.HomotopyState | None = None) -> RunReport:
    """Run the configured mode; history carries the evolving load estimate,
    ``restriction_defect`` the worst |w0 + a| of a pass (``ham.run_passes``)."""
    a = problem.deflection

    def guard(w0, diverged):
        defect = abs(w0 + a)
        if defect > _RESTRICTION_GUARD and not diverged:
            raise RuntimeError(f"side condition drifted to {defect:.3e}; "
                               "the load-term solve is broken")
        return defect

    return ham.solve(problem, initial_slope(a, problem.boundary),
                     {"solver": "given_deflection", "deflection": a}, guard, state=state)
