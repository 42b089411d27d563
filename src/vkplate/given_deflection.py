"""Prescribed-deflection solver: pin the center deflection, recover the load.

The zeroth-order guess ``phi0 = (-2a / (2 lam + 1)) ((lam + 1) y - y**2)``
is built so its weighted integral equals ``-a`` exactly; every later
order keeps a vanishing weighted integral because
:func:`vkplate.ham.deformation_step` solves one term of the load
expansion per order from that side condition, so the center deflection
never moves while the load estimate converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import (
    DEFAULT_GRID,
    DIVERGENCE_ERR,
    IterateMode,
    SeriesMode,
    check_control,
    check_precision,
    config_echo,
)
from .ham import HomotopyState, homotopy_passes, run_passes
from .kernels import BoundarySpec, load_forcing
from .polyseries import PolySeries
from .report import RunReport

#: Hard guard on the side condition; drifting past this means a bug, not rounding.
_RESTRICTION_GUARD = 1e-6


@dataclass(frozen=True)
class GivenDeflectionProblem:
    """A prescribed-deflection run: center deflection (in W units), controls, mode."""

    deflection: float
    c1: float
    c2: float
    mode: SeriesMode | IterateMode
    boundary: BoundarySpec = BoundarySpec()
    grid_size: int = DEFAULT_GRID
    precision: str = "double"
    divergence_err: float = DIVERGENCE_ERR

    def __post_init__(self):
        if not math.isfinite(self.deflection) or self.deflection <= 0.0:
            raise ValueError("deflection must be finite and positive")
        check_control(self.c1, self.c2)
        check_precision(self.precision)
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")

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


def initial_slope(deflection: float, boundary: BoundarySpec) -> PolySeries:
    """Zeroth-order slope guess with weighted integral exactly -deflection."""
    scale = -4.0 * deflection / (2.0 * boundary.lam + 1.0)
    return load_forcing(boundary).scaled(scale)


def solve(problem: GivenDeflectionProblem) -> RunReport:
    """Run the configured mode; history carries the evolving load estimate."""
    b = problem.boundary
    a = problem.deflection
    extended = problem.precision == "extended"
    phi0 = initial_slope(a, b)
    s0 = PolySeries.zero(extended=extended)
    if extended:
        phi0 = phi0.to_extended()
    state = HomotopyState.for_deflection(phi0, s0, a, problem.c1, problem.c2)

    worst_defect = 0.0

    def guarded(passes):
        nonlocal worst_defect
        for iteration, order, phi, s, q in passes:
            defect = abs(phi.integral_over_y() + a)
            worst_defect = max(worst_defect, defect)
            if defect > _RESTRICTION_GUARD:
                raise RuntimeError(f"side condition drifted to {defect:.3e}; "
                                   "the load-term solve is broken")
            yield iteration, order, phi, s, q

    mode = problem.mode
    report = run_passes(guarded(homotopy_passes(state, mode, b)), (phi0, s0, 0.0), b,
                        config_echo(problem, {"solver": "given_deflection",
                                              "deflection": a}),
                        grid_size=problem.grid_size,
                        divergence_err=problem.divergence_err, tol=mode.tol,
                        stop_at_tol=isinstance(mode, IterateMode))
    report.restriction_defect = worst_defect
    return report
