"""Prescribed-load solver: given the load number Q, find the deflected state.

The zeroth-order guess is the load image itself scaled by the control
value, ``phi0 = Q * c * K[1]``, with no membrane force.  The series
mode sums deformation orders directly; the iterate mode repeats short
truncated passes until the residual meets tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .config import (
    DEFAULT_GRID,
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


@dataclass(frozen=True)
class GivenLoadProblem:
    """A prescribed-load run: load number, control values, mode, boundary."""

    load: float
    c1: float
    c2: float
    mode: SeriesMode | IterateMode
    boundary: BoundarySpec = BoundarySpec()
    grid_size: int = DEFAULT_GRID
    precision: str = "double"

    def __post_init__(self):
        if not math.isfinite(self.load):
            raise ValueError("load must be finite")
        check_control(self.c1, self.c2)
        check_precision(self.precision)
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")

    @classmethod
    def with_c0(cls, load, c0, mode, **kw):
        """Single-control shorthand: c1 = c2 = c0."""
        return cls(load, c0, c0, mode, **kw)


def empirical_c0(load: float, iterated: bool = False) -> float:
    """Fitted control value for a load number.

    ``-13 / (13 + Q**2)`` works well for the plain series at moderate
    loads; ``-23 / (Q + 23)`` for the truncated iteration at large ones.
    """
    if iterated:
        return -23.0 / (load + 23.0)
    return -13.0 / (13.0 + load * load)


def initial_slope(load: float, c0: float, boundary: BoundarySpec) -> PolySeries:
    """Zeroth-order slope guess Q * c0 * ((lam + 1) y - y**2) / 2."""
    return load_forcing(boundary).scaled(load * c0)


def solve(problem: GivenLoadProblem) -> RunReport:
    """Run the configured mode and report per-step history plus the solution."""
    b = problem.boundary
    q = problem.load
    extended = problem.precision == "extended"
    phi0 = initial_slope(q, problem.c1, b)
    s0 = PolySeries.zero(extended=extended)
    if extended:
        phi0 = phi0.to_extended()
    state = HomotopyState.for_load(phi0.array, s0.array, q, problem.c1, problem.c2)

    mode = problem.mode
    passes = homotopy_passes(state, mode, b)
    if isinstance(mode, SeriesMode):  # a series also records its guess
        passes = itertools.chain([(0, 0, phi0, s0, q)], passes)
    return run_passes(passes, (phi0, s0, q), b,
                      config_echo(problem, {"solver": "given_load", "load": q}),
                      grid_size=problem.grid_size, tol=mode.tol,
                      stop_at_tol=isinstance(mode, IterateMode))
