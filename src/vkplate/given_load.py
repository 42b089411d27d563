"""Prescribed-load solver: given the load number Q, find the deflected state.

The zeroth-order guess is the load image itself scaled by the control
value, ``phi0 = Q * c * K[1]``, with no membrane force.  The series
mode sums deformation orders directly; the iterate mode repeats short
truncated passes until the residual meets tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ham
from .config import IterateMode, SeriesMode, check_settings
from .kernels import BoundarySpec, forcing
from .report import RunReport


@dataclass(frozen=True)
class GivenLoadProblem:
    """A prescribed-load run: load number, control values, mode, boundary."""

    load: float
    c1: float
    c2: float
    mode: SeriesMode | IterateMode
    boundary: BoundarySpec = BoundarySpec()
    precision: str = "double"

    def __post_init__(self):
        if not math.isfinite(self.load):
            raise ValueError("load must be finite")
        check_settings(self)

    @classmethod
    def with_c0(cls, load, c0, mode, **kw):
        """Single-control shorthand: c1 = c2 = c0."""
        return cls(load, c0, c0, mode, **kw)


def empirical_c0(load: float, iterated: bool = False) -> float:
    """Fitted control value for a load number; even in Q, as -Q only flips phi.

    ``-13 / (13 + Q**2)`` works well for the plain series at moderate
    loads; ``-23 / (|Q| + 23)`` for the truncated iteration at large ones.
    """
    q = abs(load)
    if iterated:
        return -23.0 / (q + 23.0)
    return -13.0 / (13.0 + q * q)


def initial_slope(load: float, c0: float, boundary: BoundarySpec) -> np.ndarray:
    """Coefficients of the zeroth-order slope guess Q * c0 * ((lam + 1) y - y**2) / 2."""
    return forcing(boundary, load * c0)


def solve(problem: GivenLoadProblem) -> RunReport:
    """Run the configured mode and report per-step history plus the solution."""
    q = problem.load
    return ham.solve(problem, initial_slope(q, problem.c1, problem.boundary),
                     {"solver": "given_load", "load": q})
