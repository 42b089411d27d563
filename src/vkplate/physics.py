"""Dimensional bookkeeping between a physical plate and solver units.

The solver works in the scaled variables: radial position enters as
``y = (r / R_a)**2``, the deflection as ``W = sqrt(3 (1 - nu**2)) * w / h``
and the lateral pressure as the load number

    Q = 3 (1 - nu**2) * sqrt(3 (1 - nu**2)) * R_a**4 * p / (4 E h**4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyseries import PolySeries, deflection_series


@dataclass(frozen=True)
class PhysicalPlate:
    """Geometry, material and pressure of a thin circular plate."""

    young_modulus: float
    poisson: float
    radius: float
    thickness: float
    pressure: float

    def __post_init__(self):
        if self.young_modulus <= 0.0:
            raise ValueError("Young modulus must be positive")
        if not 0.0 < self.poisson < 0.5:
            raise ValueError("Poisson ratio outside (0, 0.5)")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.thickness < self.radius:
            raise ValueError("thickness must be positive and below the radius")
        if not math.isfinite(self.pressure):
            raise ValueError("pressure must be finite")


def load_number(plate: PhysicalPlate) -> float:
    """Dimensionless load Q of a plate under uniform pressure."""
    s = 3.0 * (1.0 - plate.poisson**2)
    return (s * math.sqrt(s) * plate.radius**4 * plate.pressure
            / (4.0 * plate.young_modulus * plate.thickness**4))


def deflection_scale(nu: float) -> float:
    """W per unit of w/h: sqrt(3 (1 - nu**2))."""
    return math.sqrt(3.0 * (1.0 - nu * nu))


def w_over_h(w0: float, nu: float) -> float:
    """Center deflection in thickness units from a solver-scale value."""
    return abs(w0) / deflection_scale(nu)


def deflection_curve(phi: PolySeries, nu: float, samples: int = 101):
    """Deflection profile of a slope series.

    Returns rows ``(y, r_over_Ra, W, w_over_h)`` on a uniform y-grid;
    the radial coordinate is the square root of y and the last column
    rescales W into thickness units (signed).
    """
    if samples < 2:
        raise ValueError("need at least two sample points")
    ys = np.linspace(0.0, 1.0, samples)
    ws, scale = deflection_series(phi).evaluate(ys), deflection_scale(nu)
    return [(y, math.sqrt(y), w, w / scale) for y, w in zip(ys.tolist(), ws.tolist())]
