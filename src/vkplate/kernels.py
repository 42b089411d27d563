"""Boundary data and analytic kernel application.

The plate equations in integral form involve two piecewise-bilinear
kernels over the unit square, one for the slope equation and one for
the membrane-force equation.  Both have the shape

    K(y, e) = (w - 1) * y * e + min(y, e)

where the edge weight ``w`` encodes the support condition (``lam`` for
the slope kernel, ``mu`` for the membrane kernel).  Acting on a
monomial the kernel integrates in closed form,

    e**m  ->  [(w - 1)/(m + 2) + 1/(m + 1)] * y + [1/(m + 2) - 1/(m + 1)] * y**(m + 2),

so applying a kernel to a polynomial is a cheap coefficient map: every
input monomial feeds the linear term plus one shifted monomial.  The
closed form is validated against adaptive quadrature in the test suite
before anything else trusts it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ddouble as dd
from .polyseries import PolySeries, fsum, scale, weighted_integral, widen

#: Supported support conditions at the plate edge.
BOUNDARY_KINDS = ("clamped", "moveable", "simple", "hinged")


@dataclass(frozen=True)
class BoundarySpec:
    """Edge support condition and Poisson ratio.

    The kernel edge weights are fixed by the kind:

    ==========  ==============  ==============
    kind        lam (slope)     mu (membrane)
    ==========  ==============  ==============
    clamped     0               2/(1 - nu)
    moveable    0               0
    simple      2/(1 + nu)      0
    hinged      2/(1 + nu)      2/(1 - nu)
    ==========  ==============  ==============

    ``clamped`` is the immovable clamped edge, ``moveable`` the clamped
    edge free to slide radially, ``simple`` the movable simple support
    and ``hinged`` the immovable (hinged) simple support.
    """

    kind: str = "clamped"
    nu: float = 0.3

    def __post_init__(self):
        if self.kind not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; expected one of {BOUNDARY_KINDS}")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio {self.nu} outside (0, 0.5)")
        assert 2.0 * self.lam + 1.0 > 0.0

    @property
    def lam(self) -> float:
        return 0.0 if self.kind in ("clamped", "moveable") else 2.0 / (1.0 + self.nu)

    @property
    def mu(self) -> float:
        return 2.0 / (1.0 - self.nu) if self.kind in ("clamped", "hinged") else 0.0


@functools.lru_cache(maxsize=64)
def _weights(w: float, size: int, extended: bool):
    """Read-only lin and tail weights of monomials 0..size-1, as (lin, tail)
    or, in double-double, (lin_h, lin_l, tail_h, tail_l).

    They depend only on (w, m), so they are computed once per edge weight
    and power-of-two length and sliced to n.
    """
    m = np.arange(size, dtype=float)
    if extended:
        # the weight enters as the exact pair w - 1
        wm1_h, wm1_l = dd.two_sum(w, -1.0)
        a_h, a_l = dd.div_d(np.full(size, wm1_h), np.full(size, wm1_l), m + 2.0)
        b_h, b_l = dd.div_d(1.0, 0.0, m + 1.0)
        c_h, c_l = dd.div_d(1.0, 0.0, m + 2.0)
        weights = dd.add(a_h, a_l, b_h, b_l) + dd.add(c_h, c_l, -b_h, -b_l)
    else:
        weights = ((w - 1.0) / (m + 2.0) + 1.0 / (m + 1.0), 1.0 / (m + 2.0) - 1.0 / (m + 1.0))
    for a in weights:
        a.flags.writeable = False
    return weights


def kernel_map(f: np.ndarray, w: float) -> np.ndarray:
    """Integrate a coefficient array against the kernel of edge weight w.

    A zero array, empty included, maps to [0]: an image is two coefficients
    longer than its input, so a zero image would otherwise grow every order."""
    if not np.count_nonzero(f):
        return np.zeros(f.shape[:-1] + (1,))
    if f.ndim == 3 and not all(map(np.count_nonzero, f)):  # an axis count paged in 192 KB
        raise ValueError("a zero row in a nonzero batch: its image would be shorter")
    n = f.shape[-1]
    weights = [a[:n] for a in _weights(w, 1 << (n - 1).bit_length(), f.ndim == 2)]
    out = np.zeros(f.shape[:-1] + (n + 2,))
    if f.ndim != 2:
        lin, tail = weights
        out[..., 2:] = f * tail
        # all input monomials contribute to the linear term; fsum keeps the
        # accumulated rounding from drifting over long runs
        out[1 if f.ndim == 1 else np.s_[..., 1:2]] += fsum(f * lin)  # a sum per batch row
        return out
    lin_h, lin_l, tail_h, tail_l = weights
    out[:, 2:] = dd.mul(f[0], f[1], tail_h, tail_l)
    s, e = dd.dot_rows(f[0], lin_h)
    out[:, 1] = dd.quick_two_sum(s, e + (np.dot(f[0], lin_l) + np.dot(f[1], lin_h)))
    return out


def apply_slope_kernel(f: PolySeries, boundary: BoundarySpec) -> PolySeries:
    """Kernel of the slope equation acting on a series (edge weight lam)."""
    return PolySeries.from_array(kernel_map(f.array, boundary.lam))


def apply_membrane_kernel(f: PolySeries, boundary: BoundarySpec) -> PolySeries:
    """Kernel of the membrane-force equation acting on a series (edge weight mu)."""
    return PolySeries.from_array(kernel_map(f.array, boundary.mu))


def forcing(boundary: BoundarySpec, load: float = 1.0, extended: bool = False) -> np.ndarray:
    """Coefficients of a load's image, load * ((lam + 1) y - y**2) / 2, scaled in
    double-double when ``extended``."""
    unit = np.array([0.0, (boundary.lam + 1.0) / 2.0, -0.5])
    return scale(widen(unit) if extended else unit, load)


@functools.lru_cache(maxsize=16)
def forcing_integral(boundary: BoundarySpec) -> float:
    """Weighted integral of the unit-load image, (2 lam + 1) / 4, computed once per boundary."""
    return weighted_integral(forcing(boundary))
