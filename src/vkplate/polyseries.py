"""Dense polynomial series on the unit interval.

Everything the solver manipulates (slope function, membrane-force
function, kernel images, residuals) is a polynomial in ``y`` on
``[0, 1]`` stored as a dense ascending coefficient array:
``coeffs[m]`` multiplies ``y**m``.

Instances are immutable and hold the coefficients they are given,
trailing zeros included; any series without a nonzero coefficient is
the zero polynomial, whatever its length.

Coefficients are float64 by default.  Passing a companion ``lo`` array
turns each coefficient into a double-double value (see
:mod:`vkplate.ddouble`); every operation then tracks the compensated
parts, which is what the extended-precision solver mode runs on.
"""

from __future__ import annotations

import math

import numpy as np

from . import ddouble as dd


class PolySeries:
    """Immutable dense polynomial in ``y`` on ``[0, 1]``.

    Parameters
    ----------
    coeffs : array_like
        Ascending coefficients; ``coeffs[m]`` multiplies ``y**m``.
    lo : array_like, optional
        Low-order (compensation) parts of the same length.  When given,
        the polynomial carries double-double coefficients.
    """

    __slots__ = ("coeffs", "lo")

    def __init__(self, coeffs, lo=None):
        hi = np.array(coeffs, dtype=float).ravel()
        if lo is not None:
            lo = np.array(lo, dtype=float).ravel()
            if lo.shape != hi.shape:
                raise ValueError("lo array must match coeffs in length")
            hi, lo = dd.two_sum(hi, lo)  # renormalize
        if hi.size == 0:
            hi = np.zeros(1)
            lo = None if lo is None else np.zeros(1)
        hi.flags.writeable = False
        if lo is not None:
            lo.flags.writeable = False
        object.__setattr__(self, "coeffs", hi)
        object.__setattr__(self, "lo", lo)

    def __setattr__(self, name, value):
        raise AttributeError("PolySeries is immutable")

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, extended: bool = False) -> "PolySeries":
        return cls([0.0], lo=[0.0] if extended else None)

    @property
    def extended(self) -> bool:
        return self.lo is not None

    @property
    def degree(self) -> int:
        """Highest stored power; its coefficient may be zero."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any() and (self.lo is None or not self.lo.any())

    @property
    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for the zero polynomial."""
        keep = self.coeffs != 0.0
        if self.lo is not None:
            keep = keep | (self.lo != 0.0)
        nz = np.nonzero(keep)[0]
        return int(nz[0]) if nz.size else None

    def to_extended(self) -> "PolySeries":
        if self.extended:
            return self
        return PolySeries(self.coeffs, lo=np.zeros_like(self.coeffs))

    def to_double(self) -> "PolySeries":
        if not self.extended:
            return self
        return PolySeries(self.coeffs + self.lo)

    def _parts(self, n):
        """Coefficients padded to length n, as an (hi, lo) pair (lo may be None)."""
        hi = np.zeros(n)
        hi[: len(self.coeffs)] = self.coeffs
        if self.lo is None:
            return hi, None
        lo = np.zeros(n)
        lo[: len(self.lo)] = self.lo
        return hi, lo

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        if self.lo is None and other.lo is None:
            ah, _ = self._parts(n)
            bh, _ = other._parts(n)
            return PolySeries(ah + bh)
        ah, al = self.to_extended()._parts(n)
        bh, bl = other.to_extended()._parts(n)
        h, l = dd.add(ah, al, bh, bl)
        return PolySeries(h, lo=l)

    def __sub__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        if self.lo is None:
            return PolySeries(-self.coeffs)
        return PolySeries(-self.coeffs, lo=-self.lo)

    def __mul__(self, other):
        if isinstance(other, PolySeries):
            return multiply(self, other)
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        return NotImplemented

    __rmul__ = __mul__

    def scaled(self, alpha: float) -> "PolySeries":
        if self.lo is None:
            return PolySeries(self.coeffs * alpha)
        h, l = dd.mul_d(self.coeffs, self.lo, alpha)
        return PolySeries(h, lo=l)

    # ------------------------------------------------------------------
    # series operations
    # ------------------------------------------------------------------

    def truncated(self, max_degree: int) -> "PolySeries":
        """Drop all monomials above ``max_degree``."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.degree <= max_degree:
            return self
        end = max_degree + 1
        if self.lo is None:
            return PolySeries(self.coeffs[:end])
        return PolySeries(self.coeffs[:end], lo=self.lo[:end])

    def divided_by_y_squared(self) -> "PolySeries":
        """Remove an exact ``y**2`` factor (coefficient shift by two).

        The series must vanish to second order at 0; anything else is a
        structural bug in the caller, reported as a ValueError.
        """
        if self.is_zero:
            return self
        if self.valuation < 2:
            raise ValueError("series has no y**2 factor (valuation < 2)")
        if self.lo is None:
            return PolySeries(self.coeffs[2:])
        return PolySeries(self.coeffs[2:], lo=self.lo[2:])

    def evaluate(self, y: float) -> float:
        """Horner evaluation at a point of the unit interval."""
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"evaluation point {y!r} outside [0, 1]")
        if self.lo is None:
            acc = 0.0
            for c in self.coeffs[::-1]:
                acc = acc * y + c
            return acc
        h, l = self._horner_dd(np.asarray(y, dtype=float))
        return float(h)

    def evaluate_grid(self, ys: np.ndarray) -> np.ndarray:
        """Vector Horner evaluation; points must lie in [0, 1]."""
        ys = np.asarray(ys, dtype=float)
        if ys.size and (ys.min() < 0.0 or ys.max() > 1.0):
            raise ValueError("evaluation grid leaves [0, 1]")
        if self.lo is None:
            acc = np.zeros_like(ys)
            for c in self.coeffs[::-1]:
                acc = acc * ys + c
            return acc
        h, l = self._horner_dd(ys)
        return h

    def _horner_dd(self, ys):
        """Double-double Horner; returns (hi, lo) arrays shaped like ys."""
        hi = self.coeffs
        lo = self.lo if self.lo is not None else np.zeros_like(hi)
        acc_h = np.zeros_like(ys)
        acc_l = np.zeros_like(ys)
        for j in range(len(hi) - 1, -1, -1):
            acc_h, acc_l = dd.mul_d(acc_h, acc_l, ys)
            acc_h, acc_l = dd.add(acc_h, acc_l, hi[j], lo[j])
        return acc_h, acc_l

    def integral_over_y(self) -> float:
        """The weighted integral of f(y)/y over [0, 1].

        Termwise this is the sum of ``coeffs[m] / m`` for m >= 1; the
        integrand must be regular at 0, i.e. the constant term must
        vanish.
        """
        if self.is_zero:
            return 0.0
        if self.valuation < 1:
            raise ValueError("integrand f(y)/y singular at 0 (nonzero constant term)")
        m = np.arange(1, len(self.coeffs))
        if self.lo is None:
            return math.fsum(self.coeffs[1:] / m)
        h, l = dd.div_d(self.coeffs[1:], self.lo[1:], m.astype(float))
        sh, sl = dd.reduce_sum(h, l)
        return dd.to_float(sh, sl)


def multiply(f: PolySeries, g: PolySeries, max_degree: int | None = None) -> PolySeries:
    """Product of two series (coefficient convolution).

    ``max_degree`` computes only the monomials up to that degree, which
    is how the truncated iteration caps intermediate growth.
    """
    if f.is_zero or g.is_zero:
        ext = f.extended or g.extended
        return PolySeries.zero(extended=ext)
    if f.lo is None and g.lo is None:
        out = np.convolve(f.coeffs, g.coeffs)
        if max_degree is not None:
            out = out[: max_degree + 1]
        return PolySeries(out)
    fe, ge = f.to_extended(), g.to_extended()
    n, m = len(fe.coeffs), len(ge.coeffs)
    size = n + m - 1 if max_degree is None else min(n + m - 1, max_degree + 1)
    out_h = np.zeros(size)
    out_l = np.zeros(size)
    for i in range(min(n, size)):
        stop = min(m, size - i)
        ph, pl = dd.mul(ge.coeffs[:stop], ge.lo[:stop], fe.coeffs[i], fe.lo[i])
        out_h[i : i + stop], out_l[i : i + stop] = dd.add(
            out_h[i : i + stop], out_l[i : i + stop], ph, pl
        )
    return PolySeries(out_h, lo=out_l)


def poly_sum(terms) -> PolySeries:
    """Sum of a sequence of series (the partial sum of a solution series)."""
    terms = list(terms)
    if not terms:
        return PolySeries.zero()
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def deflection_series(phi: PolySeries) -> PolySeries:
    """Deflection profile W from a slope series.

    With ``phi = sum c_m y**m`` (vanishing at 0), the deflection is
    ``W(y) = sum c_m (y**m - 1) / m``: monomial weights ``c_m / m`` plus
    a constant chosen so W(1) = 0.  The constant is accumulated in the
    exact order Horner evaluation at y = 1 uses, so ``W.evaluate(1.0)``
    cancels to zero exactly, not merely to rounding.
    """
    if phi.is_zero:
        return PolySeries.zero(extended=phi.extended)
    if phi.valuation < 1:
        raise ValueError("slope series must vanish at y = 0")
    m = np.arange(1, len(phi.coeffs))
    if phi.lo is None:
        w = np.zeros(len(phi.coeffs))
        w[1:] = phi.coeffs[1:] / m
        acc = 0.0
        for j in range(len(w) - 1, 0, -1):
            acc = acc + w[j]
        w[0] = -acc
        return PolySeries(w)
    wh = np.zeros(len(phi.coeffs))
    wl = np.zeros(len(phi.coeffs))
    wh[1:], wl[1:] = dd.div_d(phi.coeffs[1:], phi.lo[1:], m.astype(float))
    acc_h, acc_l = 0.0, 0.0
    for j in range(len(wh) - 1, 0, -1):
        acc_h, acc_l = dd.add(acc_h, acc_l, wh[j], wl[j])
    wh[0], wl[0] = -acc_h, -acc_l
    return PolySeries(wh, lo=wl)
