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
        """Values at points of [0, 1], shaped like ys; other points raise ValueError.

        A float64 series is c_0 plus the vector-matrix product of
        c_1..c_{n-1} with the points' power table (``_power_table``, one
        per block of points), so a point y = 0 gives c_0 exactly; a
        double-double series goes through ``_horner_dd``.
        """
        ys = np.asarray(ys, dtype=float)
        c = self.coeffs
        if self.lo is not None:
            _check_unit(ys)
            return self._horner_dd(ys)[0]
        flat = ys.ravel()
        out = np.empty(flat.size)
        powers = 1 << max(len(c) - 2, 0).bit_length()  # a power of two >= len(c) - 1
        for b in _blocks(flat.size, powers, _TABLE_SIZE):
            # np.dot on contiguous rows: ``@`` here paged in 68 KB more code
            out[b] = c[0] + np.dot(c[1:], _power_table(flat[b], powers)[: len(c) - 1])
        return out.reshape(ys.shape)

    def _horner_dd(self, ys):
        """Double-double evaluation; returns (hi, lo) arrays shaped like ys.

        p(y) = c_0 + y * q(y), with q evaluated by ``dd.reduce_rows``
        (Estrin's scheme) and the constant term added last.  At y = 1, q
        is exactly the plain ``reduce_rows`` sum of c_1..c_{n-1}, so a
        constant set to minus that sum (see ``deflection_series``)
        cancels to zero exactly.
        """
        hi = self.coeffs
        lo = self.lo if self.lo is not None else np.zeros_like(hi)
        ys = np.asarray(ys, dtype=float)
        flat = ys.ravel()
        out_h = np.empty(flat.size)
        out_l = np.empty(flat.size)
        for b in _blocks(flat.size, len(hi) - 1, _BLOCK):
            y = flat[b]
            qh, ql = dd.reduce_rows(hi[1:, None], lo[1:, None], y)
            qh, ql = dd.mul_d(qh, ql, y)
            out_h[b], out_l[b] = dd.add(qh, ql, hi[0], lo[0])
        return out_h.reshape(ys.shape), out_l.reshape(ys.shape)

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


#: Elements per block of the broadcast double-double products in
#: ``multiply`` and ``_horner_dd``; it bounds the memory their
#: temporaries take.
_BLOCK = 8192

#: Doubles per power table; a longer grid is evaluated in blocks of
#: points, one table each.  120 KiB stays under glibc's default 128 KiB
#: mmap threshold, so a table takes heap pages that are already resident;
#: a 256 x 101 table mapped on its own added its whole size to peak RSS.
_TABLE_SIZE = 15 << 10
_MAX_TABLES = 8
#: Power tables of the blocks of points evaluated last, oldest first,
#: keyed by the bytes of their points.
_TABLES: dict[bytes, np.ndarray] = {}


def _blocks(n: int, per: int, size: int):
    """Slices covering ``range(n)``, each at most ``size // per`` long."""
    step = max(1, size // max(per, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _check_unit(ys: np.ndarray) -> None:
    if not np.all((ys >= 0.0) & (ys <= 1.0)):  # NaN fails both comparisons
        raise ValueError("evaluation grid leaves [0, 1]")


def _power_table(ys: np.ndarray, powers: int) -> np.ndarray:
    """Read-only table P[m, i] = ys[i]**(m + 1) with at least ``powers`` rows.

    The points are checked when a table is built.  Callers ask for a
    power of two, so a series that grows on one grid rebuilds its table
    about log2(degree) times; the last ``_MAX_TABLES`` blocks of points
    keep theirs.
    """
    key = ys.tobytes()
    table = _TABLES.pop(key, None)  # put back below as the newest entry
    if table is None or len(table) < powers:
        _check_unit(ys)
        table = np.cumprod(np.broadcast_to(ys, (powers, ys.size)), axis=0)
        table.flags.writeable = False
    _TABLES[key] = table
    if len(_TABLES) > _MAX_TABLES:
        del _TABLES[next(iter(_TABLES))]
    return table


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
    rows = min(n, size)
    # G[i, c] = g[c - i] (zero outside g): a view of the zero-padded g
    # whose row i starts i elements before g, so row i of f * G is f_i's
    # contribution.  ndarray checks the view against the buffer; the
    # as_strided path of sliding_window_view cost about 1 MB of peak RSS.
    pad = np.zeros((2, rows - 1 + size))
    keep = min(m, size)
    pad[0, rows - 1 : rows - 1 + keep] = ge.coeffs[:keep]
    pad[1, rows - 1 : rows - 1 + keep] = ge.lo[:keep]
    step = pad.itemsize
    Gh, Gl = np.ndarray((2, rows, size), buffer=pad, offset=(rows - 1) * step,
                        strides=(pad.strides[0], -step, step))
    out_h = np.zeros(size)
    out_l = np.zeros(size)
    for b in _blocks(rows, size, _BLOCK):
        cols = slice(b.start, min(size, b.stop - 1 + m))  # the columns rows b reach
        ph, pl = dd.mul(Gh[b, cols], Gl[b, cols], fe.coeffs[b, None], fe.lo[b, None])
        sh, sl = dd.reduce_rows(ph, pl)
        if b.start:  # a later row block adds onto the earlier ones
            sh, sl = dd.add(out_h[cols], out_l[cols], sh, sl)
        out_h[cols], out_l[cols] = sh, sl
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
    exact order evaluation at y = 1 uses (Horner for float64,
    ``dd.reduce_rows`` for double-double), so ``W.evaluate(1.0)``
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
    sh, sl = dd.reduce_rows(wh[1:], wl[1:])
    wh[0], wl[0] = -sh, -sl
    return PolySeries(wh, lo=wl)
