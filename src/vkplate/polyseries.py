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

The arithmetic is written once, on coefficient arrays (``PolySeries.array``:
float64 ``coeffs``, or the (2, n) stack of ``coeffs`` over ``lo``); the
methods call the module functions that take them, and the homotopy
recurrence of :mod:`vkplate.ham` runs on such arrays directly.
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
        return not np.count_nonzero(self.array)

    @property
    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for the zero polynomial."""
        nz = np.flatnonzero(np.atleast_2d(self.array).any(axis=0))
        return int(nz[0]) if nz.size else None

    def to_extended(self) -> "PolySeries":
        return self if self.extended else PolySeries.from_array(widen(self.coeffs))

    @property
    def array(self) -> np.ndarray:
        """The coefficients as one array: ``coeffs``, or ``coeffs`` stacked over ``lo``."""
        return self.coeffs if self.lo is None else np.stack((self.coeffs, self.lo))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "PolySeries":
        """The series of a coefficient array laid out as ``array`` lays it out."""
        return cls(a) if a.ndim == 1 else cls(a[0], lo=a[1])

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return PolySeries.from_array(add(self.array, other.array))

    def __sub__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PolySeries.from_array(-self.array)

    def scaled(self, alpha: float) -> "PolySeries":
        return PolySeries.from_array(scale(self.array, alpha))

    # ------------------------------------------------------------------
    # series operations
    # ------------------------------------------------------------------

    def truncated(self, max_degree: int) -> "PolySeries":
        """Drop all monomials above ``max_degree``."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.degree <= max_degree:
            return self
        return PolySeries.from_array(self.array[..., : max_degree + 1])

    def divided_by_y_squared(self) -> "PolySeries":
        """Remove an exact ``y**2`` factor (coefficient shift by two).

        The series must vanish to second order at 0; anything else is a
        structural bug in the caller, reported as a ValueError.
        """
        return PolySeries.from_array(over_y_squared(self.array))

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
        return weighted_integral(self.array)


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


def widen(a: np.ndarray) -> np.ndarray:
    """A float64 coefficient array as double-double, with zero low parts."""
    return a if a.ndim == 2 else np.stack((a, np.zeros_like(a)))


def _pad(a: np.ndarray, n: int) -> np.ndarray:
    if a.shape[-1] == n:
        return a
    out = np.zeros(a.shape[:-1] + (n,))
    out[..., : a.shape[-1]] = a
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two series; the shorter is zero-padded, and a double-double operand widens the other."""
    n = max(a.shape[-1], b.shape[-1])
    if a.ndim == b.ndim == 1:
        return _pad(a, n) + _pad(b, n)
    return np.array(dd.add(*_pad(widen(a), n), *_pad(widen(b), n)))


def scale(a: np.ndarray, alpha: float) -> np.ndarray:
    """A series times a float."""
    return a * alpha if a.ndim == 1 else np.array(dd.mul_d(*a, alpha))


def over_y_squared(a: np.ndarray) -> np.ndarray:
    """Remove an exact ``y**2`` factor (ValueError if there is none); zero stays as it is."""
    if not np.count_nonzero(a):
        return a
    if np.count_nonzero(a[..., :2]):
        raise ValueError("series has no y**2 factor (valuation < 2)")
    return a[..., 2:]


def weighted_integral(a: np.ndarray) -> float:
    """The integral of f(y)/y over [0, 1]: the sum of a[m] / m (a[0] must vanish)."""
    if not np.count_nonzero(a):
        return 0.0
    if np.count_nonzero(a[..., 0]):
        raise ValueError("integrand f(y)/y singular at 0 (nonzero constant term)")
    m = np.arange(1, a.shape[-1])
    if a.ndim == 1:
        return math.fsum((a[1:] / m).tolist())
    h, l = dd.div_d(a[0, 1:], a[1, 1:], m.astype(float))
    return dd.to_float(*dd.reduce_rows(h, l))


def convolve(f: np.ndarray, g: np.ndarray, max_degree: int | None = None) -> np.ndarray:
    """Product of two series (coefficient convolution); a zero operand gives [0].

    ``max_degree`` computes only the monomials up to that degree, which
    is how the truncated iteration caps intermediate growth.

    In double-double, coefficient k is the compensated sum (``dd.dot_rows``)
    of the exact products f_hi[i] g_hi[k - i], plus the cross terms
    f_hi g_lo + f_lo g_hi as two float64 convolutions; f_lo g_lo, of order
    u**2 per term, is left out.  g_hi is split once per call, and the row
    blocks (under ``_BLOCK`` elements each) are merged by ``dd.two_sum``.
    For n terms a coefficient is within (2 L (L + 1) + 2 n + 3) u**2 of the
    sum of their absolute values, to first order, with L = ceil(log2(n))
    and u = 2**-53: 3.9e-30 for the solver's 101 terms.  The worst error
    on the shapes of ``test_extended_multiply_against_mpmath`` is 7.1e-32
    of that sum, and 1.1e-31 with 97-element blocks.
    """
    ext = f.ndim == 2 or g.ndim == 2
    if not np.count_nonzero(f) or not np.count_nonzero(g):
        return np.zeros((2, 1) if ext else 1)
    if not ext:
        out = np.convolve(f, g)
        return out if max_degree is None else out[: max_degree + 1]
    f, g = widen(f), widen(g)
    n, m = f.shape[1], g.shape[1]
    size = n + m - 1 if max_degree is None else min(n + m - 1, max_degree + 1)
    rows = min(n, size)
    keep = min(m, size)
    # G[j, i, c] = pad[j][c - i] (zero outside g): views of the zero-padded
    # g_hi and of its two Dekker halves, each row i starting i elements
    # before g, so row i of f * G is f_i's contribution.  ndarray checks
    # the views against the buffer; the as_strided path of
    # sliding_window_view cost about 1 MB of peak RSS.
    pad = np.zeros((3, rows - 1 + size))
    pad[0, rows - 1 : rows - 1 + keep] = g[0, :keep]
    pad[1:] = dd.split(pad[0])
    step = pad.itemsize
    G = np.ndarray((3, rows, size), buffer=pad, offset=(rows - 1) * step,
                   strides=(pad.strides[0], -step, step))
    F = np.stack((f[0, :rows], *dd.split(f[0, :rows])))[..., None]  # f_hi and its halves
    s = np.zeros(size)
    e = (np.convolve(f[0, :rows], g[1, :keep]) + np.convolve(f[1, :rows], g[0, :keep]))[:size]
    for b in _blocks(rows, size, _BLOCK):
        cols = slice(b.start, min(size, b.stop - 1 + m))  # the columns rows b reach
        bs, be = dd.dot_rows(F[0, b], G[0, b, cols], F[1:, b], G[1:, b, cols])
        s[cols], t = dd.two_sum(s[cols], bs)  # a later row block adds onto the earlier ones
        e[cols] += be + t
    return np.array(dd.quick_two_sum(s, e))


def multiply(f: PolySeries, g: PolySeries, max_degree: int | None = None) -> PolySeries:
    """Product of two series, capped at ``max_degree`` (see ``convolve``)."""
    return PolySeries.from_array(convolve(f.array, g.array, max_degree))


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
    w = np.zeros(phi.array.shape)
    if phi.lo is None:
        w[1:] = phi.coeffs[1:] / m
        acc = 0.0
        for j in range(len(w) - 1, 0, -1):
            acc = acc + w[j]
        w[0] = -acc
    else:
        w[:, 1:] = dd.div_d(phi.coeffs[1:], phi.lo[1:], m.astype(float))
        w[:, 0] = np.negative(dd.reduce_rows(w[0, 1:], w[1, 1:]))
    return PolySeries.from_array(w)
