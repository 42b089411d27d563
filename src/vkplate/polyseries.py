"""Dense polynomial series on the unit interval.

Everything the solver manipulates (slope function, membrane-force
function, kernel images, residuals) is a polynomial in ``y`` on
``[0, 1]`` stored as a dense ascending coefficient array:
``coeffs[m]`` multiplies ``y**m``.

Instances are immutable and hold the coefficients they are given,
trailing zeros included; any series without a nonzero coefficient is
the zero polynomial, whatever its length.  The array functions below
treat it like any other series; ``over_y_squared`` can leave an empty
array, which ``PolySeries`` reads as ``[0]``.

Coefficients are float64 by default.  Passing a companion ``lo`` array
turns each coefficient into a double-double value (see
:mod:`vkplate.ddouble`); every operation then tracks the compensated
parts, which is what the extended-precision solver mode runs on.  A grid
evaluation reads cached power tables: one vector-matrix product in float64,
a two-level compensated dot product (``_horner_dd``) in double-double, or,
for a double-double series evaluated in float64 with an error bound
(``_grid_hi``), vector-matrix products on the high parts of its table.

The precision of a coefficient array (last axis: coefficients) is its
number of axes: a 2-D array is the (2, n) double-double stack of hi over
lo; a 1-D array is a float64 series, and an (R, 1, n) one a float64 batch
of R series, one per control, each run through the arithmetic of a series
alone (one ``np.convolve``, one ``math.fsum`` per row) for the same bits.

The arithmetic is written once, on coefficient arrays (``PolySeries.array``:
float64 ``coeffs``, or the (2, n) stack of ``coeffs`` over ``lo``); the
methods call the module functions that take them.  The homotopy
recurrence of :mod:`vkplate.ham`, the interpolation baseline and the
initial guesses run on such arrays directly, so ``PolySeries`` is the API
boundary: what a solve reports, construction from and to arrays,
evaluation, the weighted integral and ``deflection_series``.  Its ``+``
and ``scaled``, and ``multiply``, remain for ``ham.residual_error``, whose
operator assembly the benchmark's tracer counts through them.
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

    @property
    def extended(self) -> bool:
        return self.lo is not None

    @property
    def degree(self) -> int:
        """Highest stored power; its coefficient may be zero."""
        return len(self.coeffs) - 1

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

    def scaled(self, alpha: float) -> "PolySeries":
        return PolySeries.from_array(scale(self.array, alpha))

    # ------------------------------------------------------------------
    # series operations
    # ------------------------------------------------------------------

    def divided_by_y_squared(self) -> "PolySeries":
        """Remove an exact ``y**2`` factor (coefficient shift by two).

        The series must vanish to second order at 0; anything else is a
        structural bug in the caller, reported as a ValueError.
        """
        return PolySeries.from_array(over_y_squared(self.array))

    def evaluate(self, y):
        """Horner evaluation at a point of [0, 1], or at an array of them (same bits)."""
        if np.ndim(y):
            _check_unit(y := np.asarray(y, dtype=float))
        elif not 0.0 <= y <= 1.0:
            raise ValueError(f"evaluation point {y!r} outside [0, 1]")
        if self.lo is None:
            acc = 0.0
            for c in self.coeffs[::-1]:
                acc = acc * y + c
            return acc
        v = self._horner_dd(y)[0]
        return v if np.ndim(y) else float(v)

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
        rows = (len(c) + 14) // 16 * 16  # in a table; the blocks are sized for powers
        for b in _blocks(flat.size, powers, _TABLE_SIZE):
            # np.dot on contiguous rows: ``@`` here paged in 68 KB more code
            out[b] = c[0] + np.dot(c[1:], _power_table(flat[b], rows)[: len(c) - 1])
        return out.reshape(ys.shape)

    def _horner_dd(self, ys):
        """Double-double evaluation; returns (hi, lo) arrays shaped like ys.

        p(y) = c_0 + y * q(y), with q two levels of ``dd.dot_rows`` (the baby
        and giant steps of Paterson & Stockmeyer 1973): each run of 16 of
        c_1..c_{n-1} against y**0..y**15, then the runs' sums Q_j against
        y**(16 j), from ``_dd_power_table``.  The cross terms hi * lo and
        lo * hi join the product errors, lo * lo is left out.  Each point is
        its own sum, whatever the blocks: y = 0 gives c_0 exactly, and
        ``deflection_series`` takes its constant from this sum at y = 1.
        """
        ys = np.asarray(ys, dtype=float)
        flat = ys.ravel()
        c = widen(self.array)
        runs = max(1, -(-(c.shape[1] - 1) // _RUN))
        # d[:, k, j] is c_(1 + 16 j + k), zero past the last coefficient
        d = _pad(c[:, 1:], runs * _RUN).reshape(2, runs, _RUN).transpose(0, 2, 1)[..., None]
        table = _dd_power_table(flat, runs)
        q = np.empty((2, runs, flat.size))
        # as many blocks of points as _BLOCK asks for, of equal size
        count = max(1, len(_blocks(flat.size, runs * _RUN, _BLOCK)))
        step = max(1, -(-flat.size // count))
        for b in (slice(i, i + step) for i in range(0, flat.size, step)):
            bh, bl = table[:, :_RUN, None, b]
            q[:, :, b] = dd.quick_two_sum(*dd.dot_rows(d[0], bh, lo=(d[1], bl)))
        out = np.empty((2, flat.size))
        for b in _blocks(flat.size, runs, _BLOCK):
            (qh, ql), (gh, gl) = q[:, :, b], table[:, _RUN : _RUN + runs, b]
            s, e = dd.dot_rows(qh, gh, lo=(ql, gl))
            out[:, b] = dd.add(*dd.mul_d(*dd.quick_two_sum(s, e), flat[b]), *c[:, 0])
        return out[0].reshape(ys.shape), out[1].reshape(ys.shape)

    def _grid_hi(self, ys: np.ndarray):
        """Float64 values at the 1-D points ys of [0, 1] (not checked), and a bound
        of their distance from the series' exact values.

        p(y) = c_0 + y * q(y) as in ``_horner_dd``, in float64 on the high parts:
        each run of 16 of c_1..c_{n-1} is one vector-matrix ``np.dot`` against
        the high rows y**0..y**15 of ``_dd_power_table``, scaled by the high
        row y**(16 j), and the runs are added in order.  Each table entry is
        within u = 2**-53 of its power, and for runs of L <= 16 coefficients
        and R runs a point's value rounds L + R + 4 times, so with the low
        parts (at most u/2 of the high ones) it is within (2 n + 2) u
        * sum |c_m| y**m of p(y), to first order; the bound takes y = 1.
        """
        c = self.coeffs
        runs = max(1, -(-(len(c) - 1) // _RUN))
        table = _dd_power_table(ys, runs)[0]
        acc = np.dot(c[1 : 1 + _RUN], table[: min(_RUN, len(c) - 1)])
        for j in range(1, runs):
            run = c[1 + _RUN * j : 1 + _RUN * (j + 1)]
            part = np.dot(run, table[: len(run)])
            part *= table[_RUN + j]
            acc += part
        # sum|c| by Python's sum: ndarray.sum paged in code that extended's path
        # never loads otherwise, and math.fsum raises on an overflowing sum
        return c[0] + ys * acc, (2 * len(c) + 2) * 2.0**-53 * sum(map(abs, c.tolist()))

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
#: keyed by the bytes of their points.  A double-double product, which
#: follows a solve's last float64 score, empties it (the residual grid's
#: tables take about 200 KB), so no double-double pass runs beside them.
_TABLES: dict[bytes, np.ndarray] = {}
#: Coefficients per baby step of ``_horner_dd``.
_RUN = 16
#: Double-double power tables of the point sets evaluated last, keyed as
#: ``_TABLES`` but one per point set.
_DD_TABLES: dict[bytes, np.ndarray] = {}


def _blocks(n: int, per: int, size: int):
    """Slices covering ``range(n)``, each at most ``size // per`` long."""
    step = max(1, size // max(per, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _check_unit(ys: np.ndarray) -> None:
    # in Python: a first np.all of the comparisons paged in 192 KB of code
    if not all(0.0 <= y <= 1.0 for y in ys.ravel().tolist()):  # NaN fails both
        raise ValueError("evaluation grid leaves [0, 1]")


def _cached(tables: dict, key: bytes, rows: int, build) -> np.ndarray:
    """Read-only table of key, >= ``rows`` rows on axis -2; the last ``_MAX_TABLES`` keys stay."""
    table = tables.pop(key, None)  # put back below as the newest entry
    if table is None or table.shape[-2] < rows:
        table = build()
        table.flags.writeable = False
    tables[key] = table
    if len(tables) > _MAX_TABLES:
        del tables[next(iter(tables))]
    return table


def _power_table(ys: np.ndarray, rows: int) -> np.ndarray:
    """Read-only table P[m, i] = ys[i]**(m + 1) with at least ``rows`` rows; the
    points are checked when it is built."""
    def build():
        _check_unit(ys)
        return np.cumprod(np.broadcast_to(ys, (rows, ys.size)), axis=0)
    return _cached(_TABLES, ys.tobytes(), rows, build)


def _dd_power_table(ys: np.ndarray, runs: int) -> np.ndarray:
    """Read-only double-double powers of ys, stacked (hi, lo): rows 0..15 are
    y**k, rows 16.. y**(16 j) for j below a power of two >= ``runs``.  The
    points are not checked."""
    runs = 1 << (runs - 1).bit_length()

    def build():
        t = np.zeros((2, _RUN + runs, ys.size))
        t[0, 0] = t[0, _RUN] = 1.0
        for k in range(1, _RUN):
            t[:, k] = dd.mul_d(*t[:, k - 1], ys)
        step = dd.mul_d(*t[:, _RUN - 1], ys)
        for j in range(_RUN + 1, _RUN + runs):
            t[:, j] = dd.mul(*t[:, j - 1], *step)
        return t
    return _cached(_DD_TABLES, ys.tobytes(), _RUN + runs, build)


def widen(a: np.ndarray) -> np.ndarray:
    """A float64 series as double-double, with zero low parts."""
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
    if a.ndim != 2 != b.ndim:
        return _pad(a, n) + _pad(b, n)
    return np.array(dd.add(*_pad(widen(a), n), *_pad(widen(b), n)))


def scale(a: np.ndarray, alpha: float) -> np.ndarray:
    """A series times a float."""
    return a * alpha if a.ndim != 2 else np.array(dd.mul_d(*a, alpha))


def fsum(values: np.ndarray) -> float:
    """``math.fsum`` of an array (of each batch row), or past inf - inf or the float range numpy's."""
    if values.ndim == 3:
        return np.array([fsum(row) for row in values[:, 0]]).reshape(-1, 1, 1)
    try:
        return math.fsum(values.tolist())
    except (ValueError, OverflowError):
        return float(np.sum(values))


def _finite_lead(a: np.ndarray, n: int) -> bool:
    """Whether a finite series, or row of a batch, has a nonzero among its first n
    coefficients (in a non-finite one it came from an overflow, not a bug)."""
    return any(np.count_nonzero(r[..., :n]) and np.isfinite(r).all()
               for r in (a if a.ndim == 3 else [a]))


def over_y_squared(a: np.ndarray) -> np.ndarray:
    """Remove an exact ``y**2`` factor (ValueError if there is none; see ``_finite_lead``)."""
    if np.count_nonzero(a[..., :2]) and _finite_lead(a, 2):
        raise ValueError("series has no y**2 factor (valuation < 2)")
    return a[..., 2:]


def weighted_integral(a: np.ndarray) -> float:
    """The integral of f(y)/y over [0, 1]: the sum of a[m] / m (a[0] must vanish)."""
    if np.count_nonzero(a[..., 0]) and _finite_lead(a, 1):
        raise ValueError("integrand f(y)/y singular at 0 (nonzero constant term)")
    m = np.arange(1, a.shape[-1])
    if a.ndim != 2:
        return fsum(a[..., 1:] / m)  # a batch's rows are summed one by one
    h, l = dd.div_d(a[0, 1:], a[1, 1:], m.astype(float))
    return dd.to_float(*dd.dot_rows(h, 1.0, lo=(l, 0.0)))


def convolve(f: np.ndarray, g: np.ndarray, max_degree: int | None = None) -> np.ndarray:
    """Product of two series (coefficient convolution).

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
    if f.ndim == g.ndim == 1:
        out = np.convolve(f, g)
        return out if max_degree is None else out[: max_degree + 1]
    if f.ndim != 2 != g.ndim:  # a batch: one np.convolve per row
        out = np.array(list(map(np.convolve, f[:, 0], g[:, 0])))[:, None]
        return out if max_degree is None else out[..., : max_degree + 1]
    _TABLES.clear()  # see _TABLES
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
    a constant chosen so W(1) = 0.  The constant is minus W(1) evaluated
    with a zero constant, as ``W.evaluate(1.0)`` evaluates it (Horner for
    float64, ``_horner_dd`` for double-double), so ``W.evaluate(1.0)``
    cancels to zero exactly, not merely to rounding.
    """
    a = phi.array
    if np.count_nonzero(a[..., 0]) and _finite_lead(a, 1):
        raise ValueError("slope series must vanish at y = 0")
    m = np.arange(1, len(phi.coeffs))
    w = np.zeros(a.shape)
    if phi.lo is None:
        w[1:] = phi.coeffs[1:] / m
        w[0] = -PolySeries(w).evaluate(1.0)
    else:
        w[:, 1:] = dd.div_d(phi.coeffs[1:], phi.lo[1:], m.astype(float))
        w[:, :1] = np.negative(PolySeries.from_array(w)._horner_dd(np.ones(1)))
    return PolySeries.from_array(w)
