"""Vectorized double-double arithmetic on float64 scalars or arrays.

A double-double value is an unevaluated pair ``(hi, lo)`` with
``hi = fl(hi + lo)`` and ``|lo| <= ulp(hi) / 2``, giving roughly 31
significant decimal digits.  All helpers below accept scalars or
same-shape numpy arrays and rely only on the classic error-free
transformations (Dekker splitting, Knuth two-sum), so they stay exact
under IEEE-754 round-to-nearest.

Only the handful of operations the series solver needs is provided:
addition, multiplication, division by a float, and compensated
reductions.  Nothing here knows about polynomials.
"""

from __future__ import annotations

import numpy as np

# Dekker splitting constant, 2**27 + 1.
_SPLIT = 134217729.0


def two_sum(a, b):
    """Exact sum: returns (s, e) with s = fl(a + b) and s + e = a + b."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def quick_two_sum(a, b):
    """Exact sum assuming |a| >= |b| elementwise (3 flops)."""
    s = a + b
    e = b - (s - a)
    return s, e


def two_prod(a, b):
    """Exact product: returns (p, e) with p = fl(a * b) and p + e = a * b."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def add(xh, xl, yh, yl):
    """Double-double + double-double."""
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
    return quick_two_sum(s, e)


def add_d(xh, xl, y):
    """Double-double + float."""
    s, e = two_sum(xh, y)
    e = e + xl
    return quick_two_sum(s, e)


def mul(xh, xl, yh, yl):
    """Double-double * double-double."""
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def mul_d(xh, xl, y):
    """Double-double * float."""
    p, e = two_prod(xh, y)
    e = e + xl * y
    return quick_two_sum(p, e)


def div_floats(a, b):
    """Quotient of two floats as a double-double."""
    q1 = a / b
    p, e = two_prod(q1, b)
    # remainder a - q1*b, accurate to a second quotient digit
    s, f = two_sum(a, -p)
    q2 = (s + (f - e)) / b
    return quick_two_sum(q1, q2)


def div_d(xh, xl, y):
    """Double-double / float."""
    q1 = xh / y
    p, e = two_prod(q1, y)
    rh, rl = add(xh, xl, -p, -e)
    q2 = rh / y
    p, e = two_prod(q2, y)
    rh, rl = add(rh, rl, -p, -e)
    q3 = rh / y
    s, f = quick_two_sum(q1, q2)
    return add_d(s, f, q3)


def reduce_rows(xh, xl, y=None):
    """Compensated sum of x[i] * y**i down axis 0; returns one row as an (hi, lo) pair.

    Without y (a float or float array) this is the plain sum of the
    rows.  Each step adds rows h.. (scaled by y**h) to rows 0.. in one
    vector ``add``, with h the largest power of two below the row count;
    rows left unpaired are carried, so n rows take ceil(log2 n) steps
    (pairwise summation, and Estrin's scheme when y is given).  Scaling
    by y = 1 is exact, so a sum with y = 1 equals the plain sum bit for
    bit.  Each row broadcasts against y; an empty input sums to zero.
    """
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    if y is not None:
        shape = np.broadcast_shapes(xh.shape, (1,) + np.shape(y))
        xh, xl = np.broadcast_to(xh, shape), np.broadcast_to(xl, shape)
        # squares[j] is y**(2**j), the scale of step h = 2**j
        squares = [(y, 0.0)]
        while 1 << len(squares) < len(xh):
            squares.append(mul(*squares[-1], *squares[-1]))
    if len(xh) == 0:
        return np.zeros(xh.shape[1:]), np.zeros(xl.shape[1:])
    while len(xh) > 1:
        n = len(xh)
        h = 1 << (n - 1).bit_length() - 1
        th, tl = xh[h:], xl[h:]
        if y is not None:
            th, tl = mul(th, tl, *squares[h.bit_length() - 1])
        sh, sl = add(xh[: n - h], xl[: n - h], th, tl)
        if n - h < h:
            sh = np.concatenate([sh, xh[n - h : h]])
            sl = np.concatenate([sl, xl[n - h : h]])
        xh, xl = sh, sl
    return xh[0], xl[0]


def reduce_sum(xh, xl):
    """Pairwise compensated sum of a double-double vector; returns a scalar pair."""
    h, l = reduce_rows(np.atleast_1d(xh), np.atleast_1d(xl))
    return float(h), float(l)


def dot(xh, xl, yh, yl):
    """Compensated dot product of two double-double vectors."""
    return reduce_sum(*mul(xh, xl, yh, yl))


def to_float(xh, xl):
    """Round a double-double back to float64 (hi already carries the rounding)."""
    return float(xh) + float(xl)
