"""Vectorized double-double arithmetic on float64 scalars or arrays.

A double-double value is an unevaluated pair ``(hi, lo)`` with
``hi = fl(hi + lo)`` and ``|lo| <= ulp(hi) / 2``, giving roughly 31
significant decimal digits.  All helpers below accept scalars or
same-shape numpy arrays and rely only on the classic error-free
transformations (Dekker splitting, Knuth two-sum), so they stay exact
under IEEE-754 round-to-nearest.

Only the handful of operations the series solver needs is provided:
addition, multiplication, division by a float and one compensated sum,
of products of floats or of double-doubles (``dot_rows``); a sum of
double-double rows x is ``dot_rows(xh, 1.0, lo=(xl, 0.0))``.  Nothing
here knows about polynomials.
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


def split(a):
    """Dekker's splitting: (hi, lo) with hi + lo = a exactly and 26 significant bits in each."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(p, ah, al, bh, bl):
    """The error a * b - p of p = fl(a * b), from the ``split`` halves of a and b."""
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def two_prod(a, b):
    """Exact product: returns (p, e) with p = fl(a * b) and p + e = a * b."""
    p = a * b
    return p, _product_error(p, *split(a), *split(b))


def add(xh, xl, yh, yl):
    """Double-double + double-double."""
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = quick_two_sum(s, e)
    e = e + f
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
    return add(s, f, q3, 0.0)


def dot_rows(x, y, x_parts=None, y_parts=None, lo=None):
    """Compensated sum of the products x[i] * y[i] down axis 0; returns one row as (s, e).

    This is the Dot2 of Ogita, Rump & Oishi (2005): ``two_prod`` makes
    every product exact as p + e, the rounded products p are summed
    pairwise by ``two_sum`` (n rows in ceil(log2 n) vector steps), and
    every product's and every addition's rounding error is summed in
    float64.  No rows sum to a zero pair.
    x and y broadcast against each other; ``x_parts`` and ``y_parts`` are
    their ``split`` halves (a pair, or an array stacking the two), for a
    caller that splits an operand once and uses it in many calls.  ``lo``
    holds the low parts (x_lo, y_lo) of double-double operands; the cross
    terms x y_lo + x_lo y join the product errors (x_lo y_lo is left out).
    The pair is not renormalized, so a caller can add further float terms
    to e before ``quick_two_sum(s, e)``.  The errors add up to at most
    (L + 1) u of the sum of |x[i] y[i]| and each passes through at most
    2 L float additions, so for n rows s + e is the exact sum to within
    2 L (L + 1) u**2 of that sum, to first order, with L = ceil(log2(n))
    and u = 2**-53 (without ``lo``).
    """
    p = x * y
    if not len(p):
        return np.zeros(p.shape[1:]), np.zeros(p.shape[1:])
    ah, al = split(x) if x_parts is None else x_parts
    bh, bl = split(y) if y_parts is None else y_parts
    # _product_error's operations in its order, in place
    e = ah * bh
    e -= p
    t = ah * bl
    e += t
    e += np.multiply(al, bh, out=t)
    e += np.multiply(al, bl, out=t)
    if lo is not None:
        e += np.multiply(x, lo[1], out=t)
        e += np.multiply(lo[0], y, out=t)
    del t  # its rows need not outlive the first step below
    while len(p) > 1:
        n = len(p)
        h = 1 << (n - 1).bit_length() - 1
        # rows h.. go onto rows 0..; rows n - h..h - 1 are carried
        p[: n - h], t = two_sum(p[: n - h], p[h:])
        e[: n - h] += e[h:] + t
        p, e = p[:h], e[:h]
    return p[0].copy(), e[0].copy()  # a view would hold all the rows


def to_float(xh, xl):
    """Round a double-double back to float64 (hi already carries the rounding)."""
    return float(xh) + float(xl)
