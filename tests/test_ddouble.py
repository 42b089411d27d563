"""Error-free transforms and compensated arithmetic, checked against
exact rational arithmetic (fractions) and high-precision mpmath."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from vkplate import ddouble as dd
from vkplate.polyseries import PolySeries


def _exact(hi, lo):
    return Fraction(float(hi)) + Fraction(float(lo))


def test_two_sum_is_error_free():
    rng = np.random.default_rng(20240811)
    a = rng.uniform(-1e10, 1e10, 200)
    b = rng.uniform(-1e-10, 1e10, 200)
    hi, lo = dd.two_sum(a, b)
    for i in range(a.size):
        assert _exact(hi[i], lo[i]) == Fraction(float(a[i])) + Fraction(float(b[i]))
        # hi carries the rounded sum, lo the exact leftover
        assert hi[i] == float(a[i]) + float(b[i])


def test_two_prod_is_error_free():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1e8, 1e8, 200)
    b = rng.uniform(-1e8, 1e8, 200)
    hi, lo = dd.two_prod(a, b)
    for i in range(a.size):
        assert _exact(hi[i], lo[i]) == Fraction(float(a[i])) * Fraction(float(b[i]))


def test_quick_two_sum_matches_two_sum_when_ordered():
    a = np.array([1.0, 1e80, -3.5])
    b = np.array([1e-18, 1.0, 1e-20])
    h1, l1 = dd.quick_two_sum(a, b)
    h2, l2 = dd.two_sum(a, b)
    assert np.array_equal(h1, h2)
    assert np.array_equal(l1, l2)


def test_add_and_mul_against_mpmath():
    mpmath.mp.dps = 60
    rng = np.random.default_rng(3)
    xh = rng.uniform(-10, 10, 50)
    xl = xh * 1e-18
    yh = rng.uniform(-10, 10, 50)
    yl = yh * 1e-19
    sh, sl = dd.add(xh, xl, yh, yl)
    ph, pl = dd.mul(xh, xl, yh, yl)
    for i in range(xh.size):
        x = mpmath.mpf(float(xh[i])) + mpmath.mpf(float(xl[i]))
        y = mpmath.mpf(float(yh[i])) + mpmath.mpf(float(yl[i]))
        got_s = mpmath.mpf(float(sh[i])) + mpmath.mpf(float(sl[i]))
        got_p = mpmath.mpf(float(ph[i])) + mpmath.mpf(float(pl[i]))
        assert abs(got_s - (x + y)) <= abs(x + y) * mpmath.mpf(1e-30)
        assert abs(got_p - (x * y)) <= abs(x * y) * mpmath.mpf(1e-28)


def test_div_d_of_a_float_recovers_extra_digits():
    mpmath.mp.dps = 60
    h, lo = dd.div_d(1.0, 0.0, 3.0)
    got = mpmath.mpf(float(h)) + mpmath.mpf(float(lo))
    assert abs(got - mpmath.mpf(1) / 3) < mpmath.mpf(1e-32)


def test_div_d_against_mpmath():
    mpmath.mp.dps = 60
    rng = np.random.default_rng(11)
    xh = rng.uniform(-100, 100, 40)
    xl = xh * 3e-18
    y = rng.uniform(0.5, 50, 40)
    qh, ql = dd.div_d(xh, xl, y)
    for i in range(xh.size):
        x = mpmath.mpf(float(xh[i])) + mpmath.mpf(float(xl[i]))
        got = mpmath.mpf(float(qh[i])) + mpmath.mpf(float(ql[i]))
        want = x / mpmath.mpf(float(y[i]))
        assert abs(got - want) <= abs(want) * mpmath.mpf(1e-28)


def test_reduce_sum_is_compensated():
    # alternating large/small terms whose plain sum loses everything
    n = 64
    big = np.ones(n) * 1e16
    small = np.ones(n) * 1.0
    xh = np.empty(2 * n)
    xh[0::2] = big
    xh[1::2] = -big
    xl = np.zeros(2 * n)
    x = np.concatenate([xh, small])
    h, lo = dd.dot_rows(x, 1.0, lo=(np.concatenate([xl, np.zeros(n)]), 0.0))
    assert float(h) + float(lo) == float(n)
    # the same terms as products x * 1: every two_sum error is an integer
    h, lo = dd.quick_two_sum(*dd.dot_rows(x, np.ones_like(x)))
    assert float(h) == float(n) and float(lo) == 0.0


def test_dot_matches_exact_rational_dot():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, 30)
    y = rng.uniform(-3, 3, 30)
    h, lo = dd.quick_two_sum(*dd.dot_rows(x, y))
    want = sum((Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, y)),
               Fraction(0))
    got = Fraction(float(h)) + Fraction(float(lo))
    assert abs(got - want) <= abs(want) * Fraction(1, 10**28)
    # 37 rows of a column times a matrix, whose split halves are passed in
    # as a caller that splits once passes them: the first step pairs five
    # rows and carries 27.  Column 4's products nearly cancel in pairs, so
    # it is judged, like the others, by the sum of their absolute values
    x = rng.uniform(-3, 3, (37, 1)) * 10.0 ** rng.integers(-20, 4, (37, 1))
    y = rng.uniform(-3, 3, (37, 5)) * 10.0 ** rng.integers(-20, 4, (37, 5))
    c = rng.uniform(-3, 3, 18) * 10.0 ** rng.integers(-20, 4, 18)
    y[:, 4] = np.concatenate([c, [1e-10], -c[::-1]]) / x[:, 0]
    s, e = dd.dot_rows(x, y, dd.split(x), dd.split(y))
    assert s.shape == e.shape == (5,)
    s2, e2 = dd.dot_rows(x, y)
    assert np.array_equal(s, s2) and np.array_equal(e, e2)
    h, lo = dd.quick_two_sum(s, e)
    for c in range(5):
        terms = [Fraction(float(x[r, 0])) * Fraction(float(y[r, c])) for r in range(37)]
        assert abs(_exact(h[c], lo[c]) - sum(terms)) <= sum(map(abs, terms)) / 10**30


def test_dot_rows_products_and_low_parts():
    rng = np.random.default_rng(29)
    x = rng.uniform(-3, 3, (37, 1)) * 10.0 ** rng.integers(-20, 4, (37, 1))
    y = rng.uniform(-3, 3, (37, 5)) * 10.0 ** rng.integers(-20, 4, (37, 5))
    # one row is one product: p and its error bit for bit as two_prod has them
    for r in (0, 36):
        s, e = dd.dot_rows(x[r : r + 1], y[r : r + 1])
        p, pe = dd.two_prod(x[r], y[r])
        assert np.array_equal(s, p) and np.array_equal(e, pe)
    # double-double operands: the cross terms join the errors, x_lo * y_lo
    # (below 1e-32 of each product) is left out
    xh, xl = dd.two_sum(x, x * rng.uniform(-1, 1, x.shape) * 1e-17)
    yh, yl = dd.two_sum(y, y * rng.uniform(-1, 1, y.shape) * 1e-17)
    h, lo = dd.quick_two_sum(*dd.dot_rows(xh, yh, lo=(xl, yl)))
    for c in range(5):
        terms = [_exact(xh[r, 0], xl[r, 0]) * _exact(yh[r, c], yl[r, c]) for r in range(37)]
        assert abs(_exact(h[c], lo[c]) - sum(terms)) <= sum(map(abs, terms)) / 10**30


def _significant_bits(v):
    n = abs(Fraction(float(v)).numerator)
    return (n >> (n & -n).bit_length() - 1).bit_length() if n else 0


def test_split_is_exact_into_half_width_parts():
    rng = np.random.default_rng(23)
    a = rng.uniform(-1, 1, 200) * 10.0 ** rng.integers(-250, 250, 200)
    hi, lo = dd.split(a)
    for i in range(a.size):
        assert Fraction(float(hi[i])) + Fraction(float(lo[i])) == Fraction(float(a[i]))
        assert _significant_bits(hi[i]) <= 26 and _significant_bits(lo[i]) <= 26


def test_row_sums_match_exact_rational_column_sums():
    # double-double rows summed as products with 1: 37 rows, the first
    # step pairs five of them and carries the other 27
    rng = np.random.default_rng(19)
    xh = rng.uniform(-3, 3, (37, 6)) * 10.0 ** rng.integers(-8, 8, (37, 6))
    xl = xh * rng.uniform(-1, 1, xh.shape) * 1e-17
    xh, xl = dd.two_sum(xh, xl)
    h, lo = dd.dot_rows(xh, 1.0, lo=(xl, 0.0))
    assert h.shape == lo.shape == (6,)
    for c in range(6):
        want = sum((_exact(xh[r, c], xl[r, c]) for r in range(37)), Fraction(0))
        scale = sum(abs(_exact(xh[r, c], xl[r, c])) for r in range(37))
        assert abs(_exact(h[c], lo[c]) - want) <= scale * Fraction(1, 10**30)
    # each column as the coefficients of a series evaluated at y (two-level Dot2)
    y = 0.75
    for c in range(6):
        h, lo = PolySeries(xh[:, c], lo=xl[:, c])._horner_dd(np.asarray(y))
        terms = [_exact(xh[r, c], xl[r, c]) * Fraction(y) ** r for r in range(37)]
        assert abs(_exact(h, lo) - sum(terms)) <= sum(map(abs, terms)) / 10**30
    zh, zl = dd.dot_rows(np.zeros((0, 4)), 1.0, lo=(np.zeros((0, 4)), 0.0))
    assert np.array_equal(zh, np.zeros(4)) and np.array_equal(zl, np.zeros(4))


def test_add_of_a_float_and_mul_d_shapes_and_values():
    xh = np.array([1.5, -2.0, 8.0])
    xl = np.array([1e-17, 0.0, -2e-17])
    ah, al = dd.add(xh, xl, 2.5, 0.0)
    for i in range(3):
        assert _exact(ah[i], al[i]) == _exact(xh[i], xl[i]) + Fraction(2.5)
    mh, ml = dd.mul_d(xh, xl, 3.0)
    for i in range(3):
        want = _exact(xh[i], xl[i]) * 3
        assert abs(_exact(mh[i], ml[i]) - want) <= abs(want) / 2**104


def test_to_float_collapses_pair():
    assert dd.to_float(2.0, 1e-17) == 2.0 + 1e-17


def test_scalar_and_array_paths_agree():
    rng = np.random.default_rng(13)
    a = rng.uniform(-5, 5, 16)
    b = rng.uniform(-5, 5, 16)
    hv, lv = dd.two_prod(a, b)
    for i in range(a.size):
        hs, ls = dd.two_prod(a[i], b[i])
        assert float(hs) == hv[i] and float(ls) == lv[i]


def test_rounding_floor_beats_plain_double():
    # summing 1 + 1e-17 five hundred times: plain double stays at 500.0
    n = 500
    h, lo = dd.dot_rows(np.full(n, 1.0), 1.0, lo=(np.full(n, 1e-17), 0.0))
    assert math.fsum([1.0] * n) == 500.0
    assert abs((Fraction(float(h)) + Fraction(float(lo))) - (500 + Fraction(5, 10**15))) \
        < Fraction(1, 10**25)
