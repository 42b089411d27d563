"""Error-free transforms and compensated arithmetic, checked against
exact rational arithmetic (fractions) and high-precision mpmath."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from vkplate import ddouble as dd


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


def test_div_floats_recovers_extra_digits():
    mpmath.mp.dps = 60
    h, lo = dd.div_floats(1.0, 3.0)
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
    h, lo = dd.reduce_sum(np.concatenate([xh, small]), np.concatenate([xl, np.zeros(n)]))
    assert float(h) + float(lo) == float(n)


def test_dot_matches_exact_rational_dot():
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, 30)
    y = rng.uniform(-3, 3, 30)
    h, lo = dd.dot(x, np.zeros_like(x), y, np.zeros_like(y))
    want = sum((Fraction(float(a)) * Fraction(float(b)) for a, b in zip(x, y)),
               Fraction(0))
    got = Fraction(float(h)) + Fraction(float(lo))
    assert abs(got - want) <= abs(want) * Fraction(1, 10**28)


def test_reduce_rows_matches_exact_rational_column_sums():
    # 37 rows: the first step pairs five of them and carries the other 27
    rng = np.random.default_rng(19)
    xh = rng.uniform(-3, 3, (37, 6)) * 10.0 ** rng.integers(-8, 8, (37, 6))
    xl = xh * rng.uniform(-1, 1, xh.shape) * 1e-17
    xh, xl = dd.two_sum(xh, xl)
    h, lo = dd.reduce_rows(xh, xl)
    assert h.shape == lo.shape == (6,)
    for c in range(6):
        want = sum((_exact(xh[r, c], xl[r, c]) for r in range(37)), Fraction(0))
        scale = sum(abs(_exact(xh[r, c], xl[r, c])) for r in range(37))
        assert abs(_exact(h[c], lo[c]) - want) <= scale * Fraction(1, 10**30)
    # with y, the rows are weighted by y**i (Estrin's scheme)
    y = 0.75
    h, lo = dd.reduce_rows(xh, xl, y)
    for c in range(6):
        terms = [_exact(xh[r, c], xl[r, c]) * Fraction(y) ** r for r in range(37)]
        assert abs(_exact(h[c], lo[c]) - sum(terms)) <= sum(map(abs, terms)) / 10**30
    zh, zl = dd.reduce_rows(np.zeros((0, 4)), np.zeros((0, 4)))
    assert np.array_equal(zh, np.zeros(4)) and np.array_equal(zl, np.zeros(4))


def test_neg_add_d_mul_d_shapes_and_values():
    xh = np.array([1.5, -2.0, 8.0])
    xl = np.array([1e-17, 0.0, -2e-17])
    ah, al = dd.add_d(xh, xl, 2.5)
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
    h, lo = dd.reduce_sum(np.full(n, 1.0), np.full(n, 1e-17))
    assert math.fsum([1.0] * n) == 500.0
    assert abs((Fraction(float(h)) + Fraction(float(lo))) - (500 + Fraction(5, 10**15))) \
        < Fraction(1, 10**25)
