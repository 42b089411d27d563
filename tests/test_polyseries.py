"""Dense polynomial series: zero tests, arithmetic, evaluation,
and the weighted integrals the solver leans on.  Oracles: numpy
convolution, Horner in exact rational arithmetic, scipy quadrature."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from vkplate import ddouble as dd
from vkplate import polyseries
from vkplate.polyseries import PolySeries, add, deflection_series, multiply, widen


def _extended(p):
    return PolySeries.from_array(widen(p.array))


def _random_poly(rng, degree, extended=False):
    coeffs = rng.uniform(-2.0, 2.0, degree + 1)
    p = PolySeries(coeffs)
    return _extended(p) if extended else p


def _exact_dd(hi, lo):
    return Fraction(float(hi)) + Fraction(float(lo))


def _is_zero(p):
    return not np.count_nonzero(p.array)


# an all-zero series longer than one coefficient is still the zero polynomial
ZERO3 = PolySeries([0.0, 0.0, 0.0])


def _padded(p, n):
    return np.pad(p.coeffs, (0, n - p.coeffs.size))


def test_deflection_series_needs_a_vanishing_constant_term():
    # a constant term, even one of 1e-20 in a double-double series, is
    # rejected; a series with none is accepted whatever its lowest power
    w = deflection_series(PolySeries([0.0, 0.0, 3.0]))
    assert np.array_equal(w.coeffs, [-1.5, 0.0, 1.5])
    for bad in (PolySeries([5.0]), PolySeries([5.0, 1.0]), PolySeries([0.0, 1.0], lo=[1e-20, 0.0])):
        with pytest.raises(ValueError, match="vanish at y = 0"):
            deflection_series(bad)
    # an all-zero series of any length, or none, has a zero profile
    for z in (PolySeries([0.0, 0.0]), ZERO3, PolySeries([]), PolySeries(np.zeros(1))):
        w = deflection_series(z)
        assert _is_zero(w) and not w.extended
    w = deflection_series(_extended(ZERO3))
    assert _is_zero(w) and w.extended
    # a subnormal coefficient is not zero
    assert not _is_zero(deflection_series(PolySeries([0.0, 0.0, 1e-310])))


def test_immutability():
    p = PolySeries([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.coeffs = np.array([3.0])
    # degree counts stored powers, trailing zeros included
    assert PolySeries([1.0, 2.0, 0.0, 0.0]).degree == 3


def test_add_sub_neg_match_numpy():
    # subtraction and negation are add(a, -b) and -a on the arrays
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = _random_poly(rng, int(rng.integers(0, 8)))
        g = _random_poly(rng, int(rng.integers(0, 8)))
        n = max(f.coeffs.size, g.coeffs.size)
        fa, ga = _padded(f, n), _padded(g, n)
        assert np.array_equal(_padded(f + g, n), fa + ga)
        assert np.array_equal(add(f.array, -g.array), fa - ga)
        assert np.array_equal(add(-f.array, ga), ga - fa)


def test_multiply_matches_convolution_and_truncates():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = _random_poly(rng, int(rng.integers(0, 10)))
        g = _random_poly(rng, int(rng.integers(0, 10)))
        full = np.convolve(f.coeffs, g.coeffs)
        assert np.allclose(multiply(f, g).coeffs, PolySeries(full).coeffs, rtol=1e-15)
        cap = 4
        capped = multiply(f, g, max_degree=cap)
        assert capped.degree <= cap
        assert np.allclose(capped.coeffs, PolySeries(full[: cap + 1]).coeffs,
                           rtol=1e-15)
        for z in (ZERO3, _extended(ZERO3)):
            for prod in (multiply(z, f), multiply(f, z), multiply(z, g, max_degree=cap)):
                assert _is_zero(prod)


def test_scalar_multiply_and_scaled():
    p = PolySeries([1.0, -2.0, 4.0])
    assert np.array_equal(p.scaled(0.5).coeffs, [0.5, -1.0, 2.0])
    assert np.array_equal(p.scaled(-1.0).coeffs, [-1.0, 2.0, -4.0])
    assert _is_zero(p.scaled(0.0))


def test_divided_by_y_squared():
    p = PolySeries([0.0, 0.0, 2.0, 5.0])
    q = p.divided_by_y_squared()
    assert np.array_equal(q.coeffs, [2.0, 5.0])
    assert _is_zero(ZERO3.divided_by_y_squared())
    with pytest.raises(ValueError):
        PolySeries([0.0, 1.0]).divided_by_y_squared()


def test_evaluate_matches_exact_horner():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = _random_poly(rng, 12)
        for y in (0.0, 0.125, 0.5, 0.875, 1.0):
            want = Fraction(0)
            for c in p.coeffs[::-1]:
                want = want * Fraction(y) + Fraction(float(c))
            assert math.isclose(p.evaluate(y), float(want), rel_tol=1e-13,
                                abs_tol=1e-14)


def test_evaluate_rejects_points_outside_unit_interval(monkeypatch):
    monkeypatch.setattr(polyseries, "_TABLES", {})
    p = PolySeries([1.0, 1.0])
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            p.evaluate(bad)
        for q in (p, _extended(p)):
            with pytest.raises(ValueError):
                q.evaluate_grid([0.5, bad])
    assert not polyseries._TABLES  # a rejected grid leaves no table behind


def test_evaluate_grid_matches_pointwise():
    # The grid path is a BLAS product, whose rounding depends on how many
    # points it takes at once, so it cannot be bit-equal to Horner.
    # Both paths must lie within gamma_(2n+1) * sum |c_m| y**m of the exact
    # value (u = 2**-53), a bound that holds for any summation order.
    rng = np.random.default_rng(23)
    ys = np.linspace(0.0, 1.0, 101)
    for degree in (0, 9, 40, 204):
        p = _random_poly(rng, degree)
        k = 2 * (degree + 1) + 1
        gamma = Fraction(k, 2**53 - k)
        grid = p.evaluate_grid(ys)
        assert grid[0] == p.coeffs[0]  # bit for bit: y = 0 gives c_0
        cs = [Fraction(float(c)) for c in p.coeffs[::-1]]
        for y, v in zip(ys, grid):
            fy = Fraction(float(y))
            want = scale = Fraction(0)
            for c in cs:
                want = want * fy + c
                scale = scale * fy + abs(c)
            assert abs(Fraction(float(v)) - want) <= gamma * scale, (degree, y)
            assert abs(Fraction(p.evaluate(float(y))) - want) <= gamma * scale


def test_power_table_cache(monkeypatch):
    monkeypatch.setattr(polyseries, "_TABLES", {})
    monkeypatch.setattr(polyseries, "_TABLE_SIZE", 256 * 101)  # one table per grid
    tables = polyseries._TABLES
    rng = np.random.default_rng(59)
    short, long = _random_poly(rng, 9), _random_poly(rng, 200)
    a = np.linspace(0.0, 1.0, 101)
    b = a * a  # the same size, other points
    va, vb = short.evaluate_grid(a), short.evaluate_grid(b)
    assert list(tables) == [a.tobytes(), b.tobytes()]
    for ys, table in zip((a, b), tables.values()):
        assert table.shape == (16, 101) and not table.flags.writeable
        assert np.array_equal(table[0], ys) and np.array_equal(table[1], ys * ys)
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    assert not np.array_equal(va, vb)

    # a longer series grows the table of its grid in place of the old one, to
    # the multiple of 16 rows that its 200 powers need
    vlong = long.evaluate_grid(a)
    assert len(tables) == 2 and tables[a.tobytes()].shape == (208, 101)
    grown = short.evaluate_grid(a)
    tables.clear()
    assert np.array_equal(long.evaluate_grid(a), vlong)
    tables.clear()
    assert np.array_equal(short.evaluate_grid(a), grown)
    assert np.array_equal(grown, va)

    # bounded: the grids used longest ago are dropped
    grids = [a ** (k + 1) for k in range(polyseries._MAX_TABLES + 2)]
    for ys in grids:
        short.evaluate_grid(ys)
    assert list(tables) == [ys.tobytes() for ys in grids[-polyseries._MAX_TABLES:]]

    # a grid longer than one table is evaluated in blocks of points
    monkeypatch.setattr(polyseries, "_TABLE_SIZE", 16 * 7)
    tables.clear()
    blocked = short.evaluate_grid(a)
    assert len(tables) == polyseries._MAX_TABLES
    assert all(t.shape[1] <= 7 for t in tables.values())
    assert np.allclose(blocked, va, rtol=1e-14, atol=1e-14)


def test_product_evaluates_like_product_of_values():
    rng = np.random.default_rng(31)
    f = _random_poly(rng, 7)
    g = _random_poly(rng, 6)
    for y in (0.2, 0.7, 1.0):
        assert math.isclose(multiply(f, g).evaluate(y), f.evaluate(y) * g.evaluate(y),
                            rel_tol=1e-12, abs_tol=1e-13)


def test_integral_over_y_against_quadrature():
    rng = np.random.default_rng(29)
    for _ in range(10):
        coeffs = np.concatenate([[0.0], rng.uniform(-2, 2, 6)])
        p = PolySeries(coeffs)
        want, _ = quad(lambda y: p.evaluate(y) / y if y > 0 else p.coeffs[1],
                       0.0, 1.0)
        assert math.isclose(p.integral_over_y(), want, rel_tol=1e-10,
                            abs_tol=1e-12)
    assert ZERO3.integral_over_y() == 0.0
    assert _extended(ZERO3).integral_over_y() == 0.0
    # a double-double series with no term past the constant sums no rows
    assert PolySeries([0.0], lo=[0.0]).integral_over_y() == 0.0
    assert PolySeries([], lo=[]).integral_over_y() == 0.0
    s, e = dd.dot_rows(np.zeros(0), np.zeros(0))
    assert s == e == 0.0


def test_extended_integral_over_y_under_cancellation():
    # random double-double series of up to 101 terms, every other one with
    # its last coefficient set so that the sum of a[m] / m cancels to
    # 1e-16..1e-3 of the sum of |a[m] / m|, as a prescribed deflection's
    # load terms nearly vanish.  Against exact rationals the float lies
    # within u of the sum plus the Dot2 bound of dd.dot_rows,
    # 2 L (L + 1) u**2 of the absolute sum, plus one u**2 of it for the
    # rounding of dd.div_d's quotients
    rng = np.random.default_rng(43)
    u = Fraction(1, 2**53)
    for trial in range(200):
        n = int(rng.integers(3, 102))
        h = np.zeros(n)
        h[1:] = rng.uniform(-2, 2, n - 1) * 10.0 ** rng.integers(-3, 4, n - 1)
        h, l = dd.two_sum(h, h * rng.uniform(-1, 1, n) * 2.0**-53)
        q = [_exact_dd(h[m], l[m]) / m for m in range(1, n)]
        if trial % 2:
            absum = sum(map(abs, q[:-1]))
            target = Fraction(10.0 ** rng.uniform(-16, -3)) * absum * (-1) ** int(rng.integers(2))
            last = (target - sum(q[:-1])) * (n - 1)
            h[-1] = float(last)
            l[-1] = float(last - Fraction(h[-1]))
            q[-1] = _exact_dd(h[-1], l[-1]) / (n - 1)
        want, absum = sum(q), sum(map(abs, q))
        if trial % 2:
            assert absum / 10**17 < abs(want) <= absum / 10**3
        L = (n - 2).bit_length()
        got = PolySeries(h, lo=l).integral_over_y()
        assert abs(Fraction(got) - want) <= u * abs(want) + (2 * L * (L + 1) + 1) * u**2 * absum


def test_array_add_pads_and_widens():
    # summed in order, as a pass collapses its terms: shorter arrays are
    # zero-padded, and a double-double operand widens a float64 one
    terms = [np.array([1.0]), np.array([0.0, 2.0]), np.array([3.0, 0.0, 1.0])]
    assert np.array_equal(reduce(add, terms), [4.0, 2.0, 1.0])
    mixed = add(np.array([1.0, 2.0]), widen(np.array([1e-20])))
    assert np.array_equal(mixed, [[1.0, 2.0], [1e-20, 0.0]])


def test_widen_adds_zero_low_parts():
    a = np.array([1.0, -2.0, 0.5])
    wide = widen(a)
    assert wide.shape == (2, 3)
    assert np.array_equal(wide[0], a) and not np.count_nonzero(wide[1])
    assert widen(wide) is wide  # a double-double array stays as it is
    p = PolySeries.from_array(wide)
    assert p.extended and np.array_equal(p.coeffs, a)


def test_deflection_series_edge_value_is_exactly_zero():
    rng = np.random.default_rng(37)
    for _ in range(20):
        coeffs = np.concatenate([[0.0], rng.uniform(-5, 5, int(rng.integers(1, 40)))])
        w = deflection_series(PolySeries(coeffs))
        assert w.evaluate(1.0) == 0.0


def test_deflection_series_is_the_tail_integral():
    # w(y) = -(integral of phi(e)/e from y to 1), checked by quadrature
    rng = np.random.default_rng(41)
    coeffs = np.concatenate([[0.0], rng.uniform(-2, 2, 5)])
    phi = PolySeries(coeffs)
    w = deflection_series(phi)
    for y in (0.0, 0.3, 0.8):
        want, _ = quad(lambda e: phi.evaluate(e) / e if e > 0 else phi.coeffs[1],
                       y, 1.0)
        assert math.isclose(w.evaluate(y), -want, rel_tol=1e-10, abs_tol=1e-12)
    assert math.isclose(w.evaluate(0.0), -phi.integral_over_y(), rel_tol=1e-14)


def test_extended_round_trip_and_agreement():
    rng = np.random.default_rng(43)
    f = _random_poly(rng, 8)
    g = _random_poly(rng, 8)
    fe, ge = _extended(f), _extended(g)
    assert fe.extended and not f.extended
    prod = multiply(fe, ge)
    assert np.allclose(prod.coeffs + prod.lo, multiply(f, g).coeffs, rtol=1e-15,
                       atol=1e-300)
    for y in (0.0, 0.4, 1.0):
        assert math.isclose(fe.evaluate(y), f.evaluate(y), rel_tol=1e-15,
                            abs_tol=1e-300)


def test_extended_carries_sub_ulp_information():
    p = _extended(PolySeries([1.0]))
    # a constant shift below double resolution survives in the low words
    shifted = p + _extended(PolySeries([1e-20]))
    assert shifted.coeffs[0] == 1.0
    assert shifted.lo is not None and shifted.lo[0] == 1e-20


def test_extended_deflection_edge_value_also_exact():
    rng = np.random.default_rng(47)
    coeffs = np.concatenate([[0.0], rng.uniform(-5, 5, 25)])
    w = deflection_series(_extended(PolySeries(coeffs)))
    assert w.evaluate(1.0) == 0.0


def _dd_random_poly(rng, length, decades=(0, 0)):
    # double-double coefficients whose low parts carry real information,
    # scaled by 10**x for x uniform over ``decades``
    hi = rng.uniform(-2.0, 2.0, length) * 10.0 ** rng.uniform(*decades, length)
    lo = hi * rng.uniform(-1.0, 1.0, length) * 1e-17
    return PolySeries(hi, lo=lo)


@pytest.mark.parametrize("block", [polyseries._BLOCK, 97])
def test_extended_multiply_against_mpmath(block, monkeypatch):
    # block 97 gives one-row product blocks and one-point evaluation blocks
    import mpmath

    monkeypatch.setattr(polyseries, "_BLOCK", block)

    def exact(p):
        return [mpmath.mpf(float(h)) + mpmath.mpf(float(l)) for h, l in zip(p.coeffs, p.lo)]

    rng = np.random.default_rng(53)
    # (len f, len g, max_degree, decades): two length-30 series of size
    # about 1, then the solver's shapes, truncation 100 capping at degree
    # 102 in an iterate pass and the residual uncapped, with coefficients
    # from 1e-30 to 1e3
    shapes = [(30, 30, None, (0, 0)), (30, 30, 40, (0, 0)), (101, 101, 102, (-30, 3)),
              (101, 101, None, (-30, 3)), (60, 101, 102, (-30, 3))]
    with mpmath.workdps(50):
        for n, m, cap, decades in shapes:
            f, g = _dd_random_poly(rng, n, decades), _dd_random_poly(rng, m, decades)
            fx, gx = exact(f), exact(g)
            prod = multiply(f, g, max_degree=cap)
            size = n + m - 1 if cap is None else cap + 1
            assert prod.extended and len(prod.coeffs) == size
            for k, got in enumerate(exact(prod)):
                terms = [fx[i] * gx[k - i] for i in range(max(0, k - m + 1), min(k, n - 1) + 1)]
                scale = sum(abs(t) for t in terms)
                assert abs(got - sum(terms)) <= scale * mpmath.mpf(1e-28), (n, m, cap, k)

        p = _dd_random_poly(rng, 201)
        px = exact(p)
        ys = np.linspace(0.0, 1.0, 101)
        vh, vl = p._horner_dd(ys)
        for y, h, l in zip(ys, vh, vl):
            y = mpmath.mpf(float(y))
            want, scale = mpmath.mpf(0), mpmath.mpf(0)
            for c in reversed(px):
                want = want * y + c
                scale = scale * y + abs(c)
            got = mpmath.mpf(float(h)) + mpmath.mpf(float(l))
            assert abs(got - want) <= scale * mpmath.mpf(1e-28), float(y)

    # integer coefficients below 2**26 make every product exact, so the
    # double-double result must be the integer convolution itself
    for cap in (102, None):
        fi, gi = (rng.integers(-(1 << 26) + 1, 1 << 26, 101) for _ in range(2))
        prod = multiply(_extended(PolySeries(fi.astype(float))),
                        _extended(PolySeries(gi.astype(float))), max_degree=cap)
        want = [sum(int(fi[i]) * int(gi[k - i]) for i in range(max(0, k - 100), min(k, 100) + 1))
                for k in range(len(prod.coeffs))]
        got = [Fraction(float(h)) + Fraction(float(l)) for h, l in zip(prod.coeffs, prod.lo)]
        assert got == want, cap


def test_dd_power_table_cache(monkeypatch):
    # one table per point set, whatever the degree: a longer series grows it
    monkeypatch.setattr(polyseries, "_DD_TABLES", {})
    tables = polyseries._DD_TABLES
    rng = np.random.default_rng(61)
    ys = np.linspace(0.0, 1.0, 101)
    short, long = _dd_random_poly(rng, 10), _dd_random_poly(rng, 201)
    cold = short._horner_dd(ys)
    assert list(tables) == [ys.tobytes()]
    table = tables[ys.tobytes()]
    assert table.shape == (2, 17, 101) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 2.0
    warm = short._horner_dd(ys)
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))
    vlong = long._horner_dd(ys)
    assert list(tables) == [ys.tobytes()]
    table = tables[ys.tobytes()]
    assert table.shape == (2, 32, 101) and table.nbytes == 51712  # 13 runs, rounded up to 16
    # rows 0..15 hold y**k and rows 16..31 y**(16 j), to double-double accuracy
    for i in (50, 75, 99, 100):
        y = Fraction(float(ys[i]))
        for row, k in enumerate(list(range(16)) + [16 * j for j in range(16)]):
            got = Fraction(float(table[0, row, i])) + Fraction(float(table[1, row, i]))
            assert abs(got - y**k) <= y**k / 10**29, (i, k)
    # a grown table, or a cold one, gives the same bits as a warm one
    for p, before in ((short, cold), (long, vlong)):
        assert all(np.array_equal(a, b) for a, b in zip(p._horner_dd(ys), before))
        tables.clear()
        assert all(np.array_equal(a, b) for a, b in zip(p._horner_dd(ys), before))

    # bounded: the point sets used longest ago are dropped; float64 tables are apart
    grids = [ys ** (k + 1) for k in range(polyseries._MAX_TABLES + 2)]
    for g in grids:
        short._horner_dd(g)
    assert list(tables) == [g.tobytes() for g in grids[-polyseries._MAX_TABLES:]]
    monkeypatch.setattr(polyseries, "_TABLES", {})
    PolySeries(short.coeffs).evaluate_grid(ys)
    assert len(tables) == polyseries._MAX_TABLES and list(polyseries._TABLES) == [ys.tobytes()]


@pytest.mark.parametrize("block", [polyseries._BLOCK, 97])
def test_extended_evaluation_against_mpmath(block, monkeypatch):
    # coefficients from 1e-30 to 1e3, on the residual grid; block 97 gives
    # one-point blocks to the degree-200 series
    import mpmath

    monkeypatch.setattr(polyseries, "_BLOCK", block)
    rng = np.random.default_rng(67)
    ys = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    with mpmath.workdps(50):
        for length in (1, 2, 16, 17, 33, 201):
            p = _dd_random_poly(rng, length, (-30, 3))
            vh, vl = p._horner_dd(ys)
            # y = 0 gives c_0 bit for bit, on a grid and alone
            assert vh[0] == p.coeffs[0] and vl[0] == p.lo[0]
            assert p.evaluate(0.0) == p.coeffs[0] == p.evaluate_grid([0.0])[0]
            # every point is its own sum, whatever the blocks
            for i in (37, 100):
                h, lo = p._horner_dd(ys[i : i + 1])
                assert h[0] == vh[i] and lo[0] == vl[i]
            # the float64 evaluation of the high parts is within (2 n + 2) u
            # sum |c_m| y**m, and its bound is that at y = 1
            plain, bound = p._grid_hi(ys)
            assert plain[0] == p.coeffs[0]
            cs = [mpmath.mpf(float(h)) + mpmath.mpf(float(l)) for h, l in zip(p.coeffs, p.lo)]
            for y, h, l, v in zip(ys, vh, vl, plain):
                y = mpmath.mpf(float(y))
                want, scale = mpmath.mpf(0), mpmath.mpf(0)
                for c in reversed(cs):
                    want = want * y + c
                    scale = scale * y + abs(c)
                err = abs(mpmath.mpf(float(h)) + mpmath.mpf(float(l)) - want) / scale
                assert err <= mpmath.mpf(1e-28), (length, float(y))
                worst = max(worst, float(err))
                assert abs(mpmath.mpf(float(v)) - want) <= (2 * length + 2) * 2.0**-53 * scale
            assert bound == pytest.approx((2 * length + 2) * 2.0**-53 * float(scale), rel=1e-12)
    assert worst < 1e-30  # measured 7.7e-32
