"""Edge-weighted kernel operators checked against direct quadrature.

The operators map a polynomial f to the integral of K(y, e) f(e) de over
[0, 1] with K(y, e) = (w - 1) y e + min(y, e); the quadrature oracle
integrates the kernel numerically, splitting at the corner e = y."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from vkplate.config import SeriesMode
from vkplate.diagnostics import solve_problem
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.kernels import (
    BOUNDARY_KINDS,
    BoundarySpec,
    apply_membrane_kernel,
    apply_slope_kernel,
    forcing,
    forcing_integral,
    kernel_map,
)
from vkplate.polyseries import PolySeries, over_y_squared, weighted_integral, widen

from oracles import kernel_value

_ALL_BOUNDARIES = [BoundarySpec(kind) for kind in BOUNDARY_KINDS]


def _oracle(f, y, w):
    """Integral of K(y, e) f(e) de, split at the kink."""
    def integrand(e):
        return kernel_value(y, e, w) * f.evaluate(e)
    lo, _ = quad(integrand, 0.0, y, limit=200)
    hi, _ = quad(integrand, y, 1.0, limit=200)
    return lo + hi


def test_kernel_value_pointwise():
    assert kernel_value(0.3, 0.6, 2.0) == (2.0 - 1.0) * 0.3 * 0.6 + 0.3
    assert kernel_value(0.6, 0.3, 0.0) == -0.6 * 0.3 + 0.3
    assert kernel_value(0.5, 0.5, 1.0) == 0.5


def test_boundary_table():
    nu = 0.3
    table = {
        "clamped": (0.0, 2.0 / (1.0 - nu)),
        "moveable": (0.0, 0.0),
        "simple": (2.0 / (1.0 + nu), 0.0),
        "hinged": (2.0 / (1.0 + nu), 2.0 / (1.0 - nu)),
    }
    for kind, (lam, mu) in table.items():
        b = BoundarySpec(kind, nu)
        assert b.lam == lam and b.mu == mu


def test_boundary_validation():
    with pytest.raises(ValueError):
        BoundarySpec("welded")
    with pytest.raises(ValueError):
        BoundarySpec("clamped", nu=1.0)
    with pytest.raises(ValueError):
        BoundarySpec("clamped", nu=-1.5)


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
def test_monomial_images_match_quadrature(kind):
    b = BoundarySpec(kind)
    ys = np.linspace(0.0, 1.0, 11)
    for m in list(range(0, 12)) + [20, 30]:
        mono = PolySeries([0.0] * m + [1.0])
        for apply_op, w in ((apply_slope_kernel, b.lam), (apply_membrane_kernel, b.mu)):
            image = apply_op(mono, b)
            for y in ys:
                got = image.evaluate(float(y))
                want = _oracle(mono, float(y), w)
                assert abs(got - want) <= 1e-10, (kind, m, w, y)


def test_operator_linearity():
    rng = np.random.default_rng(101)
    b = BoundarySpec("hinged")
    f = PolySeries(rng.uniform(-1, 1, 6))
    g = PolySeries(rng.uniform(-1, 1, 9))
    lhs = apply_slope_kernel(f.scaled(2.5) + g.scaled(-1.25), b)
    rhs = apply_slope_kernel(f, b).scaled(2.5) + apply_slope_kernel(g, b).scaled(-1.25)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-15)


def test_image_shape_is_linear_plus_shifted_power():
    b = BoundarySpec("clamped")
    m = 7
    image = apply_slope_kernel(PolySeries([0.0] * m + [1.0]), b)
    # only the y and y**(m+2) entries may be populated
    nz = np.nonzero(image.coeffs)[0]
    assert set(nz).issubset({1, m + 2})
    assert image.degree == m + 2


def test_clamped_slope_image_vanishes_at_edge():
    b = BoundarySpec("clamped")
    rng = np.random.default_rng(59)
    f = PolySeries(rng.uniform(-3, 3, 10))
    image = apply_slope_kernel(f, b)
    assert abs(image.evaluate(1.0)) < 1e-14


def test_image_at_origin_is_exactly_zero():
    for b in _ALL_BOUNDARIES:
        f = PolySeries([1.0, 2.0, 3.0])
        assert apply_slope_kernel(f, b).evaluate(0.0) == 0.0
        assert apply_membrane_kernel(f, b).evaluate(0.0) == 0.0


def test_load_forcing_is_the_constant_image():
    for b in _ALL_BOUNDARIES:
        lf = forcing(b)
        image = apply_slope_kernel(PolySeries([1.0]), b)
        assert np.allclose(lf, image.coeffs, rtol=1e-15)
        assert np.allclose(lf, [0.0, (b.lam + 1.0) / 2.0, -0.5])
        # a load scales the unit image, in double-double too
        assert np.array_equal(forcing(b, -3.0), lf * -3.0)
        assert np.array_equal(forcing(b, -3.0, extended=True)[0], lf * -3.0)


def test_forcing_integral_closed_form_and_quadrature():
    for b in _ALL_BOUNDARIES:
        want = (2.0 * b.lam + 1.0) / 4.0
        assert math.isclose(forcing_integral(b), want, rel_tol=1e-15)
        lf = PolySeries(forcing(b))
        by_quad, _ = quad(lambda y: lf.evaluate(y) / y if y > 0 else lf.coeffs[1],
                          0.0, 1.0)
        assert math.isclose(forcing_integral(b), by_quad, rel_tol=1e-12)


def test_forcing_integral_is_computed_once_per_boundary():
    # a deflection solve divides by it at every order; each boundary
    # computes it once, with the bits of the weighted integral
    forcing_integral.cache_clear()
    for b in _ALL_BOUNDARIES:
        solve_problem(GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(4), boundary=b))
        assert forcing_integral(b) == weighted_integral(forcing(b))
    info = forcing_integral.cache_info()
    assert (info.misses, info.hits) == (4, 4 * 4)


def test_zero_input_zero_image():
    b = BoundarySpec("simple")
    zero3 = PolySeries([0.0, 0.0, 0.0])
    for z in (PolySeries(np.zeros(1)), zero3, PolySeries.from_array(widen(zero3.coeffs))):
        for image in (apply_slope_kernel(z, b), apply_membrane_kernel(z, b)):
            assert not np.count_nonzero(image.array) and image.degree == 0  # zero never grows
            assert image.extended == z.extended


@pytest.mark.parametrize("extended", [False, True], ids=["double", "extended"])
@pytest.mark.parametrize("n", [1, 2])
def test_empty_quotient_reads_as_zero(n, extended):
    # removing y**2 from a zero series of length 1 or 2 is the only way to
    # an empty coefficient array; the kernel map and PolySeries read it as [0]
    z = widen(np.zeros(n)) if extended else np.zeros(n)
    empty = over_y_squared(z)
    zero = np.zeros(z.shape[:-1] + (1,))
    assert empty.shape == z.shape[:-1] + (0,)
    for w in (0.0, 2.0 / 0.7):
        assert np.array_equal(kernel_map(empty, w), zero)
    p = PolySeries.from_array(empty)
    assert np.array_equal(p.array, zero) and p.extended == extended


def test_extended_path_matches_double_path():
    rng = np.random.default_rng(71)
    b = BoundarySpec("hinged")
    f = PolySeries(rng.uniform(-2, 2, 14))
    plain = apply_membrane_kernel(f, b)
    ext = apply_membrane_kernel(PolySeries.from_array(widen(f.coeffs)), b)
    assert ext.extended
    assert np.allclose(ext.coeffs + ext.lo, plain.coeffs, rtol=1e-14, atol=1e-300)


def test_extended_linear_coefficient_tighter_than_double():
    # the y-coefficient is a dot product; compare both paths to exact rationals
    rng = np.random.default_rng(73)
    coeffs = rng.uniform(-1, 1, 60)
    b = BoundarySpec("clamped")
    f = PolySeries(coeffs)
    exact = sum(
        (Fraction(float(c)) * (Fraction(b.lam - 1.0) / (m + 2) + Fraction(1, m + 1))
         for m, c in enumerate(coeffs)),
        Fraction(0),
    )
    ext = apply_slope_kernel(PolySeries.from_array(widen(f.coeffs)), b)
    hi = Fraction(float(ext.coeffs[1])) + Fraction(float(ext.lo[1]))
    # the pair representation should sit within a few ulp**2 of the exact value
    assert abs(hi - exact) < Fraction(1, 10**25)
