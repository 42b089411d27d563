"""Dimensional bookkeeping: the load number, thickness scaling, and
the sampled deflection profile."""

import math

import mpmath
import numpy as np
import pytest

from vkplate.config import IterateMode
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_deflection import solve as solve_deflection
from vkplate.given_load import GivenLoadProblem, solve
from vkplate.physics import (
    PhysicalPlate,
    deflection_curve,
    deflection_scale,
    load_number,
    w_over_h,
)
from vkplate.polyseries import PolySeries, deflection_series


def test_plate_validation():
    good = dict(young_modulus=2.1e11, poisson=0.3, radius=0.5,
                thickness=0.005, pressure=1e4)
    PhysicalPlate(**good)
    for field, bad in (("young_modulus", -1.0), ("radius", 0.0),
                       ("thickness", -0.1), ("poisson", 0.5 + 0.5)):
        kw = dict(good)
        kw[field] = bad
        with pytest.raises(ValueError):
            PhysicalPlate(**kw)


def test_load_number_against_mpmath():
    mpmath.mp.dps = 40
    rng = np.random.default_rng(2718)
    for _ in range(10):
        e = float(rng.uniform(1e10, 3e11))
        nu = float(rng.uniform(0.0, 0.49))
        r = float(rng.uniform(0.05, 2.0))
        h = float(rng.uniform(1e-3, 2e-2))
        p = float(rng.uniform(1e2, 1e6))
        plate = PhysicalPlate(e, nu, r, h, p)
        f = mpmath.mpf(3) * (1 - mpmath.mpf(nu) ** 2)
        want = f * mpmath.sqrt(f) * mpmath.mpf(r) ** 4 * p / (
            4 * mpmath.mpf(e) * mpmath.mpf(h) ** 4)
        assert math.isclose(load_number(plate), float(want), rel_tol=1e-13)


def test_deflection_scale_value():
    assert math.isclose(deflection_scale(0.3), math.sqrt(2.73), rel_tol=1e-15)
    assert math.isclose(w_over_h(-3.3045, 0.3), 3.3045 / math.sqrt(2.73),
                        rel_tol=1e-15)


def test_curve_of_zero_slope_is_flat():
    rows = list(deflection_curve(PolySeries(np.zeros(1)), 0.3, samples=7))
    assert len(rows) == 7
    assert all(w == 0.0 and wh == 0.0 for _, _, w, wh in rows)


def test_curve_edge_and_axis_columns():
    mode = IterateMode(order=5, truncation=100, tol=1e-10, max_iter=60)
    rep = solve(GivenLoadProblem.with_c0(1000.0, -23.0 / 1023.0, mode))
    rows = list(deflection_curve(rep.phi, 0.3, samples=21))
    ys = [r[0] for r in rows]
    assert ys == pytest.approx(list(np.linspace(0.0, 1.0, 21)))
    for y, r_ra, _, _ in rows:
        assert math.isclose(r_ra, math.sqrt(y), rel_tol=1e-15, abs_tol=0.0)
    assert rows[-1][2] == 0.0  # clamped edge
    # center value in thickness units sits near 6.1 and decreases outward
    wh = [r[3] for r in rows]
    assert abs(wh[0] - 6.14) < 0.05
    assert all(b <= a + 1e-12 for a, b in zip(wh, wh[1:]))


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_curve_is_the_pointwise_evaluation(precision):
    # one evaluation over all samples gives each sample the bits that
    # evaluating W at it alone gives
    mode = IterateMode(order=5, truncation=100, tol=1e-24)
    rep = solve_deflection(GivenDeflectionProblem.with_c0(5.0, -0.5, mode,
                                                          precision=precision))
    assert rep.phi.extended == (precision == "extended")
    w = deflection_series(rep.phi)
    rows = deflection_curve(rep.phi, 0.3, samples=201)
    for (y, _, wv, wh), t in zip(rows, np.linspace(0.0, 1.0, 201), strict=True):
        assert y == float(t) and wv == w.evaluate(y) and wh == wv / deflection_scale(0.3)
    with pytest.raises(ValueError, match="leaves"):
        w.evaluate(np.array([0.5, 1.5]))
