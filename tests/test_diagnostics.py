"""Control-value sweeps and pass-order comparisons."""

import math

import pytest

from vkplate.config import IterateMode, SeriesMode
from vkplate.diagnostics import compare_orders, sweep_c0
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_load import GivenLoadProblem


def _load_problem(order=10, **kw):
    return GivenLoadProblem.with_c0(5.0, -0.5, SeriesMode(order), **kw)


def test_single_point_grid():
    res = sweep_c0(_load_problem(5), [-0.5])
    assert len(res.points) == 1
    assert res.best is res.points[0]
    assert res.best.c0 == -0.5


def test_rows_follow_grid_order():
    grid = [-0.9, -0.3, -0.6]
    res = sweep_c0(_load_problem(5), grid)
    assert [p.c0 for p in res.points] == grid


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_c0(_load_problem(5), [])
    with pytest.raises(ValueError):
        sweep_c0(_load_problem(5), [-2.5])
    with pytest.raises(ValueError):
        sweep_c0(_load_problem(5), [0.1])


def test_sweep_handles_deflection_problems():
    p = GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(8))
    res = sweep_c0(p, [-0.4, -0.2])
    assert len(res.points) == 2
    assert all(math.isfinite(pt.err) for pt in res.points)


def test_divergent_point_recorded_not_raised():
    p = GivenLoadProblem.with_c0(1000.0, -0.5, SeriesMode(40))
    res = sweep_c0(p, [-1.99, -0.02])
    statuses = {pt.c0: pt.status for pt in res.points}
    assert statuses[-1.99] == "diverged"
    # the best point skips non-finite residuals
    assert res.best is None or math.isfinite(res.best.err)


def test_sweep_uses_the_requested_order():
    # the order is the problem's SeriesMode
    coarse = sweep_c0(_load_problem(3), [-0.5]).best.err
    fine = sweep_c0(_load_problem(25), [-0.5]).best.err
    assert fine < coarse


def test_compare_orders_requires_iterate_mode():
    with pytest.raises(ValueError):
        compare_orders(_load_problem(), (1, 2))


def test_compare_orders_single_m_degenerates():
    p = GivenLoadProblem.with_c0(
        5.0, -0.5, IterateMode(order=5, truncation=40, tol=1e-10, max_iter=30))
    comp = compare_orders(p, (1,))
    assert set(comp.runs) == {1}
    rows = comp.rows()
    assert all(r[0] == 1 for r in rows)
    assert comp.iterations_to(1e-10)[1] == comp.runs[1].iterations_to(1e-10)


def test_compare_orders_rejects_bad_m():
    p = GivenLoadProblem.with_c0(
        5.0, -0.5, IterateMode(order=5, truncation=40, tol=1e-10, max_iter=30))
    with pytest.raises(ValueError):
        compare_orders(p, (0,))


def test_higher_pass_order_never_needs_more_passes():
    p = GivenLoadProblem.with_c0(
        20.0, -0.4, IterateMode(order=1, truncation=60, tol=1e-12, max_iter=120))
    comp = compare_orders(p, (1, 2, 4))
    reached = comp.iterations_to(1e-9)
    assert None not in reached.values()
    assert reached[1] >= reached[2] >= reached[4]
