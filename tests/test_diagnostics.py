"""Control-value sweeps and pass-order comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest

from vkplate import diagnostics, ham
from vkplate.config import IterateMode, SeriesMode
from vkplate.diagnostics import _stepped_chunk, compare_orders, solve_problem, sweep_c0
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_load import GivenLoadProblem
from vkplate.kernels import BoundarySpec


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


_HINGED_LOAD = GivenLoadProblem.with_c0(5.0, -0.5, SeriesMode(20),
                                       boundary=BoundarySpec("hinged"))
_SIMPLE_DEFLECTION = GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(20),
                                                    boundary=BoundarySpec("simple"))
_GRID = [round(-1.9 + 0.1 * i, 10) for i in range(19)]
# -1.9 diverges, mid-chunk among converging points, for both problems
_MIXED = [-0.2, -0.1, -0.15, -1.9, -0.05, -0.22, -0.12, -0.07, -0.2]


@pytest.mark.parametrize("problem, grid, diverged", [
    (_HINGED_LOAD, _GRID, 17),
    (_SIMPLE_DEFLECTION, _GRID, 8),
    (_HINGED_LOAD, [-0.5], 1),
    (_SIMPLE_DEFLECTION, [-0.5], 0),
    (_HINGED_LOAD, _GRID[:6], 6),
    (_HINGED_LOAD, _MIXED, 1),
    (_SIMPLE_DEFLECTION, _MIXED[::-1], 1),
    (replace(_SIMPLE_DEFLECTION, mode=SeriesMode(8), precision="extended"), _GRID[:9], 0),
    # at -0.2 the float64 trial fails at an order the sweep does not record
    (GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(20), precision="extended"),
     [-0.25, -0.2], 0),
    (replace(_HINGED_LOAD, mode=IterateMode(3, 12, max_iter=6)), _GRID[10:], 5),
], ids=["load", "deflection", "one-point-load", "one-point-deflection",
        "all-diverged-chunk", "diverged-mid-chunk", "deflection-mixed", "extended",
        "extended-trial", "iterate"])
def test_sweep_matches_full_runs(problem, grid, diverged):
    # the sweep scores only what the residual bound cannot clear and steps a
    # float64 series in chunks, yet every point's err (bit for bit) and status
    # are those of its control's own run scoring every order
    points = sweep_c0(problem, grid).points
    full = [solve_problem(replace(problem, c1=c0, c2=c0)) for c0 in grid]
    assert [(p.c0, p.err, p.status) for p in points] == [
        (c0, r.err, r.status) for c0, r in zip(grid, full)]
    assert sum(p.status == "diverged" for p in points) == diverged


def test_sweep_chunks_cover_the_grids(monkeypatch):
    # the 19-point grid ends in a partial chunk, the 6-point one is one full chunk,
    # and the 9-point ones hold their diverged point mid-chunk and on its edge
    size = diagnostics._CHUNK_DOUBLES // (2 * 21 * 22)
    assert size == 6 and len(_GRID) % size and len(_GRID[:6]) == size
    assert 0 < _MIXED.index(-1.9) < size - 1 and _MIXED[::-1].index(-1.9) == size - 1
    steps, controls = [], []
    real = ham.deformation_step

    def step(*args):
        steps.append(args[1])
        controls.append(tuple(np.ravel(args[0].c1).tolist()))
        return real(*args)

    monkeypatch.setattr(ham, "deformation_step", step)
    # a float64 series takes one step per order and chunk
    sweep_c0(_HINGED_LOAD, _GRID[:8])
    assert steps == 2 * list(range(1, 21))
    # a chunk that raises leaves every control to its own solve: the one holding
    # -1.0 is tried as a batch, up to the order that raises, and then each of its
    # controls takes the steps of its solve alone, in grid order
    chunk = _GRID[6:12]
    assert chunk[3] == -1.0 and _stepped_chunk(_HINGED_LOAD, chunk) is None
    steps.clear()
    controls.clear()
    sweep_c0(_HINGED_LOAD, chunk)
    swept = list(zip(steps, controls))
    steps.clear()
    controls.clear()
    series = replace(_HINGED_LOAD.mode, every_order=False)
    for c0 in chunk:
        solve_problem(replace(_HINGED_LOAD, c1=c0, c2=c0, mode=series))
    tried = [(k, c) for k, c in swept if c == tuple(chunk)]
    assert [k for k, _ in tried] == list(range(1, len(tried) + 1))
    assert swept == tried + list(zip(steps, controls))
    assert set(controls) == {(c0,) for c0 in chunk}
    # an extended or iterate sweep steps each control as its own solve does
    for problem in (replace(_SIMPLE_DEFLECTION, mode=SeriesMode(8), precision="extended"),
                    replace(_HINGED_LOAD, mode=IterateMode(3, 12, max_iter=6))):
        steps.clear()
        sweep_c0(problem, _GRID[10:13])
        swept = list(steps)
        steps.clear()
        for c0 in _GRID[10:13]:
            solve_problem(replace(problem, c1=c0, c2=c0))
        assert swept == steps and len(steps) > 3


def test_sweep_steps_alone_what_a_batch_cannot_match():
    # c0 = -1 zeroes a load problem's first slope term, so its kernel images are
    # shorter than its neighbours' (the load grid above holds it); an overflow,
    # which a control alone shows as a warning, raises in a batch
    assert _stepped_chunk(_HINGED_LOAD, [-1.1, -0.9]) is not None
    assert _stepped_chunk(_HINGED_LOAD, [-1.1, -1.0]) is None
    huge = GivenLoadProblem.with_c0(1e300, -0.5, SeriesMode(3))
    assert _stepped_chunk(huge, [-0.5, -0.3]) is None


def test_benchmark_sweep_scores_at_most_two_orders_per_point(residual_calls):
    # the order-20 a = 5 sweep of the benchmark; scoring every order takes 1,870 calls
    grid = [round(-1.0 + 0.01 * i, 10) for i in range(96)]
    sweep_c0(GivenDeflectionProblem.with_c0(5.0, -0.5, SeriesMode(20)), grid)
    assert len(residual_calls) <= 2 * len(grid)


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
    assert set(comp) == {1}
    # the run under key 1 is the order-1 run: one order per pass
    run = comp[1]
    assert run.config["order"] == 1
    assert [rec.order for rec in run.history] == [rec.iteration for rec in run.history]
    assert run.iterations_to(1e-10) == (run.iterations if run.status == "converged"
                                        else None)


def test_compare_orders_rejects_bad_m():
    p = GivenLoadProblem.with_c0(
        5.0, -0.5, IterateMode(order=5, truncation=40, tol=1e-10, max_iter=30))
    with pytest.raises(ValueError):
        compare_orders(p, (0,))


def test_higher_pass_order_never_needs_more_passes():
    p = GivenLoadProblem.with_c0(
        20.0, -0.4, IterateMode(order=1, truncation=60, tol=1e-12, max_iter=120))
    comp = compare_orders(p, (1, 2, 4))
    reached = {m: run.iterations_to(1e-9) for m, run in comp.items()}
    assert None not in reached.values()
    assert reached[1] >= reached[2] >= reached[4]
