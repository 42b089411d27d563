"""Survey tools: control-value sweeps and iteration-order comparisons.

Both take a fully configured problem and rerun it under systematically
varied settings, which is how a usable control value or pass order is
picked in practice: sweep the control over a grid at modest series
order, look for the residual valley, then iterate near its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import given_deflection, given_load, ham
from .config import IterateMode, SeriesMode
from .given_deflection import GivenDeflectionProblem
from .given_load import GivenLoadProblem


def solve_problem(problem, state=None):
    """Run a prescribed-load or prescribed-deflection problem with its solver,
    from a stepped ``state`` if one is given (see ``ham.solve``)."""
    if isinstance(problem, GivenLoadProblem):
        return given_load.solve(problem, state)
    if isinstance(problem, GivenDeflectionProblem):
        return given_deflection.solve(problem, state)
    raise TypeError(f"not a solvable problem: {type(problem).__name__}")


@dataclass(frozen=True)
class SweepPoint:
    c0: float
    err: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    best: SweepPoint | None


#: Doubles the series terms of one chunk of sweep controls may hold; a
#: control's terms through order n take 2 (n + 1)(n + 2), so a chunk holds
#: 6 controls at order 20, 3 at order 30 and one from order 38.
_CHUNK_DOUBLES = 6 << 10


def _stepped_chunk(problem, c0s):
    """The series state of the controls c0s stepped as one float64 batch, or None on
    a floating-point exception, which a control alone may only warn of."""
    b, load = problem.boundary, getattr(problem, "load", None)
    c = np.array(c0s).reshape(-1, 1, 1)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            phi0 = (given_load.initial_slope(load, c, b) if load is not None else
                    given_deflection.initial_slope(problem.deflection, b) * np.ones_like(c))
            state = ham.HomotopyState([phi0], [np.zeros_like(c)], c, c, load)
            for k in range(1, problem.mode.order + 1):
                ham.deformation_step(state, k, b)
    except (FloatingPointError, ValueError):  # or rows whose images differ in length
        return None
    return state


def sweep_c0(problem, c0_grid) -> SweepResult:
    """Residual of the problem's own mode over a control grid.

    Each grid value c0 replaces both controls of ``problem``, which its own
    solver then judges, so a ``SeriesMode`` scores the plain series at its
    order; since only err and status are read, it runs with ``every_order``
    False.  A float64 series is stepped in chunks of controls and each solve
    gets its row (a chunk that raises leaves every control to its own solve),
    so every err and status is, bit for bit, that of the control solved alone.
    Points are reported in grid order; ``best`` is the finite minimum (None
    if every point diverged).  The residual valley around the minimum is the
    usable control region.
    """
    grid = [float(c) for c in c0_grid]
    if not grid:
        raise ValueError("control grid is empty")
    for c in grid:
        if not -2.0 < c < 0.0:
            raise ValueError(f"control value {c} outside (-2, 0)")
    size = 1  # controls per chunk; a chunk of one is stepped by its solve
    if isinstance(problem.mode, SeriesMode):
        problem = replace(problem, mode=replace(problem.mode, every_order=False))
        if problem.precision == "double":
            n = problem.mode.order
            size = max(1, _CHUNK_DOUBLES // (2 * (n + 1) * (n + 2)))
    points = []
    for i in range(0, len(grid), size):
        chunk = grid[i : i + size]
        batch = _stepped_chunk(problem, chunk) if len(chunk) > 1 else None
        for j, c0 in enumerate(chunk):
            row = None if batch is None else batch.row(j)
            run = solve_problem(replace(problem, c1=c0, c2=c0), row)
            points.append(SweepPoint(c0, run.err, run.status))
        del batch, row  # before the next chunk is stepped
    finite = [p for p in points if math.isfinite(p.err)]
    best = min(finite, key=lambda p: p.err) if finite else None
    return SweepResult(tuple(points), best)


def compare_orders(problem, m_values=(1, 2, 3, 4, 5)) -> dict:
    """Rerun an iterate-mode problem at several pass orders: ``{m: RunReport}``.

    Higher order per pass should never need more passes to a given
    residual level; the comparison makes that checkable.
    """
    if not isinstance(problem.mode, IterateMode):
        raise ValueError("compare_orders needs an iterate-mode problem")
    if not m_values:
        raise ValueError("no pass order given")
    for m in m_values:  # every order is checked before any is solved
        if m < 1:
            raise ValueError(f"pass order must be >= 1, got {m}")
    return {int(m): solve_problem(replace(problem, mode=replace(problem.mode, order=int(m))))
            for m in m_values}
