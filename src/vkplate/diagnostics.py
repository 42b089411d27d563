"""Survey tools: control-value sweeps and iteration-order comparisons.

Both take a fully configured problem and rerun it under systematically
varied settings, which is how a usable control value or pass order is
picked in practice: sweep the control over a grid at modest series
order, look for the residual valley, then iterate near its floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import IterateMode, SeriesMode
from . import given_deflection, given_load
from .given_deflection import GivenDeflectionProblem
from .given_load import GivenLoadProblem


def solve_problem(problem):
    """Run a prescribed-load or prescribed-deflection problem with its solver."""
    if isinstance(problem, GivenLoadProblem):
        return given_load.solve(problem)
    if isinstance(problem, GivenDeflectionProblem):
        return given_deflection.solve(problem)
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


def sweep_c0(problem, c0_grid) -> SweepResult:
    """Residual of the problem's own mode over a control grid.

    Each grid value c0 replaces both controls of ``problem``, which is
    then solved as configured, so a ``SeriesMode`` scores the plain
    series at its order; since only err and status are read, it runs
    with ``every_order`` False.  Points are reported in grid order; ``best`` is
    the finite minimum (None if every point diverged).  The residual
    valley around the minimum is the usable control region.
    """
    grid = [float(c) for c in c0_grid]
    if not grid:
        raise ValueError("control grid is empty")
    for c in grid:
        if not -2.0 < c < 0.0:
            raise ValueError(f"control value {c} outside (-2, 0)")
    if isinstance(problem.mode, SeriesMode):
        problem = replace(problem, mode=replace(problem.mode, every_order=False))
    points = []
    for c0 in grid:
        run = solve_problem(replace(problem, c1=c0, c2=c0))
        points.append(SweepPoint(c0, run.err, run.status))
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
