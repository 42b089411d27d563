"""Run configuration shared by both solver entry points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Residual threshold above which a run is declared divergent.
DIVERGENCE_ERR = 1e8

#: Passes an iterate run may go without a new residual minimum before it
#: is declared stalled.  In 52 converging runs (both edges, M 1-5, N 60
#: and 100, loads 10-1000, deflections 2-30) the longest such streak was 7.
STALL_PASSES = 50

#: Residual grid: squares averaged over GRID + 1 uniform points of [0, 1],
#: the read-only GRID_POINTS.
GRID = 100
GRID_POINTS = np.linspace(0.0, 1.0, GRID + 1)
GRID_POINTS.flags.writeable = False

PRECISIONS = ("double", "extended")


@dataclass(frozen=True)
class SeriesMode:
    """Plain homotopy series summed to a fixed order, no truncation.

    ``tol`` only classifies the final status (converged vs not); the
    series always runs to the requested order.  ``every_order`` False
    scores only the last order and the orders that
    ``ham.residual_bound`` cannot clear of divergence; the run's err,
    status and first diverged order stay those of a full run.
    """

    order: int = 100
    tol: float = 1e-12
    every_order: bool = True

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("series order must be >= 0")
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True)
class IterateMode:
    """Low-order passes with degree truncation, repeated to tolerance.

    ``order``       terms per pass (the M of an Mth-order iteration)
    ``truncation``  degree cap applied to every right-hand side
    ``tol``         stop once the mean-square residual falls below this
    ``max_iter``    pass budget

    A run that sets no new residual minimum (one below the best by more
    than a relative 2**-20) for ``STALL_PASSES`` passes stops there as
    stalled.
    """

    order: int = 5
    truncation: int = 100
    tol: float = 1e-12
    max_iter: int = 500

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("iteration order must be >= 1")
        if self.truncation < 2:
            raise ValueError("truncation degree must be >= 2")
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def check_settings(problem):
    """Shared checks of a homotopy problem: nonzero finite controls and a
    known precision."""
    for name in ("c1", "c2"):
        c = getattr(problem, name)
        if not math.isfinite(c) or c == 0.0:
            raise ValueError(f"{name} must be a nonzero finite real, got {c}")
    if problem.precision not in PRECISIONS:
        raise ValueError(f"precision {problem.precision!r} not one of {PRECISIONS}")


def config_echo(problem, head: dict) -> dict:
    """Run settings of a homotopy problem, after the solver's own ``head`` keys."""
    mode = problem.mode
    cfg = dict(head, c1=problem.c1, c2=problem.c2, boundary=problem.boundary.kind,
               nu=problem.boundary.nu, grid_size=GRID,
               precision=problem.precision)
    if isinstance(mode, SeriesMode):
        cfg.update(mode="series", order=mode.order)
    else:
        cfg.update(mode="iterate", order=mode.order, truncation=mode.truncation,
                   tol=mode.tol, max_iter=mode.max_iter)
    return cfg
