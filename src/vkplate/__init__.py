"""Large-deflection solver for the Von Karman circular-plate equations
in integral form.

The package provides the homotopy-series solver in prescribed-load and
prescribed-deflection modes, the classical interpolation iteration as a
baseline (with an executable equivalence check), and supporting
polynomial, kernel and reporting machinery.  See the README for the
command-line interface.
"""

from .config import IterateMode, SeriesMode
from .diagnostics import OrderComparison, SweepResult, compare_orders, sweep_c0
from .given_deflection import GivenDeflectionProblem
from .given_deflection import solve as solve_deflection
from .given_load import GivenLoadProblem
from .given_load import solve as solve_load
from .ham import HomotopyState, ResidualReport, residual_error
from .interpolation import InterpState, equivalence_check
from .kernels import BoundarySpec
from .physics import PhysicalPlate, deflection_curve, load_number, w_over_h
from .polyseries import PolySeries, deflection_series
from .report import RunReport, emit_report

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec",
    "GivenDeflectionProblem",
    "GivenLoadProblem",
    "HomotopyState",
    "InterpState",
    "IterateMode",
    "OrderComparison",
    "PhysicalPlate",
    "PolySeries",
    "ResidualReport",
    "RunReport",
    "SeriesMode",
    "SweepResult",
    "compare_orders",
    "deflection_curve",
    "deflection_series",
    "emit_report",
    "equivalence_check",
    "load_number",
    "residual_error",
    "solve_deflection",
    "solve_load",
    "sweep_c0",
    "w_over_h",
    "__version__",
]
