"""Run reports and their serialized forms.

Per-iteration history rows use the fields of ``IterationRecord`` as
their schema, ``iteration,order,err,q,w0_over_h,wall_ms``; deflection
curves use ``y,r_over_Ra,W,w_over_h``.  A report stores the history and
the final pair; its load, center deflection and residual are those of
the last record, and the JSON form derives its 11-point deflection
samples from the final slope series.  Numbers are written with shortest
round-trip repr, so identical runs produce identical bytes; wall-clock
columns can be zeroed out (``deterministic=True``) when byte-stable
artifacts matter more than timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from operator import attrgetter

from .physics import deflection_curve

CURVE_COLUMNS = ("y", "r_over_Ra", "W", "w_over_h")


@dataclass
class IterationRecord:
    iteration: int
    order: int
    err: float
    q: float
    w0_over_h: float
    wall_ms: float = 0.0


HISTORY_COLUMNS = tuple(f.name for f in fields(IterationRecord))
_history_row = attrgetter(*HISTORY_COLUMNS)


@dataclass
class RunReport:
    """Everything a solve produced: config echo, history, final solution."""

    config: dict
    history: list
    phi: object
    s: object
    status: str
    restriction_defect: float | None = None

    @property
    def err(self) -> float:
        return self.history[-1].err if self.history else float("nan")

    @property
    def q(self) -> float:
        return self.history[-1].q if self.history else float("nan")

    @property
    def w0_over_h(self) -> float:
        return self.history[-1].w0_over_h if self.history else float("nan")

    @property
    def iterations(self) -> int:
        return self.history[-1].iteration if self.history else 0

    def iterations_to(self, threshold: float):
        """First iteration whose residual is at or below threshold, or None."""
        for rec in self.history:
            if rec.err <= threshold:
                return rec.iteration
        return None


def fmt_float(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def csv_text(header, rows) -> str:
    """A header line, then one comma-joined line of fmt_float values per row."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt_float, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _history_rows(report: RunReport, deterministic: bool):
    """Each record's values in ``HISTORY_COLUMNS`` order, wall-clock times
    zeroed if deterministic; read shallowly, where ``dataclasses.astuple``
    would deep-copy every value."""
    history = report.history
    if deterministic:
        history = [replace(rec, wall_ms=0.0) for rec in history]
    return map(_history_row, history)


def history_csv(report: RunReport, deterministic: bool = False) -> str:
    return csv_text(HISTORY_COLUMNS, _history_rows(report, deterministic))


def curve_csv(rows) -> str:
    """Rows of (y, r_over_Ra, W, w_over_h) as CSV text."""
    return csv_text(CURVE_COLUMNS, rows)


def report_json(report: RunReport, deterministic: bool = False) -> str:
    payload = {
        "config": report.config,
        "status": report.status,
        "q": report.q,
        "w0_over_h": report.w0_over_h,
        "err": report.err,
        "history": [dict(zip(HISTORY_COLUMNS, row))
                    for row in _history_rows(report, deterministic)],
        "phi_coeffs": [float(c) for c in report.phi.coeffs],
        "s_coeffs": [float(c) for c in report.s.coeffs],
        "deflection_samples": [[y, wv] for y, _, wv, _ in
                               deflection_curve(report.phi, report.config["nu"], 11)],
    }
    if report.phi.lo is not None:
        payload["phi_coeffs_lo"] = [float(c) for c in report.phi.lo]
        payload["s_coeffs_lo"] = [float(c) for c in report.s.lo]
    if report.restriction_defect is not None:
        payload["restriction_defect"] = report.restriction_defect
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, fmt: str = "csv",
                deterministic: bool = False) -> str:
    """Serialize a report as CSV history or JSON."""
    if fmt == "csv":
        return history_csv(report, deterministic=deterministic)
    if fmt == "json":
        return report_json(report, deterministic=deterministic)
    raise ValueError(f"unknown report format {fmt!r}")
