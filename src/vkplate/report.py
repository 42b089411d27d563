"""Run reports and their serialized forms.

Per-iteration history rows use the fixed CSV schema
``iteration,order,err,q,w0_over_h,wall_ms``; deflection curves use
``y,r_over_Ra,W,w_over_h``.  Numbers are written with shortest
round-trip repr, so identical runs produce identical bytes; wall-clock
columns can be zeroed out (``deterministic=True``) when byte-stable
artifacts matter more than timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

HISTORY_COLUMNS = ("iteration", "order", "err", "q", "w0_over_h", "wall_ms")
CURVE_COLUMNS = ("y", "r_over_Ra", "W", "w_over_h")


@dataclass
class IterationRecord:
    iteration: int
    order: int
    err: float
    q: float
    w0_over_h: float
    wall_ms: float = 0.0


@dataclass
class RunReport:
    """Everything a solve produced: config echo, history, final solution."""

    config: dict
    history: list
    phi: object
    s: object
    q: float
    w0_over_h: float
    status: str
    deflection_samples: list = field(default_factory=list)
    restriction_defect: float | None = None

    @property
    def err(self) -> float:
        return self.history[-1].err if self.history else float("nan")

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


def history_csv(report: RunReport, deterministic: bool = False) -> str:
    return csv_text(HISTORY_COLUMNS, (
        (rec.iteration, rec.order, rec.err, rec.q, rec.w0_over_h,
         0.0 if deterministic else rec.wall_ms) for rec in report.history))


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
        "history": [
            {
                "iteration": rec.iteration,
                "order": rec.order,
                "err": rec.err,
                "q": rec.q,
                "w0_over_h": rec.w0_over_h,
                "wall_ms": 0.0 if deterministic else rec.wall_ms,
            }
            for rec in report.history
        ],
        "phi_coeffs": [float(c) for c in report.phi.coeffs],
        "s_coeffs": [float(c) for c in report.s.coeffs],
        "deflection_samples": [[y, wv] for y, wv in report.deflection_samples],
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
