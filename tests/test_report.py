"""Report serialization: CSV and JSON schemas, float round-tripping,
and the deterministic-output switch."""

import csv
import io
import json

import pytest

from vkplate.config import IterateMode, SeriesMode
from vkplate.given_deflection import GivenDeflectionProblem
from vkplate.given_deflection import solve as solve_deflection
from vkplate.given_load import GivenLoadProblem
from vkplate.given_load import solve as solve_load
from vkplate.interpolation import solve as solve_baseline
from vkplate.physics import w_over_h
from vkplate.polyseries import PolySeries
from vkplate.report import (
    CURVE_COLUMNS,
    HISTORY_COLUMNS,
    IterationRecord,
    RunReport,
    curve_csv,
    emit_report,
    fmt_float,
    history_csv,
    report_json,
)


def _report(history=None):
    return RunReport(
        config={"solver": "given_load", "load": 5.0, "nu": 0.3},
        history=history or [],
        phi=PolySeries([0.0, 1.0, -0.5]),
        s=PolySeries([0.0, 0.25]),
        status="converged",
    )


def _records():
    return [
        IterationRecord(1, 5, 1e-3, 5.0, 0.61, 12.5),
        IterationRecord(2, 10, 1e-6, 5.0, 0.62, 30.25),
    ]


def test_empty_history_gives_header_only_csv():
    text = history_csv(_report())
    assert text == ",".join(HISTORY_COLUMNS) + "\n"


def test_history_csv_schema_and_values():
    text = history_csv(_report(_records()))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == list(HISTORY_COLUMNS)
    assert len(rows) == 2
    assert float(rows[0]["err"]) == 1e-3
    assert float(rows[1]["wall_ms"]) == 30.25


def test_deterministic_flag_zeroes_wall_clock():
    text = history_csv(_report(_records()), deterministic=True)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert all(float(r["wall_ms"]) == 0.0 for r in rows)


def test_curve_csv_schema():
    text = curve_csv([(0.0, 0.0, -1.02, 0.62), (1.0, 1.0, 0.0, 0.0)])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == list(CURVE_COLUMNS)
    assert float(rows[0]["W"]) == -1.02


def test_json_report_mirrors_fields_and_sorts_keys():
    text = report_json(_report(_records()))
    payload = json.loads(text)
    assert payload["status"] == "converged"
    assert payload["q"] == 5.0
    assert payload["w0_over_h"] == 0.62  # the last record's
    assert payload["history"][0]["err"] == 1e-3
    assert payload["phi_coeffs"] == [0.0, 1.0, -0.5]
    assert list(payload) == sorted(payload)
    det = json.loads(report_json(_report(_records()), deterministic=True))
    assert all(rec["wall_ms"] == 0.0 for rec in det["history"])


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(_report(), fmt="yaml")


def test_fmt_float_round_trips():
    for x in (0.1, 1e-300, -3.141592653589793, 2.0 / 3.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(7) == "7"


def test_same_report_serializes_identically():
    rep = _report(_records())
    assert history_csv(rep, deterministic=True) == \
        history_csv(rep, deterministic=True)
    assert report_json(rep, deterministic=True) == \
        report_json(rep, deterministic=True)


@pytest.mark.parametrize("run", [
    lambda: solve_load(GivenLoadProblem.with_c0(5.0, -0.35, SeriesMode(10))),
    lambda: solve_deflection(GivenDeflectionProblem.with_c0(
        5.0, -0.5, IterateMode(truncation=60, tol=1e-10))),
    lambda: solve_baseline(10.0, 0.3, IterateMode(order=1, truncation=60, tol=1e-8)),
], ids=["load-series", "deflection-iterate", "baseline"])
def test_load_and_center_deflection_read_the_last_record(run):
    rep = run()
    last = rep.history[-1]
    assert (rep.q, rep.w0_over_h, rep.err) == (last.q, last.w0_over_h, last.err)
    # the value a report stored before it read the record, bit for bit
    assert rep.w0_over_h == w_over_h(rep.phi.integral_over_y(), rep.config["nu"])
