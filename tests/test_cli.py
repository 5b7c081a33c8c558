import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spinflow import cli
from spinflow.analysis import choi_eigenvalues
from spinflow.cli import TRIG_WARNING, main
from spinflow.maps import (
    MapParams,
    MapSnapshot,
    apply_map,
    snapshot,
    snapshot_arrays,
    tcl_rate_arrays,
    xi,
    xi_derivative,
)
from spinflow.measure import sigma_analytic
from spinflow.states import QubitState, StatePair, trace_distance

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "run_record.schema.json").read_text())


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    lines = csv_text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_xi_csv_contract(capsys):
    code, out, err = run_cli(
        ["xi", "--kind", "mem", "--r", "0.1", "--tau-end", "5", "--points", "6"], capsys
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["tau", "xi", "dxi"]
    assert rows[0] == ["0", "1", "0"]
    assert len(rows) == 6
    assert rows[1][1] == "%.17g" % xi("mem", 0.1, 1.0)
    assert err == ""


def test_trig_warning_only_for_oscillatory_memory_kernel(capsys):
    _, _, err = run_cli(
        ["xi", "--kind", "mem", "--r", "0.5", "--tau-end", "1"], capsys
    )
    assert TRIG_WARNING in err
    _, _, err = run_cli(
        ["xi", "--kind", "post", "--r", "0.5", "--tau-end", "1"], capsys
    )
    assert TRIG_WARNING not in err
    _, _, err = run_cli(
        ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1"], capsys
    )
    assert TRIG_WARNING not in err


def test_physical_parameter_entry(capsys):
    code, out, _ = run_cli(
        [
            "xi", "--kind", "mem", "--gamma0", "0.05", "--gamma", "0.5",
            "--tau-end", "2", "--points", "3",
        ],
        capsys,
    )
    assert code == 0
    _, rows = rows_of(out)
    assert rows[1][1] == "%.17g" % xi("mem", 0.1, 1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--kind", "mem", "--r", "0.1", "--gamma0", "1", "--tau-end", "1"],
        ["xi", "--kind", "mem", "--tau-end", "1"],
        ["xi", "--kind", "nonsense", "--r", "0.1", "--tau-end", "1"],
        ["xi", "--kind", "mem", "--r", "0.1", "--tau-end", "-2"],
        ["xi", "--kind", "mem", "--r", "-0.1", "--tau-end", "1"],
        ["solve", "--kind", "mem", "--r", "0.1", "--tau-end", "1", "--state", "2,0,0"],
        ["sigma", "--kind", "mem", "--r", "0.1", "--tau-end", "1",
         "--state1", "1,0,0", "--state2", "1,0,0"],
        ["oracle", "--kind", "mem", "--r", "0.1", "--tau-end", "1", "--tol", "0.01"],
        ["measure", "--kind", "mem", "--r", "0.1", "--budget", "10"],
        ["measure", "--kind", "mem", "--r", "0.2", "--tau-end", "-5"],
        ["measure", "--kind", "mem", "--r", "0.2", "--tau-end", "nan"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--tau-end", "-1"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--tau-end", "nan"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--tau-end", "inf"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--grid", "1"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--grid", "0"],
        ["positivity", "--kind", "mem", "--r", "0.2", "--n", "1", "--samples", "5"],
        ["sweep", "--config", str(ROOT / "configs" / "smoke_sweep.txt"), "--workers", "0"],
        ["classify", "--kind", "mem", "--r", "0.2", "--n", "1", "--budget", "10"],
        ["oracle", "--kind", "mem", "--r", "0.1", "--tau-end", "1", "--points", "3",
         "--steps", "-5"],
        ["choi", "--kind", "mem", "--r", "0.2", "--tau", "nan"],
        ["choi", "--kind", "mem", "--r", "0.2", "--tau", "1e400"],
        ["choi", "--kind", "mem", "--r", "0.2", "--tau", "1", "--tau-start", "inf"],
        ["choi", "--kind", "mem", "--r", "0.2", "--tau", "1", "--tau-start", "2"],
        # (R + 1)**2 overflows: the channels would read NaN (mem) or exactly 1 (post)
        ["choi", "--kind", "mem", "--r", "1e200", "--tau", "1"],
        ["measure", "--kind", "mem", "--r", "1e200"],
        ["measure", "--kind", "post", "--r", "1e200"],
        ["xi", "--kind", "mem", "--r", "0.2", "--n", "-0.5", "--tau-end", "1"],
        ["positivity", "--kind", "mem", "--r", "0.2", "--n", "1", "--samples", "200000"],
        # a quadrature step too long for a finite one-step propagator
        ["solve", "--kind", "post", "--r", "0.2", "--n", "0", "--method", "quadrature",
         "--tau-end", "1e160", "--points", "3"],
        ["solve", "--kind", "mem", "--r", "0.2", "--n", "0", "--method", "quadrature",
         "--tau-end", "1e300", "--points", "3"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_solve_methods_agree(capsys):
    base = ["solve", "--kind", "post", "--r", "0.3", "--n", "1",
            "--tau-end", "6", "--points", "13", "--state", "0.9,0.2,0.1"]
    outputs = {}
    for method in ("closed", "ode", "quadrature", "tcl"):
        code, out, _ = run_cli(base + ["--method", method], capsys)
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["tau", "pe", "re_b", "im_b"]
        assert len(rows) == 13
        outputs[method] = np.array([[float(v) for v in row] for row in rows])
    for method in ("ode", "quadrature", "tcl"):
        np.testing.assert_allclose(
            outputs[method], outputs["closed"], atol=5e-6,
            err_msg=f"method {method} disagrees with closed form",
        )


def test_solve_tcl_refuses_singular_horizon(capsys):
    code, _, err = run_cli(
        ["solve", "--kind", "mem", "--r", "0.5", "--tau-end", "10", "--method", "tcl"],
        capsys,
    )
    assert code == 1
    assert "time-local rates unusable" in err
    assert "4.71238898" in err


def test_trace_distance_monotone_physical(capsys):
    code, out, _ = run_cli(
        ["trace-distance", "--kind", "mem", "--r", "0.2", "--n", "1",
         "--tau-end", "10", "--points", "51"],
        capsys,
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["tau", "distance"]
    dist = np.array([float(r[1]) for r in rows])
    assert dist[0] == 1.0
    assert np.all(np.diff(dist) <= 1e-12)


def test_sigma_rows(capsys):
    code, out, err = run_cli(
        ["sigma", "--kind", "mem", "--r", "0.5", "--n", "10",
         "--tau-end", "10", "--points", "21"],
        capsys,
    )
    assert code == 0
    assert TRIG_WARNING in err
    header, rows = rows_of(out)
    assert header == ["tau", "sigma"]
    values = np.array([float(r[1]) for r in rows])
    assert values[0] == 0.0
    assert np.any(values > 0.0)  # backflow in the oscillatory regime


def test_oracle_emits_pass_line(capsys):
    code, out, err = run_cli(
        ["oracle", "--kind", "post", "--r", "0.3", "--n", "1",
         "--tau-end", "5", "--points", "21", "--steps", "800"],
        capsys,
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header[:4] == ["tau", "pe_closed", "re_b_closed", "im_b_closed"]
    assert len(rows) == 21
    last = err.strip().splitlines()[-1]
    assert last.startswith("max|delta| = ")
    assert last.endswith("<= 1e-06: PASS")


def test_oracle_fail_still_exits_zero(capsys):
    code, _, err = run_cli(
        ["oracle", "--kind", "mem", "--r", "0.2", "--tau-end", "5",
         "--points", "11", "--steps", "100", "--tol", "1e-12"],
        capsys,
    )
    assert code == 0
    assert "> 1e-12: FAIL" in err.strip().splitlines()[-1]


def test_tcl_rates_truncates_at_divergence(capsys):
    code, out, err = run_cli(
        ["tcl-rates", "--kind", "mem", "--r", "0.5", "--tau-end", "10",
         "--points", "101"],
        capsys,
    )
    assert code == 0
    assert "rates diverge at tau = 4.7123889" in err
    header, rows = rows_of(out)
    assert header == ["tau", "gamma1", "gamma2", "gamma3"]
    assert len(rows) == sum(1 for t in np.linspace(0, 10, 101) if t < 1.5 * math.pi)
    assert rows[0][1:] == ["0", "0", "0"]


def test_choi_matrix_output(capsys):
    code, out, err = run_cli(
        ["choi", "--kind", "mem", "--r", "0.2", "--n", "1", "--tau", "3"], capsys
    )
    assert code == 0
    assert "min eigenvalue = " in err
    header, rows = rows_of(out)
    assert header == ["row", "col", "re", "im"]
    assert len(rows) == 16


def test_choi_intermediate_map_window(capsys):
    code, out, _ = run_cli(
        ["choi", "--kind", "mem", "--r", "0.2", "--n", "1",
         "--tau", "20", "--tau-start", "18", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 16
    assert {"row", "col", "re", "im"} == set(records[0])


def test_choi_reports_non_invertible_start(capsys):
    code, _, err = run_cli(
        ["choi", "--kind", "mem", "--r", "0.5", "--n", "1",
         "--tau", "5", "--tau-start", repr(1.5 * math.pi)],
        capsys,
    )
    assert code == 1
    assert "lambda3" in err


def test_measure_row_contract(capsys):
    code, out, _ = run_cli(
        ["measure", "--kind", "mem", "--r", "0.5", "--n", "10",
         "--budget", "150", "--format", "json"],
        capsys,
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["value"] > 0.04
    assert record["method"] == "analytic-sigma"
    assert record["classification"] == "Unphysical(positivity broken)"
    assert record["evaluations"] <= 150
    for key in ("first_x", "first_y", "first_z", "second_x", "second_y", "second_z"):
        assert key in record


def test_measure_past_a_crossing_exits_0(capsys):
    # the search this closed form replaced ended here in a brentq traceback
    code, out, err = run_cli(
        ["measure", "--kind", "mem", "--r", "1", "--n", "0", "--tau-end", "1000",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert "Traceback" not in err
    (record,) = json.loads(out)
    assert record["value"] == pytest.approx(0.19479100012307, rel=1e-12)
    assert record["evaluations"] == 1


def test_divisibility_rows(capsys):
    code, out, _ = run_cli(
        ["divisibility", "--kind", "mem", "--r", "0.2", "--n", "1",
         "--grid", "100"],
        capsys,
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["divisible", "min_eigenvalue", "t1", "t2", "tau_end", "grid"]
    assert rows[0][0] == "false"

    code, out, _ = run_cli(
        ["divisibility", "--kind", "post", "--r", "0.6", "--n", "1",
         "--grid", "100"],
        capsys,
    )
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][0] == "true"


def test_positivity_row(capsys):
    code, out, _ = run_cli(
        ["positivity", "--kind", "mem", "--r", "0.2", "--n", "1",
         "--tau-end", "20"],
        capsys,
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["ok", "worst_tau", "max_norm", "witness_x", "witness_y", "witness_z"]
    assert rows[0][0] == "true"
    assert float(rows[0][2]) <= 1.0 + 1e-10


def test_classify_row(capsys):
    code, out, _ = run_cli(
        ["classify", "--kind", "post", "--r", "0.6", "--n", "1",
         "--budget", "150", "--format", "json"],
        capsys,
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["verdict"] == "TimeDependentMarkovian-Divisible"
    assert record["params_physical"] is True
    assert record["divisible"] is True
    assert record["measure_value"] == 0.0


def test_output_file_flag(tmp_path, capsys):
    target = tmp_path / "xi.csv"
    code, out, _ = run_cli(
        ["xi", "--kind", "mem", "--r", "0.1", "--tau-end", "1",
         "--points", "3", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    header, rows = rows_of(target.read_text())
    assert header == ["tau", "xi", "dxi"]
    assert len(rows) == 3


def _fmt_per_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _py_per_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _emit_per_value(headers, rows, fmt):
    """The reference emitter: every value typed and formatted on its own."""
    if fmt == "csv":
        lines = [",".join(headers)]
        lines.extend(",".join(_fmt_per_value(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    records = [{h: _py_per_value(v) for h, v in zip(headers, row)} for row in rows]
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def _emitted(tmp_path, headers, rows, fmt):
    target = tmp_path / f"emitted.{fmt}"
    cli._emit(headers, rows, fmt, str(target))
    return target.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_float_table_matches_per_value_emitter(fmt, tmp_path):
    values = np.array([-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e17, 123456789012345678.0])
    table = np.column_stack((values, values[::-1], -values))
    headers = ("a", "b", "c")
    assert _emitted(tmp_path, headers, table, fmt) == _emit_per_value(
        headers, list(zip(*table.T)), fmt
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_mixed_rows_match_per_value_emitter(fmt, tmp_path):
    rows = [
        (np.int64(3), np.bool_(True), False, "mem", np.float64(0.1)),
        (np.int64(-7), np.bool_(False), True, "Unphysical(positivity broken)", np.float64(-0.0)),
        (0, True, np.bool_(True), "post", np.float64(5e-324)),
    ]
    headers = ("index", "ok", "divisible", "kind", "value")
    assert _emitted(tmp_path, headers, rows, fmt) == _emit_per_value(headers, rows, fmt)


S1, S2 = "0.7,0.12,-0.21", "0.3,-0.05,0.17"
PAIR = StatePair(QubitState(0.7, 0.12 - 0.21j), QubitState(0.3, -0.05 + 0.17j))
GRID = ["--kind", "mem", "--r", "0.2", "--n", "1", "--tau-end", "20", "--points", "1001"]


def _per_row_reference(command):
    """Rows of a float-table command as the CLI built them, one tuple per tau."""
    p, taus = MapParams.from_ratio(0.2, 1.0), np.linspace(0.0, 20.0, 1001)
    if command == "xi":
        return list(zip(taus, xi("mem", 0.2, taus), xi_derivative("mem", 0.2, taus)))
    if command == "tcl-rates":
        return list(zip(taus, *tcl_rate_arrays("mem", p, taus)))
    if command == "solve":
        pe, b = cli._closed_form("mem", p, PAIR.first, taus)
        return list(zip(taus, pe, b.real, b.imag))
    if command == "sigma":
        return list(zip(taus, sigma_analytic("mem", p, PAIR, taus)))
    # trace-distance: apply_map and trace_distance at every grid point
    lam1, lam3, t3 = snapshot_arrays("mem", p, taus)
    rows = []
    for k, tau in enumerate(taus):
        snap = MapSnapshot(float(lam1[k]), float(lam3[k]), float(t3[k]))
        evolved = (apply_map(snap, s) for s in (PAIR.first, PAIR.second))
        rows.append((tau, trace_distance(*evolved, validate=False)))
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, headers",
    [
        (["xi"], ("tau", "xi", "dxi")),
        (["tcl-rates"], ("tau", "gamma1", "gamma2", "gamma3")),
        (["solve", "--method", "closed", "--state", S1], ("tau", "pe", "re_b", "im_b")),
        (["sigma", "--state1", S1, "--state2", S2], ("tau", "sigma")),
        (["trace-distance", "--state1", S1, "--state2", S2], ("tau", "distance")),
    ],
    ids=["xi", "tcl-rates", "solve", "sigma", "trace-distance"],
)
def test_float_tables_match_per_row_output(argv, headers, fmt, capsys):
    code, out, _ = run_cli([argv[0], *GRID, *argv[1:], "--format", fmt], capsys)
    assert code == 0
    assert out == _emit_per_value(headers, _per_row_reference(argv[0]), fmt)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.filterwarnings("error")
def test_json_writes_non_finite_floats_as_null(capsys, tmp_path):
    code, out, _ = run_cli(
        ["sigma", "--kind", "mem", "--r", "0.2", "--n", "1", "--tau-end", "2000",
         "--points", "5", "--state1", "1,0,0", "--state2", "0,0,0", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert [rec["sigma"] for rec in json.loads(out, parse_constant=_reject_constant)][-1] == 0.0
    # past the underflow of xi and xi' the rates are the asymptotic ones, not 0/0
    argv = ["tcl-rates", "--kind", "post", "--r", "0.2", "--n", "1",
            "--tau-end", "10000", "--points", "5"]
    code, out, err = run_cli([*argv, "--format", "json"], capsys)
    records = json.loads(out, parse_constant=_reject_constant)
    assert (code, err) == (0, "")
    assert records[-1]["gamma1"] == pytest.approx(2.0 / 15.0, rel=1e-15)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert "nan" not in out
    table = np.array([[np.inf, -np.inf, np.nan, 1.5]])
    assert json.loads(
        _emitted(tmp_path, ("a", "b", "c", "d"), table, "json"), parse_constant=_reject_constant
    ) == [{"a": None, "b": None, "c": None, "d": 1.5}]
    assert _emitted(tmp_path, ("a", "b", "c", "d"), table, "csv") == "a,b,c,d\ninf,-inf,nan,1.5\n"
    rows = [(np.float64(np.nan), float("inf"), 2)]
    assert json.loads(
        _emitted(tmp_path, ("a", "b", "c"), rows, "json"), parse_constant=_reject_constant
    ) == [{"a": None, "b": None, "c": 2}]


def test_version_banner(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert out.strip().startswith("spinflow ")


def _write_config(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


SMOKE_CONFIG = """\
# two memory-kernel points, fast analyses only
kind = mem
r = 0.1, 0.2
n = 1
tau_end = 10
tau_points = 101
analyses = rates, choi
format = csv
seed = 20240901
budget = 150
"""


def test_sweep_smoke_flat_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMOKE_CONFIG)
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        ["sweep", "--config", cfg, "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    assert "sweep complete: 2 points, 0 failures" in err

    header, rows = rows_of((out_dir / "rates.csv").read_text())
    assert header == ["index", "kind", "r", "n", "tau", "gamma1", "gamma2", "gamma3"]
    assert len(rows) == 202  # both points physical: full grid each
    header, rows = rows_of((out_dir / "choi.csv").read_text())
    assert header == ["index", "kind", "r", "n", "tau", "min_eigenvalue"]
    assert len(rows) == 202
    # the vectorized sweep column matches the scalar snapshot path bit for bit
    for _, kind, r, n, tau, eig in rows:
        p = MapParams.from_ratio(float(r), float(n))
        assert eig == "%.17g" % choi_eigenvalues(snapshot(kind, p, float(tau)))[0]

    record = json.loads((out_dir / "run_record.json").read_text())
    jsonschema.validate(record, SCHEMA)
    assert record["tool"] == "spinflow"
    assert record["failures"] == []
    assert len(record["points"]) == 2
    verdicts = {pt["classification"] for pt in record["points"]}
    assert verdicts == {"TimeDependentMarkovian-Nondivisible"}
    assert all(pt["measure_value"] == 0.0 for pt in record["points"])


def test_sweep_byte_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMOKE_CONFIG)
    dirs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run_cli(
            ["sweep", "--config", cfg, "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        dirs.append(out_dir)
    for name in ("rates.csv", "choi.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    records = []
    for d in dirs:
        rec = json.loads((d / "run_record.json").read_text())
        rec.pop("wall_time_s")
        records.append(rec)
    assert records[0] == records[1]


def test_sweep_json_config_and_json_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": ["mem", "post"],
                "r": [0.2],
                "n": [1.0],
                "tau_end": 8,
                "tau_points": 41,
                "analyses": ["positivity", "divisibility"],
                "format": "json",
                "seed": 7,
                "budget": 120,
            }
        )
    )
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(
        ["sweep", "--config", str(cfg), "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    positivity = json.loads((out_dir / "positivity.json").read_text())
    assert len(positivity) == 2
    assert all(rec["ok"] is True for rec in positivity)
    divisibility = json.loads((out_dir / "divisibility.json").read_text())
    assert {rec["kind"]: rec["divisible"] for rec in divisibility} == {
        "mem": False,
        "post": True,
    }


@pytest.mark.parametrize(
    "text",
    [
        "kind = mem\nr = 0.1\nanalyses = rates\nbogus_key = 1\n",
        "kind = mem\nr = 0.1\nanalyses =\n",
        "kind = mem\nr = 0.1\ngamma0 = 1\nanalyses = rates\n",
        "kind = mem\nr = -0.1\nanalyses = rates\n",
        "kind = mem\nr = 0.1\nanalyses = rates\nformat = yaml\n",
        "kind = mem\nr = 0.1\nanalyses = rates\nbudget = 5\n",
        "kind = mem\nr = 0.1\nanalyses = spectroscopy\n",
        "kind = mem\nr = 0.1\nanalyses = rates\ntau_end = NaN\n",
        "kind = mem\nr = 0.1\nanalyses = rates\ntau_end = inf\n",
    ],
)
def test_sweep_config_errors_exit_2(text, tmp_path, capsys):
    cfg = _write_config(tmp_path, text)
    code, _, err = run_cli(
        ["sweep", "--config", cfg, "--out-dir", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "config error" in err
