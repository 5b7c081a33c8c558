import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow import analysis, cli, maps, tables
from spinflow.analysis import MAX_GRID, choi_eigenvalues, divisibility_scan
from spinflow.cli import TRIG_WARNING, main
from spinflow.maps import (
    EquationKind,
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


def _child_env() -> dict:
    """This process's environment, with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


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
        # R > 0 that underflows to 0, which would be the identity map
        ["measure", "--kind", "mem", "--r", "5e-324", "--n", "1"],
        ["classify", "--kind", "mem", "--gamma0", "1e-320", "--gamma", "1e10"],
        ["xi", "--kind", "mem", "--r", "0.2", "--n", "-0.5", "--tau-end", "1"],
        ["positivity", "--kind", "mem", "--r", "0.2", "--n", "1", "--samples", "200000"],
        # a quadrature step too long for a finite one-step propagator
        ["solve", "--kind", "post", "--r", "0.2", "--n", "0", "--method", "quadrature",
         "--tau-end", "1e160", "--points", "3"],
        ["solve", "--kind", "mem", "--r", "0.2", "--n", "0", "--method", "quadrature",
         "--tau-end", "1e300", "--points", "3"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--n", "1", "--grid", "65537"],
        # --steps < 1 is rejected as given, not rounded up to one step per cell
        *(
            [command, "--kind", "mem", "--r", "0.2", "--n", "1", "--tau-end", "5",
             "--points", "101", "--steps", steps, *method]
            for command, method in (("solve", ["--method", "quadrature"]), ("oracle", []))
            for steps in ("0", "-5", "-1000000")
        ),
        # grids past the cap: a flag error before the grid is allocated
        ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--points", "1000000000000"],
        ["positivity", "--kind", "mem", "--r", "0.2", "--points", str(cli._MAX_POINTS + 1)],
        # --tol outside [1e-12, 1e-4] is a flag error for every method, used or not
        *(
            ["solve", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--method", method,
             "--tol", "5"]
            for method in ("closed", "quadrature")
        ),
        # a coherence whose square, or modulus, overflows
        ["solve", "--kind", "mem", "--r", "0.1", "--tau-end", "1", "--state", "0.5,1e200,0"],
        ["trace-distance", "--kind", "mem", "--r", "0.1", "--tau-end", "1",
         "--state1", "0,1.7976931348623157e308,1.7976931348623157e308"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # a value one flag's type refuses names the command and the flag
        (["divisibility", "--kind", "mem", "--r", "0.2", "--grid", "1"],
         "spinflow divisibility: error: argument --grid: must be in [2, 65536], got '1'"),
        (["positivity", "--kind", "mem", "--r", "0.2", "--samples", "5"],
         "spinflow positivity: error: argument --samples: must be in [1000, 163842]"),
        (["sweep", "--config", str(ROOT / "configs" / "smoke_sweep.txt"), "--workers", "0"],
         "spinflow sweep: error: argument --workers: must be >= 1"),
        (["solve", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--state", "1,0"],
         "spinflow solve: error: argument --state: expects 'pe,re,im'"),
        (["oracle", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--state", "a,0,0"],
         "spinflow oracle: error: argument --state: expects three numbers"),
        (["sigma", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--state1", "2,0,0"],
         "spinflow sigma: error: argument --state1: is not a valid qubit state"),
        (["trace-distance", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--state2", "x"],
         "spinflow trace-distance: error: argument --state2: expects 'pe,re,im'"),
        # a refusal of flags together, or by the library, names neither
        (["choi", "--kind", "mem", "--r", "0.2", "--tau", "1", "--tau-start", "2"],
         "spinflow: error: --tau-start 2 is after --tau 1"),
        (["sigma", "--kind", "mem", "--r", "0.5", "--tau-end", "1", "--state1", "0,0,0"],
         "spinflow: error: identical initial states"),
        (["xi", "--kind", "mem", "--r", "0.2", "--gamma0", "1", "--tau-end", "1"],
         "spinflow: error: give either r"),
    ],
    ids=["grid", "samples", "workers", "state", "state-numbers", "state1", "state2",
         "tau-start", "sigma-pair", "r-and-gamma0"],
)
def test_usage_error_names_the_flag_only_for_one_flag(argv, prefix, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_divisibility_grid_above_the_cap_is_rejected_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the screen started")

    monkeypatch.setattr(analysis, "snapshot_arrays", no_work)
    with pytest.raises(ValueError, match="grid"):
        divisibility_scan("mem", MapParams.from_ratio(0.2, 1.0), grid=MAX_GRID + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--out"],
        ["divisibility", "--kind", "mem", "--r", "0.2", "--grid", "20", "--out"],
        # choi prints its eigenvalue diagnostic before it writes
        ["choi", "--kind", "mem", "--r", "0.2", "--n", "1", "--tau", "1", "--out"],
        ["sweep", "--config", str(ROOT / "configs" / "smoke_sweep.txt"), "--out-dir"],
    ],
    ids=["xi", "divisibility", "choi", "sweep"],
)
def test_unopenable_output_paths_exit_2(argv, capsys, tmp_path):
    a_file = tmp_path / "file"
    a_file.write_text("")
    if argv[-1] == "--out":
        targets = [tmp_path / "missing" / "x", tmp_path, a_file / "x"]
    else:
        targets = [a_file, a_file / "x"]
    for target in targets:
        code, out, err = run_cli([*argv, str(target)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


def test_out_is_checked_before_any_work(monkeypatch, capsys, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("the integration started")

    monkeypatch.setattr(cli, "_augmented_ode", no_work)
    monkeypatch.setattr(cli, "integrate_quadrature", no_work)
    argv = ["oracle", "--kind", "post", "--r", "0.3", "--tau-end", "1", "--out"]
    code, out, err = run_cli([*argv, str(tmp_path / "missing" / "x.csv")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("spinflow: error: cannot write")
    # a command refused after the check neither truncates nor creates --out
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("keep\n")
    for late, reason in (
        (["choi", "--kind", "mem", "--r", "0.2", "--tau", "1", "--tau-start", "2"],
         "--tau-start"),
        # sigma computes its rows as it writes them, after --out is opened
        (["sigma", "--kind", "mem", "--r", "0.2", "--tau-end", "1",
          "--state1", "0,0,0", "--state2", "0,0,0"], "identical initial states"),
    ):
        for target in (kept, fresh):
            code, out, err = run_cli([*late, "--out", str(target)], capsys)
            assert (code, out) == (2, "")
            assert reason in err and err.count("\n") == 1, err
    assert kept.read_text() == "keep\n"
    assert not fresh.exists()


@pytest.mark.parametrize(
    "argv,prefix",
    [
        ("choi --kind mem --r 0.5 --n 1 --tau 10 --tau-start 4.7123889803846897", "lambda3("),
        ("solve --kind mem --r 0.5 --tau-end 10 --method tcl", "time-local rates unusable: "),
        ("solve --kind mem --r 1e20 --n 1 --tau-end 20 --points 3 --method ode",
         "integrator diverged: "),
        ("oracle --kind mem --r 1e20 --n 1 --tau-end 20 --points 11", "integrator diverged: "),
    ],
    ids=["choi", "solve-tcl", "solve-ode", "oracle"],
)
def test_tool_failure_writes_nothing(capsys, tmp_path, argv, prefix):
    # main reports each library failure as one stderr line and exit 1, and
    # --out, checked before any work, is neither truncated nor created
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (1, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("keep\n")
    for target in (kept, fresh):
        assert run_cli([*argv.split(), "--out", str(target)], capsys) == (1, "", err)
    assert kept.read_text() == "keep\n"
    assert not fresh.exists()


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


def _solve_rows(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return np.array([[float(v) for v in row] for row in rows_of(out)[1]])


@pytest.mark.parametrize("r", ["1e5", "1e8"])
def test_solve_ode_at_strong_memory_coupling(r, capsys):
    base = ["solve", "--kind", "mem", "--r", r, "--n", "1", "--tau-end", "20", "--points", "3"]
    ode = _solve_rows(base + ["--method", "ode"], capsys)
    closed = _solve_rows(base + ["--method", "closed"], capsys)
    np.testing.assert_allclose(ode, closed, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("r", ["1e20", "1e150"])
@pytest.mark.parametrize("kind", ["mem", "post"])
def test_solve_ode_past_the_system_bound_is_a_tool_failure(kind, r, capsys):
    code, out, err = run_cli(
        ["solve", "--kind", kind, "--r", r, "--n", "1", "--tau-end", "20", "--points", "3",
         "--method", "ode"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert len(err.strip().splitlines()) == 1
    assert "integrator diverged" in err and "2**50" in err


def test_cli_runs_without_scipy(tmp_path):
    """Neither a subcommand nor flow_report imports scipy; flow_report polishes with brentq."""
    script = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import spinflow.cli
from spinflow.cli import main
params = ["--kind", "mem", "--r", "0.5", "--n", "1", "--tau-end", "4", "--points", "11"]
out = ["--out", {str(tmp_path / "out.csv")!r}]
calls = [
    ["xi", *params, *out],
    ["measure", "--kind", "mem", "--r", "2", "--n", "1", *out],
    ["classify", "--kind", "mem", "--r", "2", "--n", "1", *out],
    ["oracle", *params, *out],
    *(["solve", *params, "--method", m, *out] for m in ("ode", "tcl", "quadrature")),
    ["sweep", "--config", {str(ROOT / "configs" / "smoke_sweep.txt")!r},
     "--out-dir", {str(tmp_path / "sweep")!r}],
]
for argv in calls:
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
measure = sys.modules["spinflow.measure"]  # the package exports a function of that name
from spinflow.maps import MapParams
from spinflow.states import EXCITED, GROUND, StatePair
calls = []
real = measure.brentq
def counting(*args, **kwargs):
    calls.append(args)
    return real(*args, **kwargs)
measure.brentq = counting
pair = StatePair(EXCITED, GROUND)
measure.flow_report("mem", MapParams.from_ratio(2.0, n_occ=1.0), pair, 40.0, 2001)
assert calls and sys.modules["scipy"] is None
"""
    env = _child_env()
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_oracle_steps_too_coarse_is_rejected_before_the_ode(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the augmented ODE started")

    monkeypatch.setattr(cli, "_augmented_ode", no_work)
    code, out, err = run_cli(
        ["oracle", "--kind", "mem", "--r", "0.2", "--n", "1",
         "--tau-end", "1e300", "--points", "3"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert "is too long" in err


@pytest.mark.parametrize("tau_end", ["1e5", "1e12", "1e100", "1e300"])
@pytest.mark.parametrize("method", ["ode", "tcl"])
@pytest.mark.parametrize("kind", ["mem", "post"])
def test_solve_at_large_horizons_stays_finite(kind, method, tau_end, capsys):
    code, out, err = run_cli(
        ["solve", "--kind", kind, "--r", "0.2", "--n", "1", "--method", method,
         "--tau-end", tau_end, "--points", "3"],
        capsys,
    )
    assert "Traceback" not in err
    if code == 1 and tau_end == "1e300":
        assert "integrator diverged" in err
        return
    assert code == 0
    _, rows = rows_of(out)
    values = np.array([[float(v) for v in row] for row in rows])
    assert values.shape == (3, 4)
    assert np.all(np.isfinite(values))


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


def test_oscillatory_sigma_is_zero_where_the_distance_underflows(capsys):
    # mem with 4R > 1 past the underflow of D: the limit 0, not nan
    code, out, err = run_cli(
        ["sigma", "--kind", "mem", "--r", "1", "--tau-end", "2000", "--points", "5"], capsys
    )
    assert (code, err) == (0, TRIG_WARNING + "\n")
    _, rows = rows_of(out)
    assert [row[0] for row in rows] == ["0", "500", "1000", "1500", "2000"]
    assert [row[1] for row in rows[2:]] == ["0", "0", "0"]
    assert "nan" not in out and "inf" not in out


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


def test_oracle_names_each_route_and_the_failing_one(capsys):
    # 1000 quadrature steps per cell at R = 1e4 still miss by about 0.3
    code, _, err = run_cli(
        ["oracle", "--kind", "post", "--r", "1e4", "--tau-end", "1", "--points", "3"], capsys
    )
    assert code == 0
    ode, quad, verdict = err.strip().splitlines()[-3:]
    assert ode.startswith("ode: max|delta| = ")
    assert quad.startswith("quadrature: max|delta| = ")
    assert float(ode.rsplit(" ", 1)[1]) < 1e-12
    assert 0.3 < float(quad.rsplit(" ", 1)[1]) < 0.33
    assert verdict == f"max|delta| = {quad.rsplit(' ', 1)[1]} (quadrature) > 1e-06: FAIL"


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


def _scan_fails(*args, **kwargs):
    raise RuntimeError("this scan does not decide the verdict")


@pytest.mark.parametrize(
    "r, n, skipped, verdict",
    [
        # 4R > 1 decides before any scan runs
        ("5", "0", ("positivity_scan", "cp_scan", "divisibility_scan"),
         "Unphysical(positivity broken)"),
        # the positivity scan fails, so the divisibility scan never runs
        ("0.2", "0", ("cp_scan", "divisibility_scan"), "Unphysical(positivity broken)"),
        # the CP scan never decides
        ("0.2", "1", ("cp_scan",), "TimeDependentMarkovian-Nondivisible"),
    ],
)
def test_measure_runs_only_the_scans_that_decide(r, n, skipped, verdict, monkeypatch, capsys):
    for name in skipped:
        monkeypatch.setattr(analysis, name, _scan_fails)
    code, out, err = run_cli(["measure", "--kind", "mem", "--r", r, "--n", n], capsys)
    assert code == 0, err
    header, (row,) = rows_of(out)
    assert row[header.index("classification")] == verdict


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


@pytest.mark.parametrize("kind", ["mem", "post"])
@pytest.mark.parametrize(
    "params",
    [["--r", "1e8", "--n", "1"], ["--gamma0", "2", "--gamma", "3", "--n", "0.5"], ["--r", "5"]],
    ids=["r=1e8,n=1", "gamma0=2,gamma=3,n=0.5", "r=5"],
)
def test_divisibility_near_singular_maps_warn_nothing(kind, params, capsys):
    # the earlier map of a pair nearly vanishes late in the horizon, and the
    # screen's quotients overflow; that is part of the screen, not a fault
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["divisibility", "--kind", kind, *params, "--tau-end", "1000"], capsys
        )
    assert code == 0 and out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--kind", "post", "--r", "1e10", "--tau-end", "1e300", "--points", "3"],
        ["choi", "--kind", "post", "--r", "1e15", "--n", "0", "--tau", "1e300"],
        ["tcl-rates", "--kind", "post", "--r", "1e15", "--n", "0", "--tau-end", "1e300"],
        ["divisibility", "--kind", "post", "--r", "1e15", "--n", "0", "--tau-end", "1e300"],
        ["positivity", "--kind", "post", "--r", "1e15", "--tau-end", "1e300"],
        # an oscillatory phase past the float range, where exp(-theta) is 0
        ["xi", "--kind", "mem", "--r", "1e100", "--tau-end", "1e300", "--points", "3"],
        ["choi", "--kind", "mem", "--r", "1e100", "--tau", "1e300"],
    ],
)
def test_time_scales_past_the_float_range_warn_nothing(argv, capsys):
    # tscale * tau, or a rate times it, overflows to inf: xi is at its limit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 0 and out and "nan" not in out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Warning" not in err


def test_divisibility_refinement_at_the_largest_float_warns_nothing(capsys):
    # the refinement stencil around t2 = tau_end = DBL_MAX overflows to inf,
    # which clips back to tau_end
    argv = ["divisibility", "--kind", "mem", "--r", "0", "--tau-end", "1.7976931348623157e308",
            "--grid", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert out.splitlines()[1] == "true,0,0,1.7976931348623157e+308,1.7976931348623157e+308,2"


_DBL_MAX = "1.7976931348623157e308"


@pytest.mark.parametrize("size", ["4", "10"])
@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--points"],
        ["tcl-rates", "--points"],
        ["sigma", "--points"],
        ["trace-distance", "--points"],
        ["solve", "--points"],
        ["positivity", "--points"],
        ["divisibility", "--grid"],
        ["sweep"],
    ],
    ids=lambda argv: argv[0],
)
def test_grid_at_the_largest_float_warns_nothing(argv, size, tmp_path, capsys):
    # linspace(0, DBL_MAX, size) overflows in its last time before numpy sets
    # that time to DBL_MAX itself; the grid is right, and says nothing
    if argv == ["sweep"]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": ["mem", "post"], "r": 0.2, "n": 1, "tau_end": float(_DBL_MAX),
            "tau_points": int(size), "analyses": ["rates", "choi", "positivity"],
        }))
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]
    else:
        argv = [argv[0], "--kind", "mem", "--r", "0.2", "--tau-end", _DBL_MAX, *argv[1:], size]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if argv[0] == "sweep":
        assert err == f"sweep complete: 2 points, 0 failures -> {tmp_path / 'run'}\n"
        # each point's last time is the largest float
        assert (tmp_path / "run" / "choi.csv").read_text().count("1.7976931348623157e+308,") == 2
    else:
        assert err == "" and out


def test_quadrature_step_at_the_largest_float_is_one_usage_line(capsys):
    argv = ["solve", "--method", "quadrature", "--kind", "mem", "--r", "0.2",
            "--tau-end", _DBL_MAX, "--points", "4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(err.splitlines()) == 1 and "is too long" in err


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


def test_positivity_finds_the_band_point_violation(capsys):
    # mem near its low-temperature edge, on classify's horizon and grid: the
    # worst map peaks between two icosphere heights
    code, out, _ = run_cli(
        ["positivity", "--kind", "mem", "--r", "0.01", "--n", "5.88e-6",
         "--tau-end", "5120", "--points", "201"],
        capsys,
    )
    assert code == 0
    _, (row,) = rows_of(out)
    assert row[0] == "false"
    assert float(row[1]) == 51.2
    assert float(row[2]) > 1.0 + 1e-10


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


_SHORT_GRID = ["--tau-end", "1", "--points", "3"]
#: the flags that run each table command on a small table, besides its parameters
_TABLE_FLAGS = {
    "xi": _SHORT_GRID,
    "solve": _SHORT_GRID,
    "trace-distance": _SHORT_GRID,
    "sigma": _SHORT_GRID,
    "measure": [],
    "tcl-rates": _SHORT_GRID,
    "choi": ["--tau", "1"],
    "divisibility": ["--grid", "20"],
    "positivity": ["--tau-end", "5", "--points", "3"],
    "oracle": _SHORT_GRID,
    "classify": [],
}


(_SUBCOMMANDS,) = [
    a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
]


@pytest.mark.parametrize("command", [name for name in _SUBCOMMANDS if name != "sweep"])
def test_main_writes_each_table_in_one_emit_call(command, monkeypatch, tmp_path, capsys):
    # perfbench's tracer wraps cli._emit and reads rows and out positionally
    calls, emit = [], cli._emit

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        emit(*args, **kwargs)

    monkeypatch.setattr(cli, "_emit", recording)
    target = tmp_path / "table.csv"
    argv = [command, "--kind", "mem", "--r", "0.2", "--n", "1", *_TABLE_FLAGS[command]]
    code, out, _ = run_cli([*argv, "--out", str(target)], capsys)
    assert (code, out) == (0, "")
    ((args, kwargs),) = calls
    assert kwargs == {} and len(args) == 4
    headers, rows, fmt, path = args
    assert (fmt, path) == ("csv", str(target))
    header, written = rows_of(target.read_text())
    assert header == list(headers) and len(written) == len(rows)


def test_a_command_returns_its_table_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "xi.csv"
    args = cli.build_parser().parse_args(["xi", "--kind", "mem", *_SHORT_GRID, "--out", str(target)])
    p = MapParams.from_ratio(0.2, 1.0)
    headers, rows = cli.cmd_xi(args, EquationKind.MEMORY_KERNEL, p)
    assert headers == ("tau", "xi", "dxi")
    taus = np.linspace(0.0, 1.0, 3)
    expected = np.column_stack((taus, xi("mem", 0.2, taus), xi_derivative("mem", 0.2, taus)))
    assert len(rows) == 3 and np.array_equal(rows[:], expected)
    assert not target.exists()
    assert capsys.readouterr() == ("", "")


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
        return float(value) if math.isfinite(value) else None
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


def _assert_same_lines(got: str, want: str, context=None):
    """got == want, reporting the first line that differs, not a diff of two long texts."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    first = next(
        ((k, g, w) for k, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), None
    )
    assert first is None, (context, first)
    assert len(got_lines) == len(want_lines), (context, len(got_lines), len(want_lines))


def _powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def _exact_ties():
    """(k + 0.5) * 2**j with 18 significant decimal digits, the last a 5:
    halfway between two 17-digit decimals, so %.17g rounds half to even."""
    ties = []
    for j in range(-10, 0):
        # (k + 0.5) * 2**j = (2k + 1) * 5**(1 - j) / 10**(1 - j), and from k0 on
        # the numerator (2k + 1) * 5**(1 - j) has 18 digits
        k0 = 10**17 // (2 * 5 ** (1 - j))
        ties += [(k + 0.5) * 2.0**j for k in range(k0 + 1, k0 + 4)]
    return np.array(ties)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_float_table_matches_per_value_emitter(fmt, tmp_path):
    values = np.concatenate([
        [-0.0, 5e-324, 1e-5, 0.1, 1e16, 1e17, 123456789012345678.0],
        [1e-4, 1.7976931348623157e308],  # %.17g's fixed notation starts at 1e-4
        _powers_of_ten_and_neighbours(),
        _exact_ties(),
    ])
    chunk = tables.TABLE_CHUNK
    headers = ("tau", "b", "a")  # not in sorted order
    for n in (0, 1, len(values), chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        column = np.resize(values, n)
        table = np.column_stack((column, column[::-1], -column))
        if n > chunk:  # non-finite values only in a later chunk
            table[-2:] = [np.inf, np.nan, -np.inf]
        got = _emitted(tmp_path, headers, table, fmt)
        _assert_same_lines(got, _emit_per_value(headers, list(zip(*table.T)), fmt), n)


def _float64(sign, exponent, fraction):
    return float(np.array((sign << 63) | (exponent << 52) | fraction, np.uint64).view(np.float64))


# biased exponents 1009..1080 span |x| in [1e-4, 1e17), the bulk formatter's
# window, and a little beyond it on each side
_FLOAT64_BITS = st.builds(
    _float64,
    st.integers(0, 1),
    st.one_of(st.integers(1009, 1080), st.integers(0, 2047)),
    st.integers(0, 2**52 - 1),
)


_POOL_TABLES = given(
    width=st.integers(1, 4),
    rows=st.sampled_from(
        [1, 2, tables.TABLE_CHUNK - 1, tables.TABLE_CHUNK, tables.TABLE_CHUNK + 1]
    ),
    pool=st.lists(_FLOAT64_BITS, min_size=1, max_size=32),
    seed=st.integers(0, 2**32 - 1),
    # a sweep point's constant columns: any mix of int, str (with a %), bool and float
    prefix=st.lists(
        st.one_of(
            st.integers(),
            st.tuples(st.text(max_size=4), st.text(max_size=4)).map("%".join),
            st.booleans(),
            _FLOAT64_BITS,
        ),
        max_size=4,
    ),
)


def _assert_emits_pool_table(fmt, width, rows, pool, seed, prefix):
    # the table is drawn from a pool of arbitrary bit patterns, so that a
    # table longer than a chunk is still cheap for hypothesis to generate
    rng = np.random.default_rng(seed)
    table = rng.choice(np.array(pool), size=(rows, width))
    # the prefix columns fall anywhere in the JSON records' sorted order
    headers = tuple(f"c{k}" for k in rng.permutation(len(prefix) + width))
    out = io.StringIO()
    writer = tables._Table(out, headers, fmt)
    writer.write(table, prefix)
    writer.close()
    every_row = [(*prefix, *row) for row in table.tolist()]
    _assert_same_lines(out.getvalue(), _emit_per_value(headers, every_row, fmt))


@settings(max_examples=40, deadline=None)
@_POOL_TABLES
def test_emit_csv_of_any_float64_matches_per_value_emitter(width, rows, pool, seed, prefix):
    _assert_emits_pool_table("csv", width, rows, pool, seed, prefix)


@settings(max_examples=40, deadline=None)
@_POOL_TABLES
def test_emit_json_of_any_float64_matches_per_value_emitter(width, rows, pool, seed, prefix):
    _assert_emits_pool_table("json", width, rows, pool, seed, prefix)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_float_table_memory_does_not_grow_with_the_table(fmt, tmp_path):
    table = np.random.default_rng(0).random((200_001, 4))
    tracemalloc.start()
    try:
        cli._emit(("tau", "a", "b", "c"), table, fmt, str(tmp_path / "table"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "true"),
        (np.bool_(False), "false"),
        (7, "7"),
        (np.int64(-7), "-7"),
        ("mem", "mem"),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (-0.0, "-0"),
        (math.nan, "nan"),
        (np.float64(np.nan), "nan"),
        (math.inf, "inf"),
        (-np.float64(np.inf), "-inf"),
    ],
)
def test_fmt_renders_each_value_type(value, text):
    assert tables._fmt(value) == text == _fmt_per_value(value)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_mixed_rows_match_per_value_emitter(fmt, tmp_path):
    rows = [
        (np.int64(3), np.bool_(True), False, "mem", np.float64(0.1)),
        (np.int64(-7), np.bool_(False), True, "Unphysical(positivity broken)", np.float64(-0.0)),
        (0, True, np.bool_(True), "post", np.float64(5e-324)),
        (1, False, True, "mem", 0.1),
        (2, True, False, "post", math.nan),
        (3, True, False, "post", -math.inf),
    ]
    headers = ("index", "ok", "divisible", "kind", "value")
    assert _emitted(tmp_path, headers, rows, fmt) == _emit_per_value(headers, rows, fmt)


S1, S2 = "0.7,0.12,-0.21", "0.3,-0.05,0.17"
PAIR = StatePair(QubitState(0.7, 0.12 - 0.21j), QubitState(0.3, -0.05 + 0.17j))
ROWS = 2 * tables.TABLE_CHUNK + 1
GRID = ["--kind", "mem", "--r", "0.2", "--n", "1", "--tau-end", "20", "--points", str(ROWS)]
# the rates diverge at tau = 2.418 of 4: rows from 4953 on are cut, inside the second chunk
HORIZON_GRID = ["--kind", "mem", "--r", "1", "--n", "1", "--tau-end", "4", "--points", str(ROWS)]


def _per_row_reference(command, r, tau_end):
    """Rows of a float-table command, one tuple per tau, from whole-grid arrays."""
    p, taus = MapParams.from_ratio(r, 1.0), np.linspace(0.0, tau_end, ROWS)
    if command == "xi":
        return list(zip(taus, xi("mem", r, taus), xi_derivative("mem", r, taus)))
    if command == "tcl-rates":
        taus = taus[taus < maps.rate_divergence_time("mem", p)]
        return list(zip(taus, *tcl_rate_arrays("mem", p, taus)))
    if command == "solve":
        pe, b = maps._affine_action(*snapshot_arrays("mem", p, taus), PAIR.first)
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


RATES = ("tau", "gamma1", "gamma2", "gamma3")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, headers",
    [
        (["xi", *GRID], ("tau", "xi", "dxi")),
        (["tcl-rates", *GRID], RATES),
        (["solve", *GRID, "--method", "closed", "--state", S1], ("tau", "pe", "re_b", "im_b")),
        (["sigma", *GRID, "--state1", S1, "--state2", S2], ("tau", "sigma")),
        (["trace-distance", *GRID, "--state1", S1, "--state2", S2], ("tau", "distance")),
        (["tcl-rates", *HORIZON_GRID], RATES),
    ],
    ids=["xi", "tcl-rates", "solve", "sigma", "trace-distance", "tcl-rates-horizon"],
)
def test_float_tables_match_per_row_output(argv, headers, fmt, capsys):
    """The rows a grid command computes chunk by chunk equal those of whole-grid arrays."""
    code, out, _ = run_cli([*argv, "--format", fmt], capsys)
    assert code == 0
    r, tau_end = (float(argv[argv.index(flag) + 1]) for flag in ("--r", "--tau-end"))
    rows = _per_row_reference(argv[0], r, tau_end)
    assert len(rows) > tables.TABLE_CHUNK
    _assert_same_lines(out, _emit_per_value(headers, rows, fmt))


MEMORY_GRID = [*GRID[:-1], "200001"]


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", *MEMORY_GRID],
        ["tcl-rates", *MEMORY_GRID],
        ["solve", *MEMORY_GRID, "--method", "closed", "--state", S1],
        ["sigma", *MEMORY_GRID, "--state1", S1, "--state2", S2],
        ["trace-distance", *MEMORY_GRID, "--state1", S1, "--state2", S2],
    ],
    ids=["xi", "tcl-rates", "solve", "sigma", "trace-distance"],
)
def test_grid_command_memory_is_the_grid_and_one_chunk(argv, tmp_path):
    """A grid command computes its rows a chunk at a time, as it writes them.

    The 200001-point grid is 1.6 MB; the whole table of any of these
    commands would be 3.2 MB or more on top of it.
    """
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "table.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", *GRID],
        ["tcl-rates", *GRID],
        ["solve", *GRID, "--method", "closed", "--state", S1],
        ["sigma", *GRID, "--state1", S1, "--state2", S2],
        ["trace-distance", *GRID, "--state1", S1, "--state2", S2],
        # tau past 1e17 and dxi below 1e-4, outside the bulk formatter's window
        ["xi", "--kind", "post", "--r", "1e-300", "--tau-end", "1e300", *GRID[-2:]],
    ],
    ids=["xi", "tcl-rates", "solve", "sigma", "trace-distance", "xi-out-of-window"],
)
def test_csv_and_json_tables_hold_the_same_doubles(argv, capsys):
    code, csv_out, _ = run_cli([*argv, "--format", "csv"], capsys)
    assert code == 0
    code, json_out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_out.splitlines()
    from_csv = np.array([[float(v) for v in line.split(",")] for line in lines])
    records = json.loads(json_out)
    from_json = np.array([[rec[h] for h in header.split(",")] for rec in records], dtype=float)
    assert from_csv.shape == from_json.shape
    assert len(from_csv) > tables.TABLE_CHUNK
    finite = np.isfinite(from_json)  # JSON writes non-finite values as null
    assert np.array_equal(from_csv[finite].view(np.int64), from_json[finite].view(np.int64))
    assert not np.isfinite(from_csv[~finite]).any()


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


def test_build_parser_is_built_once_per_process(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    run_cli(["--version"], capsys)  # the shared parser exists from here on
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argv = ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--points", "3"]
    for args in (argv, argv, ["xi", "--kind", "mem"], ["--version"]):
        run_cli(args, capsys)
    assert built == []
    cli.build_parser.__wrapped__()  # a fresh build is what the count would see
    assert "spinflow" in built


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    """A sequence of main() calls on the shared parser leaves no state behind.

    Each call's stdout, stderr and output file equal those of the same call
    run alone as ``python -m spinflow.cli``.
    """
    params = ["--kind", "mem", "--r", "0.2", "--n", "1", "--tau-end", "5", "--points", "11"]
    calls = [
        ["solve", *params, "--method", "tcl", "--tol", "1e-8"],
        ["solve", *params],
        ["solve", *params, "--method", "quadrature", "--steps", "0"],
        ["xi", *params, "--format", "json", "--out", "{out}"],
        ["xi", *params],
    ]
    env = _child_env()
    codes = []
    for k, call in enumerate(calls):
        outputs = []
        for where in ("main", "fresh"):
            target = tmp_path / f"{where}{k}.json"
            argv = [arg.format(out=target) for arg in call]
            if where == "main":
                code, out, err = run_cli(argv, capsys)
            else:
                done = subprocess.run(
                    [sys.executable, "-m", "spinflow.cli", *argv],
                    capture_output=True, text=True, env=env, cwd=tmp_path,
                )
                code, out, err = done.returncode, done.stdout, done.stderr
            written = target.read_bytes() if target.exists() else None
            outputs.append((code, out, err, written))
        assert outputs[0] == outputs[1], call
        codes.append(outputs[0][0])
    assert codes == [0, 0, 2, 0, 0]


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
        # tau_points is an integer up to the grid cap, never truncated
        "kind = mem\nr = 0.1\nanalyses = rates\ntau_points = 2.7\n",
        f"kind = mem\nr = 0.1\nanalyses = rates\ntau_points = {cli._MAX_POINTS + 1}\n",
        'kind = mem\nr = 0.1\nanalyses = rates\ntau_points = "201"\n',
        # numbers are JSON numbers, checked as their flag is: no booleans, no
        # quoted numbers, and seed and budget are integers
        "kind = mem\nr = true\nanalyses = rates\n",
        'kind = mem\nr = "0.1"\nanalyses = rates\n',
        "kind = mem\nr = 0.1\nn = 1, false\nanalyses = rates\n",
        "kind = mem\nr = 0.1\nanalyses = rates\nseed = 2.5\n",
        "kind = mem\nr = 0.1\nanalyses = rates\nbudget = 1e308\n",
        "kind = mem\nr = 0.1\nanalyses = rates\ntau_end = 1, 2\n",
        "kind = mem\nr = 0.1\nanalyses = rates, \n",
        "kind = mem\nr = 0.1\nanalyses = rates\nout_dir = null\n",
        'kind = mem\nr = 0.1\nanalyses = rates\nout_dir = ""\n',
        "kind = mem\ngamma = 2\nanalyses = rates\n",
        # a point needs R > 0, also where R > 0 underflows to 0
        "kind = mem\nr = 0\nanalyses = rates\n",
        "kind = mem\nr = 5e-324\nn = 1\nanalyses = rates\n",
        "kind = mem\ngamma0 = 1e-320\ngamma = 1e10\nanalyses = rates\n",
        # a list key takes at least one value
        *(
            json.dumps({"kind": "mem", "r": 0.1, "analyses": "rates", key: []})
            for key in ("kind", "r", "n", "analyses")
        ),
        json.dumps({"gamma0": [], "analyses": "rates"}),
        pytest.param('{"r": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested-too-deep"),
    ],
)
def test_sweep_config_errors_exit_2(text, tmp_path, capsys):
    cfg = _write_config(tmp_path, text)
    code, out, err = run_cli(
        ["sweep", "--config", cfg, "--out-dir", str(tmp_path / "x")], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("config error") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_sweep_config_without_analyses_writes_only_the_run_record(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.2}))
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
    assert (code, out) == (0, "")
    assert [path.name for path in out_dir.iterdir()] == ["run_record.json"]
    record = json.loads((out_dir / "run_record.json").read_text())
    jsonschema.validate(record, SCHEMA)
    (point,) = record["points"]
    verdict = analysis.classify("mem", MapParams.from_ratio(0.2, 0.0)).verdict
    assert point["classification"] == verdict, point


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("cfg.txt", "kind = mem\nr = 0.1\nanalyses = rates\nr = 0.2\n",
         "config error: line 4: r given twice\n"),
        ("cfg.json", '{"kind": "mem", "r": 0.1, "analyses": "rates", "r": 0.2}',
         "config error: r given twice\n"),
    ],
    ids=["flat", "json"],
)
def test_sweep_config_key_given_twice_exits_2(name, text, message, tmp_path, capsys):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, out, err = run_cli(
        ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "x")], capsys
    )
    assert (code, out, err) == (2, "", message)
    assert not (tmp_path / "x").exists()


def _run_quietly(argv):
    """main(argv)'s exit code, stdout and stderr, without pytest's capture fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: a config of one cheap point, whose keys the property test replaces
PROBE_CONFIG = {
    "kind": "mem", "r": 0.2, "n": 1, "tau_end": 8, "tau_points": 5,
    "analyses": ["measure", "rates", "choi"], "format": "csv", "seed": 7, "budget": 150,
}
_ABSENT = object()  # the key is left out of the config
PROBE_VALUES = [
    None, True, [], {}, "x", math.inf, -math.inf, math.nan, -1, 0, 1e308, [1, 2], 2.5, "5",
    1e-320, 10**400, [[1]], _ABSENT,
]


def _flat_config(config: dict):
    """config in the flat key = value grammar, or None if a value cannot be written there."""
    lines = []
    for key, value in config.items():
        items = value if type(value) is list else [value]
        if not items or any(type(v) in (list, dict) for v in items):
            return None
        lines.append(f"{key} = " + ", ".join(json.dumps(v) for v in items))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    changes=st.dictionaries(
        st.sampled_from([*PROBE_CONFIG, "gamma0", "gamma", "out_dir"]),
        st.sampled_from(PROBE_VALUES),
        min_size=1,
        max_size=2,
    )
)
def test_any_sweep_config_exits_0_with_a_valid_record_or_2_with_one_line(changes):
    config = {k: v for k, v in (PROBE_CONFIG | changes).items() if v is not _ABSENT}
    texts = [json.dumps(config), _flat_config(config)]
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(t for t in texts if t is not None):
            cfg, out_dir = Path(tmp) / f"cfg{k}", Path(tmp) / f"run{k}"
            cfg.write_text(text)
            argv = ["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]
            code, out, err = _run_quietly(argv)
            assert code in (0, 2) and out == "" and "Traceback" not in err, (text, err)
            record = out_dir / "run_record.json"
            if code == 2:
                assert len(err.strip().splitlines()) == 1, (text, err)
                assert not record.exists(), text
            else:
                jsonschema.validate(json.loads(record.read_text()), SCHEMA)


#: the text of a float flag: finite, huge, tiny, zero, negative and non-finite
_FLOAT_TEXT = st.one_of(
    st.sampled_from([
        "0", "-0", "-1", "0.2", "0.3", "1", "3", "1e-320", "5e-324", "1e-300", "1e-10", "1e-06",
        "1e10", "1e15", "1e100", "1e300", "1.7976931348623157e308", "nan", "inf", "-inf",
    ]),
    st.floats().map(repr),
)


def _count_text(*small, cap=None):
    """The text of a count flag: small values, the first past its cap, and refused ones.

    Only the small values are ever run, so the work of an example is bounded
    by counts, not by a clock.
    """
    return st.sampled_from(
        [*map(str, small), *([str(cap + 1)] if cap else []), "0", "-1", "2.5", "nan", "inf"]
    )


_STATE_TEXT = st.one_of(
    st.sampled_from(["1,0,0", "0,0,0", "0.5,0.5,0", "0.3,0.1,-0.2"]),
    st.tuples(_FLOAT_TEXT, _FLOAT_TEXT, _FLOAT_TEXT).map(",".join),
)
_GRID_FLAGS = {"--tau-end": _FLOAT_TEXT, "--points": _count_text(2, 3, 9, cap=cli._MAX_POINTS)}
_STEPS_TEXT = _count_text(1, 2, 40, 10**9)
#: the flags each subcommand is run with, besides --kind and the parameter flags
_COMMAND_FLAGS = {
    "xi": _GRID_FLAGS,
    "solve": {
        **_GRID_FLAGS, "--state": _STATE_TEXT,
        "--method": st.sampled_from(["closed", "ode", "quadrature", "tcl"]),
        "--tol": _FLOAT_TEXT, "--steps": _STEPS_TEXT,
    },
    "trace-distance": {**_GRID_FLAGS, "--state1": _STATE_TEXT, "--state2": _STATE_TEXT},
    "sigma": {**_GRID_FLAGS, "--state1": _STATE_TEXT, "--state2": _STATE_TEXT},
    "measure": {
        "--tau-end": _FLOAT_TEXT,
        "--budget": _count_text(100, 10**30),
        "--seed": _count_text(7, 10**30),
    },
    "tcl-rates": _GRID_FLAGS,
    "choi": {"--tau": _FLOAT_TEXT, "--tau-start": _FLOAT_TEXT},
    "divisibility": {"--tau-end": _FLOAT_TEXT, "--grid": _count_text(2, 3, 17, cap=MAX_GRID)},
    "positivity": {
        "--tau-end": _FLOAT_TEXT, "--points": _count_text(2, 9, cap=cli._MAX_POINTS),
        "--samples": _count_text(1000, cap=cli.MAX_VERTICES),
    },
    "oracle": {
        **_GRID_FLAGS, "--state": _STATE_TEXT, "--tol": _FLOAT_TEXT, "--steps": _STEPS_TEXT,
    },
    "sweep": {"--workers": _count_text(1, 4, 10**30)},
    "classify": {"--budget": _count_text(100, 10**30), "--seed": _count_text(7, 10**30)},
}


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_numeric_flags_keep_the_exit_code_contract(command, data):
    argv, flags = [command], {}
    if command == "sweep":
        argv += ["--config", str(ROOT / "configs" / "smoke_sweep.txt")]
    else:
        argv += ["--kind", data.draw(st.sampled_from(["mem", "post"]), label="--kind")]
        source = data.draw(st.sampled_from(["--r", "--gamma0"]), label="R from")
        flags = {source: _FLOAT_TEXT, "--n": st.none() | _FLOAT_TEXT}
        if source == "--gamma0":
            flags["--gamma"] = st.none() | _FLOAT_TEXT
    for flag, values in _COMMAND_FLAGS[command].items():
        # a flag left out takes its default; the times are always given
        flags[flag] = values if flag in ("--tau", "--tau-end") else st.none() | values
    for flag, values in flags.items():
        value = data.draw(values, label=flag)
        # --flag=value, so that a value such as -inf is not read as a flag
        argv += [] if value is None else [f"{flag}={value}"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run_quietly([*argv, f"--out-dir={tmp}"] if command == "sweep" else argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    if code == 2:
        assert out == "" and len(err.strip().splitlines()) == 1, (argv, out, err)
    elif code == 0 and command != "sweep":
        header, *rows = (line.split(",") for line in out.splitlines())
        assert rows and {len(row) for row in rows} == {len(header)}, (argv, out)
        # README allows non-finite values only in sigma: mem, 4R > 1, at D's isolated zeros
        if command != "sigma":
            assert not {"nan", "inf", "-inf"} & {v for row in rows for v in row}, (argv, out)


def test_grid_at_the_cap_is_accepted():
    args = cli.build_parser().parse_args(
        ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1",
         "--points", str(cli._MAX_POINTS)]
    )
    assert len(cli._grid(args)) == cli._MAX_POINTS
    # above the largest grid a workload, test or example uses
    assert cli._MAX_POINTS > 200_001


@pytest.mark.parametrize(
    "argv, name",
    [
        (["xi", "--kind", "mem", "--r", "0.2", "--tau-end"], "_positive_time"),
        (["choi", "--kind", "mem", "--r", "0.2", "--tau"], "_time"),
        (["solve", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--steps"], "_steps"),
        (["measure", "--kind", "mem", "--r", "0.2", "--budget"], "_budget"),
        (["oracle", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--tol"], "_tol"),
        (["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--points"], "_points"),
        (["divisibility", "--kind", "mem", "--r", "0.2", "--grid"], "_grid_size"),
        (["positivity", "--kind", "mem", "--r", "0.2", "--samples"], "_samples"),
        (["sweep", "--config", str(ROOT / "configs" / "smoke_sweep.txt"), "--workers"],
         "_workers"),
    ],
    ids=["tau-end", "tau", "steps", "budget", "tol", "points", "grid", "samples", "workers"],
)
def test_flag_type_errors_name_the_type(argv, name, capsys):
    code, out, err = run_cli([*argv, "1.5x"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"invalid {name} value: '1.5x'\n")


SINGLE_ROW_HEADERS = {
    "measure": ["value", "evaluations", "method", "tau_end", "classification",
                "first_x", "first_y", "first_z", "second_x", "second_y", "second_z"],
    "classify": ["verdict", "params_physical", "positivity_ok", "positivity_max_norm",
                 "cp_ok", "cp_min_eigenvalue", "divisible", "divisibility_min_eigenvalue",
                 "measure_value", "tau_end"],
    "divisibility": ["divisible", "min_eigenvalue", "t1", "t2", "tau_end", "grid"],
    "positivity": ["ok", "worst_tau", "max_norm", "witness_x", "witness_y", "witness_z"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SINGLE_ROW_HEADERS))
def test_single_row_headers(command, fmt, capsys):
    extra = {"divisibility": ["--grid", "20"], "positivity": ["--tau-end", "5"]}
    code, out, _ = run_cli(
        [command, "--kind", "mem", "--r", "0.2", "--n", "1", *extra.get(command, []),
         "--format", fmt],
        capsys,
    )
    assert code == 0
    expected = SINGLE_ROW_HEADERS[command]
    if fmt == "csv":
        header, rows = rows_of(out)
        assert (header, len(rows)) == (expected, 1)
    else:
        (record,) = json.loads(out)
        assert list(record) == sorted(expected)


SWEEP_TABLE_HEADERS = {
    "measure": ["index", "kind", "r", "n", "value", "evaluations", "method", "tau_end"],
    "rates": ["index", "kind", "r", "n", "tau", "gamma1", "gamma2", "gamma3"],
    "choi": ["index", "kind", "r", "n", "tau", "min_eigenvalue"],
    "divisibility": ["index", "kind", "r", "n", "divisible", "min_eigenvalue", "t1", "t2"],
    "positivity": ["index", "kind", "r", "n", "ok", "worst_tau", "max_norm"],
}

ALL_ANALYSES_CONFIG = """\
kind = mem, post
r = 0.1, 0.2
n = 1
tau_end = 8
tau_points = 11
analyses = measure, rates, choi, divisibility, positivity
format = {fmt}
"""


def _sweep_tables(out_dir, fmt):
    """{analysis: (header, rows)} of a sweep's files; JSON keys come sorted."""
    tables = {}
    for analysis in SWEEP_TABLE_HEADERS:
        text = (out_dir / f"{analysis}.{fmt}").read_text()
        if fmt == "csv":
            tables[analysis] = rows_of(text)
        else:
            records = json.loads(text)
            assert len({tuple(rec) for rec in records}) == 1
            tables[analysis] = list(records[0]), [list(rec.values()) for rec in records]
    return tables


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_records_a_failed_point_and_goes_on(fmt, monkeypatch, tmp_path, capsys):
    """The failed point is in the record, with nulls; every table keeps its header."""
    real = cli.divisibility_scan

    def fails_at_one_point(kind, p, **kwargs):
        if kind.value == "post" and p.R == 0.1:
            raise RuntimeError("injected")
        return real(kind, p, **kwargs)

    monkeypatch.setattr(cli, "divisibility_scan", fails_at_one_point)
    cfg = _write_config(tmp_path, ALL_ANALYSES_CONFIG.format(fmt=fmt))
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["sweep", "--config", cfg, "--out-dir", str(out_dir)], capsys)
    assert (code, out) == (0, "")
    assert "4 points, 1 failures" in err
    assert "point 2 failed: RuntimeError: injected" in err

    record = json.loads((out_dir / "run_record.json").read_text())
    jsonschema.validate(record, SCHEMA)
    assert record["failures"] == [{"index": 2, "error": "RuntimeError: injected"}]
    failed = record["points"][2]
    assert (failed["kind"], failed["r"]) == ("post", 0.1)
    assert failed["classification"] is None and failed["measure_value"] is None
    others = [pt for pt in record["points"] if pt["index"] != 2]
    assert all(pt["classification"] is not None for pt in others)
    assert all(pt["measure_value"] == 0.0 for pt in others)

    for analysis, (header, rows) in _sweep_tables(out_dir, fmt).items():
        expected = SWEEP_TABLE_HEADERS[analysis]
        assert header == (expected if fmt == "csv" else sorted(expected)), analysis
        index = header.index("index")
        per_point = 11 if analysis in ("rates", "choi") else 1
        assert [int(row[index]) for row in rows] == [
            i for i in (0, 1, 3) for _ in range(per_point)
        ], analysis


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_every_point_failed_keeps_every_header(fmt, monkeypatch, tmp_path, capsys):
    def fails(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "classify", fails)
    cfg = _write_config(tmp_path, ALL_ANALYSES_CONFIG.format(fmt=fmt))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(["sweep", "--config", cfg, "--out-dir", str(out_dir)], capsys)
    assert code == 0 and "4 points, 4 failures" in err
    for analysis, header in SWEEP_TABLE_HEADERS.items():
        empty = ",".join(header) + "\n" if fmt == "csv" else "[]\n"
        assert (out_dir / f"{analysis}.{fmt}").read_text() == empty
    record = json.loads((out_dir / "run_record.json").read_text())
    jsonschema.validate(record, SCHEMA)
    assert [pt["classification"] for pt in record["points"]] == [None] * 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_table_memory_follows_one_point(fmt, tmp_path, capsys):
    """Each point's tables are written when it is done, TABLE_CHUNK rows at a time."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mem", "r": [0.1, 0.2], "n": 1, "tau_end": 20, "tau_points": 2**17,
        "analyses": ["rates", "choi"], "format": fmt,
    }))
    out_dir = tmp_path / "run"
    tracemalloc.start()
    try:
        code, _, err = run_cli(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "2 points, 0 failures" in err
    # the arrays of one point peak at about 20 MB; the 2**18 rows held as
    # Python tuples would take about 860 bytes each, over 200 MB
    assert peak < 40e6
    for analysis in ("rates", "choi"):
        text = (out_dir / f"{analysis}.{fmt}").read_text()
        rows = text.count("\n") - 1 if fmt == "csv" else text.count('"index": ')
        assert rows == 2**18, analysis


def test_sweep_rates_rows_are_the_tcl_rates_table(tmp_path, capsys):
    """A point's rates.csv rows, without their prefix, are tcl-rates' bytes."""
    points = str(2 * tables.TABLE_CHUNK + 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "mem", "r": [0.2, 0.3], "n": 1, "tau_end": 20, "tau_points": int(points),
        "analyses": ["rates"],
    }))
    code, _, _ = run_cli(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    _, *lines = (tmp_path / "rates.csv").read_text().splitlines()
    rows = [line.split(",", 4) for line in lines]  # (index, kind, r, n, the rest)
    for index, r in enumerate(["0.2", "0.3"]):  # R = 0.3: rates diverge before tau_end
        target = tmp_path / f"tcl-rates{index}.csv"
        argv = ["tcl-rates", "--kind", "mem", "--r", r, "--n", "1", "--tau-end", "20",
                "--points", points, "--out", str(target)]
        assert run_cli(argv, capsys)[0] == 0
        table = ["tau,gamma1,gamma2,gamma3", *(row[4] for row in rows if row[0] == str(index))]
        assert "\n".join(table) + "\n" == target.read_text(), r


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_with_prefix_written_in_parts_matches_per_value_emitter(fmt):
    """Constant prefix values, a table written in several parts, floats and mixed rows."""
    headers = ("index", "label", "flag", "r", "tau", "b", "a")
    floats = np.random.default_rng(1).random((tables.TABLE_CHUNK + 3, 3))
    floats[5] = [np.nan, -np.inf, -0.0]
    parts = [
        ((0, "50% done", True, 0.1), floats),
        ((1, "mem", np.bool_(False), np.float64(np.inf)), floats[:0]),
        ((2, '"q"', False, 5e-324), [(1.5, np.int64(3), "x, y")]),
        ((3, "%s", True, -2.0), floats[:2]),
    ]
    stream = io.StringIO()
    table = tables._Table(stream, headers, fmt)
    for prefix, rows in parts:
        table.write(rows, prefix)
    table.close()
    every_row = [(*prefix, *row) for prefix, rows in parts for row in list(rows)]
    _assert_same_lines(stream.getvalue(), _emit_per_value(headers, every_row, fmt))


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "20", "--points", "100001"],
        ["classify", "--kind", "mem", "--r", "0.2", "--n", "1"],
    ],
    ids=["read-one-line", "read-nothing"],
)
def test_reader_closing_stdout_early_exits_1_without_traceback(argv):
    env = _child_env()
    with subprocess.Popen(
        [sys.executable, "-m", "spinflow.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        if argv[0] == "xi":
            assert proc.stdout.readline() == "tau,xi,dxi\n"
        proc.stdout.close()  # as `| head -1` and `| head -0` do
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, "")


#: the address space a child gets in the out-of-memory test: less than the
#: integrators need at the --points cap, more than importing spinflow does
_CHILD_ADDRESS_SPACE = 512 * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
@pytest.mark.parametrize(
    "command", [["oracle"], ["solve", "--method", "quadrature"]], ids=["oracle", "quadrature"]
)
def test_out_of_memory_is_one_stderr_line(command):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    env = _child_env()
    result = subprocess.run(
        [sys.executable, "-m", "spinflow.cli", *command, "--kind", "mem", "--r", "0.2",
         "--n", "1", "--tau-end", "20", "--points", str(cli._MAX_POINTS)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=limit_address_space, timeout=300,
    )
    if result.returncode != 0:
        assert result.returncode == 1, result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert "Traceback" not in result.stderr


def test_unwritable_run_record_exits_2_before_any_point(monkeypatch, tmp_path, capsys):
    def no_point(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "_sweep_point", no_point)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"r": 0.2, "n": 1, "analyses": "rates"}))
    out_dir = tmp_path / "out"
    (out_dir / "run_record.json").mkdir(parents=True)
    (out_dir / "rates.csv").write_text("keep\n")
    code, out, err = run_cli(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("spinflow: error: cannot write") and err.count("\n") == 1, err
    assert (out_dir / "rates.csv").read_text() == "keep\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the full device /dev/full")
@pytest.mark.parametrize("target", ["--out", "stdout", "sweep"])
def test_failed_write_is_one_stderr_line_and_exit_1(target, tmp_path):
    argv = ["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "10", "--points", "100001"]
    if target == "--out":
        argv += ["--out", "/dev/full"]
    elif target == "sweep":  # one table of the sweep on a full disk
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"r": 0.2, "n": 1, "analyses": "rates"}))
        (tmp_path / "rates.csv").symlink_to("/dev/full")
        argv = ["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]
    with open("/dev/full" if target == "stdout" else os.devnull, "w") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "spinflow.cli", *argv], stdout=stdout,
            stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=300,
        )
    assert result.returncode == 1, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "Traceback" not in result.stderr
