"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v`.  Each test prints its measured
margin so a failing line carries the forensic detail.  Stated runtime budgets
are asserted where the guarantee includes one.
"""

import csv
import io
import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spinflow import cli
from spinflow.analysis import (
    cp_scan,
    cp_temperature_threshold,
    divisibility_scan,
    positivity_scan,
)
from spinflow.maps import (
    MapParams,
    apply_map,
    snapshot,
    snapshot_arrays,
    tcl_rate_arrays,
    xi,
)
from spinflow.measure import flow_report, measure, sigma_analytic
from spinflow.states import EXCITED, GROUND, QubitState, StatePair, random_states
from spinflow.volterra import (
    integrate_memory_kernel,
    integrate_post_markovian,
    integrate_quadrature,
    integrate_tcl,
)

pytestmark = pytest.mark.acceptance

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("mem", "post")
GRID_RS = (0.05, 0.1, 0.2, 0.24)
GRID_NS = (0.5, 1.0, 10.0)
SEED = 20240901


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _at(values, points, taus, index):
    """Value of one entry of a (grid point, tau) array, and that value with its (R, N, tau)."""
    i, k = np.unravel_index(index, values.shape)
    r, n = points[i]
    value = float(values[i, k])
    return value, f"{value:.3e} at (R, N, tau) = ({r}, {n}, {float(taus[k])})"


def test_criterion_01_identity_initialization():
    started = time.perf_counter()
    worst = 0.0
    exact = True
    for kind in KINDS:
        for r in np.logspace(-2.0, 1.0, 20):
            p = MapParams.from_ratio(float(r), n_occ=1.0)
            snap = snapshot(kind, p, 0.0)
            exact &= (snap.lambda1, snap.lambda3, snap.t3) == (1.0, 1.0, 0.0)
            worst = max(worst, abs(xi(kind, float(r), 0.0) - 1.0))
    elapsed = time.perf_counter() - started
    ok = exact and worst == 0.0 and elapsed < 1.0
    _report(
        "criterion 01",
        ok,
        f"snapshot(0) exact = {exact}, max |xi(0) - 1| = {worst:.3g}, {elapsed:.2f} s",
    )
    assert exact
    assert worst == 0.0
    assert elapsed < 1.0


def test_criterion_02_oracle_triangle():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    states = random_states(rng, 5)
    taus = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    for kind in KINDS:
        for r in GRID_RS:
            for n in GRID_NS:
                p = MapParams.from_ratio(r, n_occ=n)
                lam1, lam3, t3 = snapshot_arrays(kind, p, taus)
                run = integrate_memory_kernel if kind == "mem" else integrate_post_markovian
                for s0 in states:
                    pe_exact = 0.5 * (1.0 + t3 - lam3) + lam3 * s0.population_e
                    b_exact = lam1 * complex(s0.coherence)
                    exact = np.column_stack((pe_exact, b_exact.real, b_exact.imag))
                    so = run(p, s0, 10.0, points=101).states
                    sq = integrate_quadrature(kind, p, s0, 10.0, steps=2000, points=101).states
                    for gap in (so - exact, sq - exact, so - sq):
                        worst = max(
                            worst,
                            np.max(np.abs(gap[:, 0])),
                            np.max(np.hypot(gap[:, 1], gap[:, 2])),
                        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 60.0
    _report("criterion 02", ok, f"max element deviation = {worst:.3e}, {elapsed:.1f} s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_03_sigma_nonpositive_physical_regime():
    started = time.perf_counter()
    taus = np.linspace(0.0, 10.0, 1000)
    worst = -np.inf
    for kind in KINDS:
        for r in GRID_RS:
            for n in GRID_NS:
                p = MapParams.from_ratio(r, n_occ=n)
                rng = np.random.default_rng(SEED)
                firsts = random_states(rng, 500)
                seconds = random_states(rng, 500)
                for s1, s2 in zip(firsts, seconds):
                    sig = sigma_analytic(kind, p, StatePair(s1, s2), taus)
                    worst = max(worst, float(np.max(sig)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 60.0
    _report("criterion 03", ok, f"max sigma = {worst:.3e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_04_zero_measure():
    started = time.perf_counter()
    points = [("mem", r, n) for r in GRID_RS for n in GRID_NS]
    points += [("post", r, n) for r in GRID_RS + (0.5, 1.0, 5.0) for n in GRID_NS]
    worst = 0.0
    for kind, r, n in points:
        result = measure(kind, MapParams.from_ratio(r, n_occ=n))
        worst = max(worst, result.value)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 120.0
    _report("criterion 04", ok, f"max measure = {worst:.3e} over {len(points)} points, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 120.0


def test_criterion_05_rate_signs():
    # gamma1, gamma2 > 0 in both families; gamma3 < 0 throughout for the memory
    # kernel (the nondivisibility of criterion 06), gamma3 >= 0 and not
    # identically zero for the CP-divisible post-Markovian family (criterion 07)
    taus = np.linspace(0.0, 20.0, 1001)[1:]
    points = [(r, n) for r in GRID_RS for n in GRID_NS]
    g3_low, g3_top, g12_low = {}, {}, {}
    for kind in KINDS:
        rates = [
            tcl_rate_arrays(kind, MapParams.from_ratio(r, n_occ=n), taus) for r, n in points
        ]
        g12 = np.array([np.minimum(g1, g2) for g1, g2, _ in rates])
        g3 = np.array([third for _, _, third in rates])
        g3_low[kind] = _at(g3, points, taus, np.argmin(g3))
        g3_top[kind] = _at(g3, points, taus, np.argmax(g3))
        g12_low[kind] = _at(g12, points, taus, np.argmin(g12))
    g12_kind = min(KINDS, key=lambda kind: g12_low[kind][0])
    checks = [
        (g12_low[kind][0] > 0.0, f"{kind}: min gamma1/gamma2 = {g12_low[kind][1]}, needs > 0")
        for kind in KINDS
    ]
    checks += [
        (g3_top["mem"][0] < 0.0, f"mem: max gamma3 = {g3_top['mem'][1]}, needs < 0"),
        (g3_low["post"][0] >= 0.0, f"post: min gamma3 = {g3_low['post'][1]}, needs >= 0"),
        (g3_top["post"][0] > 0.0, f"post: max gamma3 = {g3_top['post'][1]}, needs > 0"),
    ]
    failed = [message for holds, message in checks if not holds]
    _report(
        "criterion 05",
        not failed,
        f"mem max gamma3 = {g3_top['mem'][1]}; "
        f"post min gamma3 = {g3_low['post'][1]}, max gamma3 = {g3_top['post'][1]}; "
        f"{g12_kind} min gamma1/gamma2 = {g12_low[g12_kind][1]}",
    )
    assert not failed, "; ".join(failed)


def test_criterion_06_nondivisible_yet_zero_measure():
    p = MapParams.from_ratio(0.2, n_occ=1.0)
    report = divisibility_scan("mem", p, tau_end=20.0, grid=200)
    value = measure("mem", p).value
    ok = report.min_eigenvalue <= -1e-6 and value <= 1e-8
    _report(
        "criterion 06",
        ok,
        f"intermediate-map min eigenvalue = {report.min_eigenvalue:.3e} "
        f"at (t1, t2) = ({report.worst_pair[0]:.3f}, {report.worst_pair[1]:.3f}), "
        f"measure = {value:.3e}",
    )
    assert report.min_eigenvalue <= -1e-6
    assert value <= 1e-8


def test_criterion_07_post_markovian_always_cp():
    taus = np.linspace(0.0, 20.0, 200)
    worst = np.inf
    for r in np.logspace(-2.0, 2.0, 20):
        for n in (0.0, 0.1, 1.0, 10.0, 100.0):
            result = cp_scan("post", MapParams.from_ratio(float(r), n_occ=n), taus)
            worst = min(worst, result.worst_value)
    ok = worst >= -1e-10
    _report("criterion 07", ok, f"min Choi eigenvalue = {worst:.3e}")
    assert worst >= -1e-10


def test_criterion_08_memory_kernel_positivity_threshold():
    taus = np.linspace(0.0, 20.0, 401)
    passing = []
    for four_r in (0.5, 0.9, 1.0):
        p = MapParams.from_ratio(four_r / 4.0, n_occ=1.0)
        result = positivity_scan("mem", p, taus)
        passing.append(result.ok)
    failing = []
    intervals = []
    for four_r in (1.2, 2.0, 4.0):
        p = MapParams.from_ratio(four_r / 4.0, n_occ=0.0)
        result = positivity_scan("mem", p, taus)
        failing.append(not result.ok)
        flow = flow_report("mem", p, StatePair(EXCITED, GROUND), 20.0)
        intervals.append(len(flow.positive_intervals) > 0)
    ok = all(passing) and all(failing) and all(intervals)
    _report(
        "criterion 08",
        ok,
        f"4R <= 1 pass = {passing}, 4R > 1 witnessed = {failing}, "
        f"positive-sigma intervals = {intervals}",
    )
    assert all(passing)
    assert all(failing)
    assert all(intervals)


def test_criterion_09_low_temperature_cp_breakdown():
    taus = np.linspace(0.0, 20.0, 201)
    cold_violations = []
    hot_clean = []
    thresholds = {}
    for r in GRID_RS:
        for n in (0.0, 0.1, 0.2):
            result = cp_scan("mem", MapParams.from_ratio(r, n_occ=n), taus)
            if not result.ok:
                cold_violations.append((r, n, result.worst_value))
        hot = cp_scan("mem", MapParams.from_ratio(r, n_occ=10.0), taus)
        hot_clean.append(hot.ok)
        thresholds[r] = max(cp_temperature_threshold("mem", r, float(t)) for t in taus[1:])
    ok = bool(cold_violations) and all(hot_clean)
    _report(
        "criterion 09",
        ok,
        f"{len(cold_violations)} cold violations, N = 10 clean = {all(hot_clean)}, "
        f"scan thresholds N*(R) = { {r: round(v, 6) for r, v in thresholds.items()} }",
    )
    assert cold_violations
    assert all(hot_clean)


def test_criterion_10_markovian_limit():
    taus = np.linspace(0.0, 5.0, 2001)
    worst = 0.0
    for kind in KINDS:
        gap = np.max(np.abs(xi(kind, 1e-3, taus) - np.exp(-1e-3 * taus)))
        worst = max(worst, float(gap))
    ok = worst <= 1e-2
    _report("criterion 10", ok, f"sup |xi - exp(-R tau)| = {worst:.3e}")
    assert worst <= 1e-2


def test_criterion_11_time_local_route_exactness():
    states = (EXCITED, QubitState(0.55, 0.25 - 0.3j))
    worst = 0.0
    for kind in KINDS:
        for r in GRID_RS:
            for n in GRID_NS:
                p = MapParams.from_ratio(r, n_occ=n)
                for s0 in states:
                    traj = integrate_tcl(kind, p, s0, 10.0, points=51)
                    for t, (pe, re, im) in zip(traj.times, traj.states):
                        ref = apply_map(snapshot(kind, p, float(t)), s0)
                        worst = max(
                            worst,
                            abs(pe - ref.population_e),
                            abs(complex(re, im) - complex(ref.coherence)),
                        )
    ok = worst <= 1e-6
    _report("criterion 11", ok, f"max deviation = {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_12_small_ratio_reduction():
    taus = np.linspace(0.0, 5.0, 2001)
    deviations = []
    for r in (0.05, 0.02, 0.01, 0.005):
        gap = np.max(np.abs(xi("post", r, taus) - xi("mem", r, taus)))
        deviations.append(float(gap))
    ok = deviations[2] <= 5e-2 and all(
        a > b for a, b in zip(deviations, deviations[1:])
    )
    _report(
        "criterion 12",
        ok,
        "deviations at R = 0.05, 0.02, 0.01, 0.005: "
        + ", ".join(f"{d:.3e}" for d in deviations),
    )
    assert deviations[2] <= 5e-2
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_criterion_13_headline_sweep(tmp_path, capsys):
    """The shipped acceptance sweep reproduces the headline, as classify and measure do."""
    started = time.perf_counter()
    config = ROOT / "configs" / "acceptance_sweep.json"
    assert cli.main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "run_record.json").read_text())
    jsonschema.validate(
        record, json.loads((ROOT / "schemas" / "run_record.schema.json").read_text())
    )
    points = record["points"]
    verdict = {
        "mem": "TimeDependentMarkovian-Nondivisible",
        "post": "TimeDependentMarkovian-Divisible",
    }
    wrong = [pt for pt in points if pt["classification"] != verdict[pt["kind"]]]
    zero = all(pt["measure_value"] == 0 for pt in points)
    disagree = []
    for command, column in (("classify", "verdict"), ("measure", "classification")):
        for pt in points:
            call = [command, "--kind", pt["kind"], "--r", repr(pt["r"]), "--n", repr(pt["n"])]
            assert cli.main(call) == 0, call
            (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
            if row[column] != pt["classification"]:
                disagree.append((command, pt, row))
    elapsed = time.perf_counter() - started
    ok = not record["failures"] and len(points) == 24 and not wrong and zero and not disagree
    _report(
        "criterion 13",
        ok,
        f"{len(points)} points, {len(record['failures'])} failures, "
        f"{len(wrong)} off the headline verdict, every measure 0 = {zero}, "
        f"{len(disagree)} classify/measure disagreements, {elapsed:.2f} s",
    )
    assert record["failures"] == []
    assert len(points) == 24
    assert wrong == []
    assert zero
    assert disagree == []
