"""The four benchmark workloads: their CLI calls and their correctness checks.

A workload maps a seed and a scratch directory to a :class:`Plan`: the
``spinflow`` argv lists one pass runs, the names of its operations, and a
check that turns the calls' results into one error (or ``None``) per
operation.  An operation is one CLI call, except in the sweep, where it is
one parameter point.  Inputs depend only on the seed.

This module imports nothing outside the standard library at import time, so
the benchmark's parent process stays light; ``run_calls`` imports the CLI.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references"
SCHEMA = ROOT / "schemas" / "run_record.schema.json"

DEFAULT_SEED = 20240901
#: absolute tolerance for floats compared with the references; as tight as
#: the tightest acceptance-gate tolerance (criteria 03 and 07)
FLOAT_TOL = 1e-10
#: the information-flow measure counts as zero below this (analysis.MEASURE_TOL)
MEASURE_TOL = 1e-8
#: oracle agreement tolerance (the CLI's default --tol)
ORACLE_TOL = 1e-6
#: grid-export draws its state pair from this many seeded pairs, because its
#: check is byte identity against hashes recorded for each pair
STATE_POOL = 8

NONDIVISIBLE = "TimeDependentMarkovian-Nondivisible"
DIVISIBLE = "TimeDependentMarkovian-Divisible"
UNPHYSICAL = "Unphysical(positivity broken)"


@dataclass
class CallResult:
    argv: list[str]
    rc: int
    stdout: str
    stderr: str
    error: str | None  # traceback of an exception that escaped cli.main


@dataclass
class Plan:
    calls: list[list[str]]
    ops: list[str]
    check: Callable[[list[CallResult]], list[str | None]]


def run_calls(calls: list[list[str]]) -> list[CallResult]:
    """Run each argv through ``spinflow.cli.main`` in this process.

    ``cli.main`` is looked up on every call so a tracer's wrapper is used.
    """
    import spinflow.cli as cli

    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash of the program is a failed operation
                rc = 1
                error = traceback.format_exc()
        results.append(CallResult(argv, rc, out.getvalue(), err.getvalue(), error))
    return results


def call_error(res: CallResult) -> str | None:
    if res.error is not None:
        return "traceback: " + res.error.strip().splitlines()[-1]
    if res.rc != 0:
        return f"exit {res.rc}: {res.stderr.strip()[-200:]}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    return None


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_rows(header, got, ref, *, skip=(), at_most=None) -> str | None:
    """First disagreement between two CSV row lists, or None.

    Numeric fields agree within FLOAT_TOL, other fields exactly.  Columns in
    ``skip`` are not compared, and ``at_most`` maps a column to its budget:
    there the field is a count from 1 to the budget.
    """
    at_most = at_most or {}
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    for k, (row, want) in enumerate(zip(got, ref)):
        if len(row) != len(want):
            return f"row {k}: {len(row)} fields, reference has {len(want)}"
        for col, a, b in zip(header, row, want):
            if col in skip:
                continue
            x, y = _number(a), _number(b)
            if col in at_most:
                bad = x is None or not 1 <= x <= at_most[col]
            elif x is not None and y is not None:
                bad = not abs(x - y) <= FLOAT_TOL
            else:
                bad = a != b
            if bad:
                return f"row {k} {col}: {a} != reference {b}"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_references() -> dict:
    return json.loads((REFERENCES / "references.json").read_text())


def program_seed(seed: int) -> int:
    """The seed handed to spinflow, which needs a non-negative one."""
    return seed % 2**32


def random_state(rng: random.Random) -> str:
    """A state strictly inside the Bloch ball, as the CLI's 'pe,re,im'."""
    z = 2.0 * rng.random() - 1.0
    phi = 2.0 * math.pi * rng.random()
    radius = 0.9 * rng.random() ** (1.0 / 3.0)
    planar = radius * math.sqrt(1.0 - z * z)
    x, y = planar * math.cos(phi), planar * math.sin(phi)
    return "%.6f,%.6f,%.6f" % (0.5 * (1.0 + radius * z), 0.5 * x, 0.5 * y)


# ----------------------------------------------------------------------------
# sweep-acceptance

#: A 4-point cut of configs/acceptance_sweep.json (24 points, about 40 s per
#: pass, too long for this benchmark's run length).  It keeps the pinned
#: point mem R = 0.05, N = 1, whose Nondivisible verdict at the certified
#: horizon only the divisibility refinement finds, plus one cheap point per
#: family and one post-Markovian point at the same R.
SWEEP_CONFIG = {
    "kind": ["mem", "post"],
    "r": [0.05, 0.2],
    "n": [1],
    "tau_end": 20,
    "tau_points": 201,
    "analyses": ["measure", "rates", "choi", "divisibility", "positivity"],
    "format": "csv",
    "budget": 1000,
}
SWEEP_POINTS = [
    (kind, r, n)
    for kind in SWEEP_CONFIG["kind"]
    for r in SWEEP_CONFIG["r"]
    for n in SWEEP_CONFIG["n"]
]
PINNED = ("mem", 0.05, 1)
SWEEP_VERDICT = {"mem": NONDIVISIBLE, "post": DIVISIBLE}
#: (t1, t2) locate the worst window on a flat ridge of the Choi eigenvalue;
#: only the eigenvalue there is a well-defined output, so only it is compared
SWEEP_SKIP = {"divisibility": ("t1", "t2")}
SWEEP_AT_MOST = {"measure": {"evaluations": SWEEP_CONFIG["budget"]}}


def sweep_acceptance(seed: int, work: Path) -> Plan:
    config = work / "sweep.json"
    config.write_text(json.dumps(dict(SWEEP_CONFIG, seed=program_seed(seed))))
    out = work / "sweep-out"
    calls = [["sweep", "--config", str(config), "--out-dir", str(out), "--workers", "1"]]
    ops = [f"sweep[{i}] {k} R={r} N={n}" for i, (k, r, n) in enumerate(SWEEP_POINTS)]

    def check(results):
        failed = call_error(results[0])
        if failed is not None:
            return [failed] * len(ops)
        import jsonschema

        try:
            record = json.loads((out / "run_record.json").read_text())
            jsonschema.validate(record, json.loads(SCHEMA.read_text()))
        except (OSError, ValueError, jsonschema.ValidationError) as exc:
            return [f"run_record.json: {exc}"[:300]] * len(ops)
        errors: list[str | None] = [None] * len(ops)

        def fail(index, message):
            if 0 <= index < len(ops) and errors[index] is None:
                errors[index] = message

        for failure in record["failures"]:
            fail(failure["index"], "sweep failure: " + failure["error"])
        points = {pt["index"]: pt for pt in record["points"]}
        for i, (kind, r, n) in enumerate(SWEEP_POINTS):
            pt = points.get(i)
            if pt is None:
                fail(i, "point missing from run_record.json")
                continue
            if pt["classification"] != SWEEP_VERDICT[kind]:
                what = "pinned point" if (kind, r, n) == PINNED else "verdict"
                fail(i, f"{what}: {pt['classification']} != {SWEEP_VERDICT[kind]}")
            if pt["measure_value"] is None or pt["measure_value"] > MEASURE_TOL:
                fail(i, f"measure_value {pt['measure_value']} > {MEASURE_TOL}")
        for analysis in SWEEP_CONFIG["analyses"]:
            try:
                header, rows = read_csv(out / f"{analysis}.csv")
            except (OSError, IndexError) as exc:
                return [f"{analysis}.csv: {exc}"] * len(ops)
            ref_header, ref_rows = read_csv(REFERENCES / "sweep" / f"{analysis}.csv")
            if header != ref_header:
                return [f"{analysis}.csv header {header}"] * len(ops)
            for i in range(len(ops)):
                mismatch = compare_rows(
                    header,
                    [row for row in rows if row[:1] == [str(i)]],
                    [row for row in ref_rows if row[:1] == [str(i)]],
                    skip=SWEEP_SKIP.get(analysis, ()),
                    at_most=SWEEP_AT_MOST.get(analysis),
                )
                if mismatch is not None:
                    fail(i, f"{analysis}.csv {mismatch}")
        return errors

    return Plan(calls, ops, check)


# ----------------------------------------------------------------------------
# measure-oscillatory

#: 4R > 1 at both: each gain evaluation polishes many sign changes, more at R = 5
MEASURE_RS = ("1", "5")
MEASURE_BUDGET = "100"


def measure_oscillatory(seed: int, work: Path) -> Plan:
    outs = {r: work / f"measure-r{r}.csv" for r in MEASURE_RS}
    calls = [
        ["measure", "--kind", "mem", "--r", r, "--n", "0", "--budget", MEASURE_BUDGET,
         "--seed", str(program_seed(seed)), "--out", str(outs[r])]
        for r in MEASURE_RS
    ]
    ops = [f"measure mem R={r}" for r in MEASURE_RS]

    def check(results):
        refs = load_references()["measure-oscillatory"]
        return [_measure_error(res, outs[r], refs[r]) for r, res in zip(MEASURE_RS, results)]

    return Plan(calls, ops, check)


def _measure_error(res: CallResult, out: Path, ref: list[list[str]]) -> str | None:
    failed = call_error(res)
    if failed is not None:
        return failed
    try:
        header, rows = read_csv(out)
    except (OSError, IndexError) as exc:
        return str(exc)
    # the winning pair is not compared: any pair with the same
    # (a0**2, |b0|**2) weights reaches the same value
    failed = compare_rows(
        header, rows, ref,
        skip=("first_x", "first_y", "first_z", "second_x", "second_y", "second_z"),
        at_most={"evaluations": int(MEASURE_BUDGET)},
    )
    if failed is None and rows[0][header.index("classification")] != UNPHYSICAL:
        failed = f"verdict {rows[0][header.index('classification')]} != {UNPHYSICAL}"
    return failed


# ----------------------------------------------------------------------------
# oracle-integrators

ORACLE_POINTS = (("mem", "0.2", "1"), ("mem", "0.05", "10"),
                 ("post", "0.2", "1"), ("post", "0.05", "10"))
ORACLE_STEPS = "8000"
SOLVE_METHODS = ("tcl", "ode")
SOLVE_KINDS = ("mem", "post")
ORACLE_GRID = ["--tau-end", "20", "--points", "101"]


def oracle_integrators(seed: int, work: Path) -> Plan:
    state = random_state(random.Random(seed))
    calls, ops = [], []
    for kind, r, n in ORACLE_POINTS:
        calls.append(["oracle", "--kind", kind, "--r", r, "--n", n, *ORACLE_GRID, "--steps",
                      ORACLE_STEPS, "--state", state, "--out", str(work / f"oracle-{kind}-{r}.csv")])
        ops.append(f"oracle {kind} R={r} N={n}")
    for method in SOLVE_METHODS:
        for kind in SOLVE_KINDS:
            calls.append(["solve", "--kind", kind, "--r", "0.2", "--n", "1", *ORACLE_GRID, "--method",
                          method, "--state", state, "--out", str(work / f"solve-{method}-{kind}.csv")])
            ops.append(f"solve {method} {kind} R=0.2 N=1")

    def check(results):
        errors = []
        for argv, res in zip(calls, results):
            failed = call_error(res)
            if failed is None and argv[0] == "oracle" and not res.stderr.rstrip().endswith("PASS"):
                failed = "no PASS line: " + res.stderr.strip()[-200:]
            if failed is None and argv[0] == "solve":
                failed = _solve_matches_closed(Path(argv[-1]), work / f"oracle-{argv[2]}-0.2.csv")
            errors.append(failed)
        return errors

    return Plan(calls, ops, check)


def _solve_matches_closed(solved: Path, oracle: Path) -> str | None:
    """A solve trajectory agrees with the oracle's closed-form columns."""
    try:
        _, rows = read_csv(solved)
        header, ref = read_csv(oracle)
    except (OSError, IndexError) as exc:
        return str(exc)
    cols = [header.index(c) for c in ("tau", "pe_closed", "re_b_closed", "im_b_closed")]
    if len(rows) != len(ref):
        return f"{len(rows)} rows, oracle has {len(ref)}"
    for row, want in zip(rows, ref):
        got = [float(v) for v in row]
        closed = [float(want[c]) for c in cols]
        if abs(got[0] - closed[0]) > FLOAT_TOL:
            return f"tau {got[0]} != {closed[0]}"
        if max(abs(a - b) for a, b in zip(got[1:], closed[1:])) > ORACLE_TOL:
            return f"tau {got[0]}: {got[1:]} differs from closed form {closed[1:]}"
    return None


# ----------------------------------------------------------------------------
# grid-export

EXPORT_POINTS = "100001"
EXPORT_JSON_POINTS = "20001"
PARAMS = ["--r", "0.2", "--n", "1"]
SPAN = ["--tau-end", "20", "--points", EXPORT_POINTS]


def export_states(seed: int) -> tuple[str, str]:
    rng = random.Random(seed % STATE_POOL)
    return random_state(rng), random_state(rng)


def grid_export(seed: int, work: Path) -> Plan:
    s1, s2 = export_states(seed)
    specs = [
        ("xi.csv", ["xi", "--kind", "mem", "--r", "0.2", *SPAN]),
        ("tcl-rates.csv", ["tcl-rates", "--kind", "mem", *PARAMS, *SPAN]),
        ("solve-closed.csv", ["solve", "--kind", "post", *PARAMS, *SPAN, "--method", "closed",
                              "--state", s1]),
        ("sigma.csv", ["sigma", "--kind", "mem", *PARAMS, *SPAN, "--state1", s1, "--state2", s2]),
        ("trace-distance.csv", ["trace-distance", "--kind", "mem", *PARAMS, *SPAN,
                                "--state1", s1, "--state2", s2]),
        ("positivity.csv", ["positivity", "--kind", "mem", *PARAMS, "--points", "2001"]),
        ("divisibility.csv", ["divisibility", "--kind", "mem", *PARAMS, "--grid", "1500"]),
        ("xi.json", ["xi", "--kind", "post", "--r", "0.2", "--tau-end", "20",
                     "--points", EXPORT_JSON_POINTS, "--format", "json"]),
    ]
    calls = [[*argv, "--out", str(work / name)] for name, argv in specs]
    ops = [name for name, _ in specs]

    def check(results):
        refs = load_references()["grid-export"][str(seed % STATE_POOL)]
        errors = []
        for name, res in zip(ops, results):
            failed = call_error(res)
            if failed is None:
                try:
                    digest = sha256(work / name)
                except OSError as exc:
                    digest = str(exc)
                if digest != refs[name]:
                    failed = f"sha256 {digest} != reference {refs[name]}"
            errors.append(failed)
        return errors

    return Plan(calls, ops, check)


WORKLOADS = {
    "sweep-acceptance": sweep_acceptance,
    "measure-oscillatory": measure_oscillatory,
    "oracle-integrators": oracle_integrators,
    "grid-export": grid_export,
}
