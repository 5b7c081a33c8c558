"""Command-line surface: single evaluations, oracle checks, and sweeps."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    MAX_GRID,
    MapInversionError,
    _snapshot_min_eigs,
    choi_eigenvalues,
    choi_of,
    classify,
    divisibility_scan,
    intermediate_map,
    positivity_scan,
)
from .maps import (
    EquationKind,
    MapParams,
    SingularRateError,
    _affine_action,
    _time_grid,
    parse_kind,
    rate_divergence_time,
    snapshot_arrays,
    tcl_rate_arrays,
    xi,
    xi_derivative,
)
from .measure import DegeneratePairError, _require_distinct, measure, sigma_analytic
from .sphere import MAX_VERTICES
from .states import QubitState, StatePair
from .tables import FORMATS, _fmt, _Grid, _Table
from .volterra import (
    TOL_RANGE,
    IntegrationDivergenceError,
    integrate_memory_kernel,
    integrate_post_markovian,
    integrate_quadrature,
    integrate_tcl,
)

TRIG_WARNING = "regime: trigonometric (4R>1), positivity not guaranteed"
ANALYSES = ("measure", "rates", "choi", "divisibility", "positivity")
#: the most grid rows --points or a sweep's tau_points may ask for, checked
#: before the grid is allocated
_MAX_POINTS = 2**22


class UsageError(Exception):
    """Flags refused after parsing: together, by the library, or an --out or
    --out-dir that cannot be opened; main reports it as a usage error."""


def _open_out(out: str | None, mode: str = "w"):
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, mode)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None


def _probe_out(out: str) -> None:
    """UsageError now if out cannot be opened for writing, changing no file.

    An existing file is opened for appending, so it keeps its contents until
    the command writes it; a file the probe creates is removed again.
    """
    existed = os.path.lexists(out)
    with _open_out(out, "a"):
        pass
    if not existed:
        os.remove(out)


def _emit(headers, rows, fmt: str, out: str | None) -> None:
    """Write rows to out (stdout if None) as CSV, or as a JSON list of records.

    rows is a 2-D float array or a _Grid, written at most TABLE_CHUNK rows at
    a time so that the text in memory does not grow with the table (nor, for
    a _Grid, the rows), or a short list of mixed rows; see tables.
    out is opened, and truncated, before any row is computed or formatted;
    main calls _emit once, with the table the command returned, so a command
    refuses its flags before out is opened.  UsageError if out cannot be opened.
    """
    with _open_out(out) as stream:
        table = _Table(stream, headers, fmt)
        table.write(rows)
        table.close()


def _record(record: dict) -> tuple:
    """The table of one row whose column names are the record's keys, in order."""
    return tuple(record), [tuple(record.values())]


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one stderr line and exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _flag_type(name: str, convert, ok, rule: str):
    """An argparse type: convert the text, then reject a value that fails ok."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    check.__name__ = name  # argparse prints it in "invalid <name> value"
    return check


# --tau-end; choi --tau and --tau-start; --steps, a quadrature step count;
# --tol, an integration or agreement tolerance; --budget, accepted but
# changing no output
_positive_time = _flag_type(
    "_positive_time", float, lambda v: np.isfinite(v) and v > 0.0, "finite and > 0"
)
_time = _flag_type("_time", float, lambda v: np.isfinite(v) and v >= 0.0, "finite and >= 0")
_steps = _flag_type("_steps", int, lambda v: v >= 1, ">= 1")
_tol = _flag_type(
    "_tol", float, lambda v: TOL_RANGE[0] <= v <= TOL_RANGE[1],
    f"in [{TOL_RANGE[0]:g}, {TOL_RANGE[1]:g}]",
)
_budget = _flag_type("_budget", int, lambda v: v >= 100, ">= 100")
_points = _flag_type("_points", int, lambda v: 2 <= v <= _MAX_POINTS, f"in [2, {_MAX_POINTS}]")
_grid_size = _flag_type("_grid_size", int, lambda v: 2 <= v <= MAX_GRID, f"in [2, {MAX_GRID}]")
_samples = _flag_type(
    "_samples", int, lambda v: 1000 <= v <= MAX_VERTICES, f"in [1000, {MAX_VERTICES}]"
)
_workers = _flag_type("_workers", int, lambda v: v >= 1, ">= 1")
# --format and a sweep config's format; a sweep config's analyses, a key
# with no flag, checked the same way
_format = _flag_type("_format", str, FORMATS.__contains__, "one of " + ", ".join(FORMATS))
_analysis = _flag_type("_analysis", str, ANALYSES.__contains__, "one of " + ", ".join(ANALYSES))


def _add_param_flags(sp) -> None:
    sp.add_argument("--kind", required=True, help="equation kind: mem | post")
    sp.add_argument("--r", type=float, default=None, help="dimensionless ratio R")
    sp.add_argument("--gamma0", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--n", type=float, default=0.0, help="thermal occupation N")


def _map_params(r, gamma0, gamma, n) -> MapParams:
    """MapParams of --r (or --gamma0/--gamma) and --n, or of a sweep point; None: not given."""
    if r is not None and (gamma0 is not None or gamma is not None):
        raise ValueError("give either r (--r) or gamma0/gamma (--gamma0/--gamma), not both")
    if r is not None:
        return MapParams.from_ratio(r, n)
    if gamma0 is None:
        raise ValueError("parameters required: r (--r), or gamma0 (--gamma0) and an optional gamma")
    return MapParams(gamma0, 1.0 if gamma is None else gamma, n)


def _params(args) -> tuple[EquationKind, MapParams]:
    try:
        return parse_kind(args.kind), _map_params(args.r, args.gamma0, args.gamma, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid(args) -> np.ndarray:
    return _time_grid(args.tau_end, args.points)


def _state(text: str) -> QubitState:
    """The argparse type of --state, --state1 and --state2: 'pe,re,im'."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects 'pe,re,im', got {text!r}")
    try:
        pe, re, im = (float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects three numbers, got {text!r}") from None
    state = QubitState(pe, complex(re, im))
    if not state.is_valid():
        raise argparse.ArgumentTypeError(f"is not a valid qubit state: {text!r}")
    return state


def _warn_trig(kind: EquationKind, r: float) -> None:
    if kind is EquationKind.MEMORY_KERNEL and 4.0 * r > 1.0:
        _diag(TRIG_WARNING)


# every command but sweep returns its table, (headers, rows), and writes
# nothing; main parses the parameter flags for it and writes the table
def cmd_xi(args, kind, p) -> tuple:
    _warn_trig(kind, p.R)

    def rows_of(t):
        return np.column_stack((t, xi(kind, p.R, t), xi_derivative(kind, p.R, t)))

    return ("tau", "xi", "dxi"), _Grid(_grid(args), rows_of)


def cmd_solve(args, kind, p) -> tuple:
    if args.method == "closed":

        def rows_of(t):
            pe, b = _affine_action(*snapshot_arrays(kind, p, t), args.state)
            return np.column_stack((t, pe, b.real, b.imag))

        rows = _Grid(_grid(args), rows_of)
    else:
        traj = _integrate(args.method, kind, p, args)
        _diag(f"max trace residual = {_fmt(traj.max_residual)}")
        rows = np.column_stack((traj.times, traj.states))
    return ("tau", "pe", "re_b", "im_b"), rows


def _augmented_ode(kind, p, s0, tau_end, points):
    """Augmented-ODE trajectory of the equation of the given kind."""
    run = (
        integrate_memory_kernel
        if kind is EquationKind.MEMORY_KERNEL
        else integrate_post_markovian
    )
    return run(p, s0, tau_end, points=points)


def _integrate(method, kind, p, args):
    """The trajectory of --state by one integration route on the --points grid.

    An argument the route refuses (a --steps too coarse, a step too long) is
    a usage error.
    """
    s0 = args.state
    try:
        if method == "quadrature":
            return integrate_quadrature(
                kind, p, s0, args.tau_end, args.steps, points=args.points
            )
        if method == "ode":
            return _augmented_ode(kind, p, s0, args.tau_end, args.points)
        return integrate_tcl(kind, p, s0, args.tau_end, args.tol, points=args.points)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_trace_distance(args, kind, p) -> tuple:
    def rows_of(t):
        # the arithmetic of trace_distance(apply_map(snap, s1), apply_map(snap, s2))
        # at every point, bit for bit: np.hypot equals abs(complex) where np.abs
        # does not, and math.hypot, which np.hypot does not reproduce, runs per point
        snap = snapshot_arrays(kind, p, t)
        (a, db), (pe2, b2) = _affine_action(*snap, args.state1), _affine_action(*snap, args.state2)
        a -= pe2
        db -= b2
        modulus = np.hypot(db.real, db.imag)
        return np.column_stack((t, list(map(math.hypot, a.tolist(), modulus.tolist()))))

    return ("tau", "distance"), _Grid(_grid(args), rows_of)


def cmd_sigma(args, kind, p) -> tuple:
    pair = StatePair(args.state1, args.state2)
    try:
        _require_distinct(pair)
    except DegeneratePairError as exc:
        raise UsageError(str(exc)) from None
    _warn_trig(kind, p.R)

    def rows_of(t):
        return np.column_stack((t, sigma_analytic(kind, p, pair, t)))

    return ("tau", "sigma"), _Grid(_grid(args), rows_of)


#: the columns of each analysis's record, shared by its command and its sweep
#: table, which puts (index, kind, r, n) before them; the command's record
#: may add columns after them
_COLUMNS = {
    "measure": ("value", "evaluations", "method", "tau_end"),
    "rates": ("tau", "gamma1", "gamma2", "gamma3"),
    "choi": ("tau", "min_eigenvalue"),
    "divisibility": ("divisible", "min_eigenvalue", "t1", "t2"),
    "positivity": ("ok", "worst_tau", "max_norm"),
}


def _measure_row(m) -> tuple:
    return m.value, m.evaluations, m.method, m.tau_end


def _divisibility_row(report) -> tuple:
    return report.divisible, report.min_eigenvalue, *report.worst_pair


def _positivity_row(result) -> tuple:
    return result.ok, result.worst_tau, result.worst_value


def _bloch_fields(prefix: str, state: QubitState) -> dict:
    return dict(zip((f"{prefix}_x", f"{prefix}_y", f"{prefix}_z"), state.bloch()))


def _rate_taus(kind, p, taus):
    """The prefix of the ascending taus before the rates diverge, and that time (inf if never)."""
    horizon = rate_divergence_time(kind, p)
    return taus[: np.searchsorted(taus, horizon)], horizon


def _rate_rows(kind, p, taus):
    """The rates columns at taus, all before the rates diverge."""
    return np.column_stack((taus, *tcl_rate_arrays(kind, p, taus)))


def cmd_measure(args, kind, p) -> tuple:
    result = measure(kind, p, t_end=args.tau_end)
    record = dict(zip(_COLUMNS["measure"], _measure_row(result)))
    record["classification"] = classify(kind, p).verdict
    pair = result.argmax_pair
    record |= _bloch_fields("first", pair.first) | _bloch_fields("second", pair.second)
    return _record(record)


def cmd_tcl_rates(args, kind, p) -> tuple:
    taus = _grid(args)
    kept, horizon = _rate_taus(kind, p, taus)
    if np.isfinite(horizon):
        _diag(
            f"rates diverge at tau = {_fmt(horizon)}; "
            f"emitting {len(kept)} of {len(taus)} grid rows"
        )
    return _COLUMNS["rates"], _Grid(kept, functools.partial(_rate_rows, kind, p))


def cmd_choi(args, kind, p) -> tuple:
    if args.tau_start > args.tau:
        raise UsageError(f"--tau-start {args.tau_start:g} is after --tau {args.tau:g}")
    snap = intermediate_map(kind, p, args.tau_start, args.tau)
    c = choi_of(snap)
    _diag(f"min eigenvalue = {_fmt(choi_eigenvalues(snap)[0])}")
    rows = [
        (i, j, c[i, j].real, c[i, j].imag) for i in range(4) for j in range(4)
    ]
    return ("row", "col", "re", "im"), rows


def cmd_divisibility(args, kind, p) -> tuple:
    report = divisibility_scan(kind, p, tau_end=args.tau_end, grid=args.grid)
    record = dict(zip(_COLUMNS["divisibility"], _divisibility_row(report)))
    record |= {"tau_end": report.tau_end, "grid": report.grid}
    return _record(record)


def cmd_positivity(args, kind, p) -> tuple:
    taus = _grid(args)
    result = positivity_scan(kind, p, taus, samples=args.samples)
    record = dict(zip(_COLUMNS["positivity"], _positivity_row(result)))
    record |= _bloch_fields("witness", result.witness)
    return _record(record)


def cmd_oracle(args, kind, p) -> tuple:
    taus = _grid(args)
    pe_closed, b_closed = _affine_action(*snapshot_arrays(kind, p, taus), args.state)
    # the quadrature runs first: a --steps too coarse for it is a usage error
    quad = _integrate("quadrature", kind, p, args)
    ode = _integrate("ode", kind, p, args)
    closed = np.column_stack((pe_closed, b_closed.real, b_closed.imag))
    rows = np.column_stack((taus, closed, ode.states, quad.states))
    deltas = {
        route: float(np.max(np.abs(traj.states - closed)))
        for route, traj in (("ode", ode), ("quadrature", quad))
    }
    columns = ("pe", "re_b", "im_b")
    headers = ("tau", *(f"{c}_{route}" for route in ("closed", "ode", "quad") for c in columns))
    for route, delta in deltas.items():
        _diag(f"{route}: max|delta| = {delta:.3e}")
    worst = max(deltas, key=deltas.get)
    if deltas[worst] <= args.tol:
        _diag(f"max|delta| = {deltas[worst]:.3e} <= {args.tol:g}: PASS")
    else:
        _diag(f"max|delta| = {deltas[worst]:.3e} ({worst}) > {args.tol:g}: FAIL")
    return headers, rows


def cmd_classify(args, kind, p) -> tuple:
    report = classify(kind, p)
    record = {
        "verdict": report.verdict,
        "params_physical": report.params_physical,
        "positivity_ok": report.positivity.ok,
        "positivity_max_norm": report.positivity.worst_value,
        "cp_ok": report.cp.ok,
        "cp_min_eigenvalue": report.cp.worst_value,
        "divisible": report.divisibility.divisible,
        "divisibility_min_eigenvalue": report.divisibility.min_eigenvalue,
        "measure_value": report.measure.value,
        "tau_end": report.tau_end,
    }
    return _record(record)


class ConfigError(ValueError):
    pass


def _parse_flat_config(text: str) -> dict:
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in config:
            raise ConfigError(f"line {lineno}: {key} given twice")
        items = [v.strip() for v in value.split(",")]
        parsed = []
        for item in items:
            try:
                parsed.append(json.loads(item))
            except json.JSONDecodeError:
                parsed.append(item)
        config[key] = parsed if len(parsed) > 1 else parsed[0]
    return config


def _unique_keys(pairs) -> dict:
    """json.loads's object_pairs_hook: the object, refusing a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{key} given twice")
        obj[key] = value
    return obj


#: the JSON values a config key takes: numbers (not booleans), or strings
_NUMBER, _TEXT = (int, float), (str,)


def _load_sweep_config(path: str) -> dict:
    """The checked sweep config at path; ConfigError at the first bad key or point.

    Each key is checked as the flag of the same name is, a number given to
    the flag's check as its repr.
    """
    text = Path(path).read_text()
    is_json = text.lstrip().startswith("{")
    raw = json.loads(text, object_pairs_hook=_unique_keys) if is_json else _parse_flat_config(text)
    known = {
        "kind", "r", "gamma0", "gamma", "n", "tau_end", "tau_points",
        "analyses", "format", "seed", "budget", "out_dir",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def get(key, check, types, default=None, many=False):
        """The checked value of key, or of default if key is absent (None if both are)."""
        if key not in raw and default is None:
            return None
        value = raw.get(key, default)
        values = value if many and type(value) is list else [value]
        if not values or any(type(v) not in types or v == "" for v in values):
            noun = "number" if types is _NUMBER else "non-empty string"
            rule = f"one {noun} or a non-empty list of them" if many else f"one {noun}"
            raise ConfigError(f"{key} takes {rule}, got {value!r}")
        try:
            checked = [check(repr(v) if types is _NUMBER else v) for v in values]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
        return checked if many else checked[0]

    kinds = get("kind", parse_kind, _TEXT, "mem", many=True)
    r_values = get("r", float, _NUMBER, many=True) or [None]
    g0_values = get("gamma0", float, _NUMBER, many=True) or [None]
    gamma = get("gamma", float, _NUMBER)
    n_values = get("n", float, _NUMBER, 0.0, many=True)
    try:
        points = [
            (kind, _map_params(r, g0, gamma, n))
            for kind in kinds for r in r_values for g0 in g0_values for n in n_values
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for _, p in points:
        if not p.R > 0.0:  # the run record's r is > 0
            raise ConfigError(f"every point needs R > 0, got R = {p.R!r}")
    get("seed", int, _NUMBER)  # checked and echoed; changes no output
    get("budget", _budget, _NUMBER)  # likewise
    return {
        "points": points,
        "tau_end": get("tau_end", _positive_time, _NUMBER, 20.0),
        "tau_points": get("tau_points", _points, _NUMBER, 201),
        "analyses": get("analyses", _analysis, _TEXT, many=True) or [],
        "format": get("format", _format, _TEXT, "csv"),
        "out_dir": get("out_dir", str, _TEXT),
        "echo": raw,
    }


def _sweep_point(kind, p, cfg: dict):
    """The tables of one point, float arrays or one-row lists, and its run-record summary.

    The verdict comes by precedence, as measure's does: only the scans that decide it run.
    """
    taus = _time_grid(cfg["tau_end"], cfg["tau_points"])
    analyses = cfg["analyses"]
    report = classify(kind, p)
    summary = {"classification": report.verdict, "measure_value": report.measure.value}
    tables = {}
    if "measure" in analyses:
        tables["measure"] = [_measure_row(report.measure)]
    if "rates" in analyses:
        tables["rates"] = _rate_rows(kind, p, _rate_taus(kind, p, taus)[0])
    if "choi" in analyses:
        eigs = _snapshot_min_eigs(*snapshot_arrays(kind, p, taus))
        tables["choi"] = np.column_stack((taus, eigs))
    if "divisibility" in analyses:
        rep = divisibility_scan(kind, p, tau_end=cfg["tau_end"])
        tables["divisibility"] = [_divisibility_row(rep)]
    if "positivity" in analyses:
        result = positivity_scan(kind, p, taus)
        tables["positivity"] = [_positivity_row(result)]
    return tables, summary


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    try:
        cfg = _load_sweep_config(args.config)
    except (OSError, RecursionError, ValueError) as exc:  # RecursionError: nested too deep
        _diag(f"config error: {exc}")
        return 2
    out_dir = Path(args.out_dir or cfg["out_dir"] or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create {out_dir}: {exc.strerror}") from None

    points, fmt = cfg["points"], cfg["format"]
    summaries, failures = [], []
    with contextlib.ExitStack() as stack:
        # each table is written point by point, as soon as the point is done
        tables = {
            name: _Table(
                stack.enter_context(_open_out(str(out_dir / f"{name}.{fmt}"))),
                ("index", "kind", "r", "n", *_COLUMNS[name]),
                fmt,
            )
            for name in dict.fromkeys(cfg["analyses"])
        }
        for idx, (kind, p) in enumerate(points):
            prefix = (idx, kind.value, p.R, p.n_occ)
            summary = {"classification": None, "measure_value": None}
            try:
                point_tables, summary = _sweep_point(kind, p, cfg)
            except Exception as exc:  # a failed point is recorded and writes no rows
                failures.append({"index": idx, "error": f"{type(exc).__name__}: {exc}"})
            else:
                for name, rows in point_tables.items():
                    tables[name].write(rows, prefix)
            summaries.append(dict(zip(("index", "kind", "r", "n"), prefix)) | summary)
        for table in tables.values():
            table.close()

    record = {
        "tool": "spinflow",
        "version": __version__,
        "config": cfg["echo"],
        "points": summaries,
        "failures": failures,
        "wall_time_s": time.perf_counter() - started,
    }
    (out_dir / "run_record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    _diag(
        f"sweep complete: {len(points)} points, {len(failures)} failures "
        f"-> {out_dir}"
    )
    for failure in record["failures"]:
        _diag(f"  point {failure['index']} failed: {failure['error']}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spinflow argument parser, built once per process and shared.

    Every call returns the same parser, so in-process main() calls pay for
    it once.  Parsing keeps no state on it; callers must not mutate it.
    """
    parser = _Parser(
        prog="spinflow",
        description="Damping-map evaluations, information-flow analysis, sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"spinflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, params=True, points=None, **kwargs):
        """A subcommand; a points default adds a required --tau-end and a --points grid."""
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        if params:
            _add_param_flags(sp)
        if points is not None:
            sp.add_argument("--tau-end", type=_positive_time, required=True)
            sp.add_argument("--points", type=_points, default=points)
        return sp

    add("xi", cmd_xi, points=201, help="decay profile xi and its tau-derivative on a grid")

    sp = add("solve", cmd_solve, points=201, help="evolve one state (closed form or integrator)")
    sp.add_argument("--state", type=_state, default="1,0,0", help="initial state as 'pe,re,im'")
    sp.add_argument(
        "--method", choices=("closed", "ode", "quadrature", "tcl"), default="closed"
    )
    sp.add_argument("--tol", type=_tol, default=1e-10)
    sp.add_argument("--steps", type=_steps, default=2000, help="quadrature steps")

    for name, func, summary in (
        ("trace-distance", cmd_trace_distance, "distance of an evolving pair"),
        ("sigma", cmd_sigma, "trace-distance rate of change for a pair"),
    ):
        sp = add(name, func, points=201, help=summary)
        sp.add_argument("--state1", type=_state, default="1,0,0")
        sp.add_argument("--state2", type=_state, default="0,0,0")

    sp = add("measure", cmd_measure, help="non-Markovianity measure of the best state pair")
    sp.add_argument("--tau-end", type=_positive_time, default=None)
    sp.add_argument(
        "--budget", type=_budget, default=1000, help="accepted (>= 100); changes no output"
    )
    sp.add_argument("--seed", type=int, help="accepted; changes no output")

    add("tcl-rates", cmd_tcl_rates, points=201, help="time-local decay rates on a grid")

    sp = add("choi", cmd_choi, help="Choi matrix of the map at tau (or tau-start->tau)")
    sp.add_argument("--tau", type=_time, required=True)
    sp.add_argument("--tau-start", type=_time, default=0.0)

    sp = add("divisibility", cmd_divisibility, help="two-time intermediate-map CP scan")
    sp.add_argument("--tau-end", type=_positive_time, default=20.0)
    sp.add_argument("--grid", type=_grid_size, default=200)

    sp = add("positivity", cmd_positivity, help="Bloch-ball contraction check on a grid")
    sp.add_argument("--tau-end", type=_positive_time, default=20.0)
    sp.add_argument("--points", type=_points, default=201)
    sp.add_argument("--samples", type=_samples, default=1000)

    sp = add("oracle", cmd_oracle, points=101, help="closed form vs both integration routes")
    sp.add_argument("--state", type=_state, default="1,0,0")
    sp.add_argument("--tol", type=_tol, default=1e-6)
    sp.add_argument("--steps", type=_steps, default=2000)

    sp = add("sweep", cmd_sweep, params=False, help="parameter sweep driven by a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", default=None)
    sp.add_argument(
        "--workers", type=_workers, default=4,
        help="accepted (>= 1); points run one after another, so it changes no output",
    )

    sp = add("classify", cmd_classify, help="regime verdict for one parameter point")
    sp.add_argument(
        "--budget", type=_budget, default=400, help="accepted (>= 100); changes no output"
    )
    sp.add_argument("--seed", type=int, help="accepted; changes no output")

    # every command but sweep writes one table; its flags come last in --help
    for name, sp in sub.choices.items():
        if name != "sweep":
            sp.add_argument(
                "--format", type=_format, default="csv", metavar="{%s}" % ",".join(FORMATS)
            )
            sp.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


#: the prefix of main's one stderr line for a library failure in any command;
#: a MapInversionError or a MemoryError has none
_FAILURE_PREFIX = {
    IntegrationDivergenceError: "integrator diverged: ",
    SingularRateError: "time-local rates unusable: ",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_sweep:  # its tables go to files, none to stdout
            return cmd_sweep(args)
        if args.out is not None:
            _probe_out(args.out)
        headers, rows = args.func(args, *_params(args))
        _emit(headers, rows, args.format, args.out)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return 0
    except UsageError as exc:
        parser.error(str(exc))
    except (IntegrationDivergenceError, SingularRateError, MapInversionError, MemoryError) as exc:
        # one line: numpy's MemoryError message names the allocation
        _diag(_FAILURE_PREFIX.get(type(exc), "") + (str(exc) or "out of memory"))
        return 1
    except BrokenPipeError:  # stdout's reader left early (| head): signal's "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet exit flush
        return 1


if __name__ == "__main__":
    sys.exit(main())
