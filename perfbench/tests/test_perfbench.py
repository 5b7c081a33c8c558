"""Tests of the benchmark itself: tracer arithmetic, checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import run
import tracer
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def synthetic_tree(span_cap=tracer.SPAN_CAP):
    """cli.main(5 s own) -> analysis.mid(2 s own) -> maps.leaf(2 s), maps.leaf(3 s);
    cli.main -> maps.leaf(1 s)."""
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock, span_cap=span_cap)
    ns = {}

    def leaf(d):
        clock.t += d

    def mid():
        clock.t += 1
        ns["leaf"](2)
        clock.t += 1
        ns["leaf"](3)

    def top():
        clock.t += 5
        ns["mid"]()
        ns["leaf"](1)

    ns.update(
        leaf=tr.wrap("maps.leaf", leaf),
        mid=tr.wrap("analysis.mid", mid),
        top=tr.wrap("cli.main", top),
    )
    ns["top"]()
    return tr


def test_self_time_of_synthetic_span_tree():
    m = synthetic_tree().metrics()
    assert (m["cli.main.calls"], m["analysis.mid.calls"], m["maps.leaf.calls"]) == (1, 1, 3)
    assert (m["cli.main.s"], m["analysis.mid.s"], m["maps.leaf.s"]) == (13, 7, 6)
    assert (m["cli.self_s"], m["analysis.self_s"], m["maps.self_s"]) == (5, 2, 6)
    # self times partition the root span
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == m["cli.main.s"]


def test_spans_record_parents_and_stop_at_the_cap():
    spans = synthetic_tree().spans
    by_id = {sid: (name, start, end, parent) for sid, name, start, end, parent in spans}
    assert [(name, start, end) for name, start, end, _ in by_id.values()] == [
        ("cli.main", 0, 13), ("analysis.mid", 5, 12), ("maps.leaf", 6, 8),
        ("maps.leaf", 9, 12), ("maps.leaf", 12, 13),
    ]
    assert [by_id[sid][3] for sid in sorted(by_id)] == [None, 0, 1, 1, 0]

    capped = synthetic_tree(span_cap=1)
    assert [name for _, name, *_ in capped.spans] == ["cli.main", "analysis.mid", "maps.leaf"]
    assert capped.metrics()["maps.leaf.calls"] == 3


def test_calls_on_a_worker_thread_are_children_of_the_root():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap("maps.leaf", lambda: setattr(clock, "t", clock.t + 4))

    def top():
        clock.t += 1
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tr.wrap("cli.main", top)()
    m = tr.metrics()
    assert (m["cli.main.s"], m["cli.self_s"], m["maps.self_s"]) == (5, 1, 4)


def test_install_patches_callers_and_uninstall_restores(tmp_path):
    import spinflow.analysis
    import spinflow.cli
    import spinflow.maps

    original = spinflow.maps.xi
    tr = tracer.Tracer()
    tr.install(tracer.spinflow_targets())
    try:
        assert spinflow.analysis.xi is spinflow.maps.xi is spinflow.cli.xi
        assert spinflow.maps.xi is not original
        out = tmp_path / "xi.csv"
        [res] = workloads.run_calls(
            [["xi", "--kind", "mem", "--r", "0.2", "--tau-end", "1", "--points", "11",
              "--out", str(out)]]
        )
    finally:
        tr.uninstall()
    assert res.rc == 0
    assert spinflow.maps.xi is original and spinflow.cli.xi is original
    m = tr.metrics()
    assert m["cli.main.calls"] == 1
    assert (m["maps.xi.calls"], m["maps.xi.points"]) == (1, 11)
    assert (m["cli.emit.rows"], m["cli.emit.bytes"]) == (11, out.stat().st_size)


def test_metric_names_are_valid_unique_and_produced():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    untraced = [{"wall_s": 1.0 + k, "cpu_s": 1.0, "peak_rss_mb": 90.0, "ops": []} for k in range(3)]
    metrics, _ = run.end_to_end(SPEC, {"untraced": untraced, "setup_s": [0.5] * 5})
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}

    tr = tracer.Tracer()
    tr.install(tracer.spinflow_targets())
    tr.uninstall()
    traced = [{"wall_s": 2.0, "trace": {"metrics": tr.metrics()}, "ops": []}]
    metrics, _ = run.per_layer(SPEC, {"untraced": untraced, "traced": traced})
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_s"] == 0.0


def _error_rate(plan, results):
    passes = [{"ops": [{"op": op, "error": err} for op, err in zip(plan.ops, plan.check(results))]}]
    attempted, failures = run.tally(passes)
    return len(failures) / attempted


def _ok(argv, stderr=""):
    return workloads.CallResult(argv, 0, "", stderr, None)


def test_corrupted_output_or_nonzero_exit_raises_error_rate(tmp_path):
    plan = workloads.measure_oscillatory(workloads.DEFAULT_SEED, tmp_path)
    refs = workloads.load_references()["measure-oscillatory"]
    header = "value,evaluations,method,tau_end,classification,first_x,first_y,first_z,second_x,second_y,second_z"
    for r, argv in zip(workloads.MEASURE_RS, plan.calls):
        Path(argv[-1]).write_text(header + "\n" + ",".join(refs[r][0]) + "\n")
    results = [_ok(argv) for argv in plan.calls]
    assert _error_rate(plan, results) == 0.0

    results[0] = workloads.CallResult(plan.calls[0], 2, "", "usage error", None)
    assert _error_rate(plan, results) == 0.5

    results[0] = _ok(plan.calls[0])
    out = Path(plan.calls[1][-1])
    out.write_text(out.read_text().replace("0.94702789", "0.94702788"))
    assert _error_rate(plan, results) == 0.5


def test_grid_export_and_oracle_checks_catch_failures(tmp_path):
    plan = workloads.grid_export(5, tmp_path)
    for argv in plan.calls:
        Path(argv[-1]).write_text("not the reference\n")
    assert _error_rate(plan, [_ok(argv) for argv in plan.calls]) == 1.0

    plan = workloads.oracle_integrators(5, tmp_path)
    results = [_ok(argv, "max|delta| = 1e-3 > 1e-06: FAIL\n") for argv in plan.calls]
    # FAIL lines fail the oracle calls; the solves find no oracle output to compare with
    assert _error_rate(plan, results) == 1.0


def test_sweep_failure_entry_fails_that_point(tmp_path):
    plan = workloads.sweep_acceptance(workloads.DEFAULT_SEED, tmp_path)
    out = tmp_path / "sweep-out"
    out.mkdir()
    for analysis in workloads.SWEEP_CONFIG["analyses"]:
        shutil.copyfile(workloads.REFERENCES / "sweep" / f"{analysis}.csv", out / f"{analysis}.csv")
    points = [
        {"index": i, "kind": k, "r": r, "n": n, "classification": workloads.SWEEP_VERDICT[k],
         "measure_value": 0.0}
        for i, (k, r, n) in enumerate(workloads.SWEEP_POINTS)
    ]
    record = {"tool": "spinflow", "version": "0", "config": {}, "points": points,
              "failures": [], "wall_time_s": 1.0}
    (out / "run_record.json").write_text(json.dumps(record))
    assert plan.check([_ok(plan.calls[0])]) == [None] * len(points)

    pinned = workloads.SWEEP_POINTS.index(workloads.PINNED)
    points[pinned]["classification"] = workloads.DIVISIBLE
    record["failures"] = [{"index": 3, "error": "ValueError: boom"}]
    (out / "run_record.json").write_text(json.dumps(record))
    errors = plan.check([_ok(plan.calls[0])])
    assert errors[pinned].startswith("pinned point")
    assert errors[3].startswith("sweep failure")
    assert _error_rate(plan, [_ok(plan.calls[0])]) == 0.5


def test_inputs_depend_only_on_the_seed(tmp_path):
    for make in workloads.WORKLOADS.values():
        a, b = make(7, tmp_path), make(7, tmp_path)
        assert a.calls == b.calls and a.ops == b.ops
    assert workloads.oracle_integrators(7, tmp_path).calls != workloads.oracle_integrators(8, tmp_path).calls
    assert workloads.export_states(1) != workloads.export_states(2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copyfile(workloads.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
