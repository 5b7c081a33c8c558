#!/usr/bin/env python3
"""spinflow benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-acceptance --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

A run is a closed loop with one client: passes run one after another, each
in a fresh child interpreter (child.py), until the next pass would end after
``--seconds``; at least two passes always run.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json as medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: counts from the first traced pass, times as medians over
the traced passes, and ``trace.overhead_s``, the traced minus the untraced
median wall time.  ``--workload all`` runs every workload both ways.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric's median, 90th percentile and sample count, the error rate,
and the run's metadata.  The full result, and the spans and counters of the
first traced pass, are written under ``.perfbench/`` in the repository root.
A run that cannot measure (no ``src/spinflow`` next to it, a child that
crashes or hangs) exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402  (standard library only at import time)

OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120
MIN_PASSES = 2
#: set-up is timed in every pass child; runs with fewer passes add
#: set-up-only children until there are this many samples
MIN_SETUP_SAMPLES = 5
#: end-to-end metrics measured once per pass; setup_s has its own samples
PASS_SAMPLES = ("wall_s", "cpu_s", "peak_rss_mb")
COUNT_UNITS = ("count", "bytes")


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn(args: list[str], scratch: Path) -> dict:
    """Run child.py to completion and return its result with ``setup_s``."""
    result_path = scratch / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--result", str(result_path), *args]
    started = time.monotonic()
    try:
        # run() kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child did not finish in {CHILD_TIMEOUT_S} s: {cmd}") from exc
    ended = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_s"] = result["ready"] - started
    result["pass_s"] = ended - started
    return result


def quantiles(values: list[float]) -> dict:
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]
    return {"median": statistics.median(values), "p90": p90, "n": len(values)}


def measure_passes(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Run passes until the next one would end after ``seconds``."""
    modes = (0, 1) if trace else (0,)
    spawn(["--setup-only"], scratch)  # fills bytecode and file caches; not a sample
    passes: dict[int, list[dict]] = {0: [], 1: []}
    started = time.monotonic()
    count = 0
    while True:
        mode = modes[count % len(modes)]
        work = Path(tempfile.mkdtemp(dir=scratch))
        try:
            passes[mode].append(spawn(
                ["--workload", name, "--seed", str(seed), "--trace", str(mode), "--work", str(work)],
                scratch,
            ))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        count += 1
        upcoming = passes[modes[count % len(modes)]]
        if count >= MIN_PASSES and upcoming:
            estimate = statistics.median(p["pass_s"] for p in upcoming)
            if time.monotonic() - started + estimate > seconds:
                break
    setups = [p["setup_s"] for p in passes[0] + passes[1]]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(["--setup-only"], scratch)["setup_s"])
    return {"untraced": passes[0], "traced": passes[1], "setup_s": setups}


def end_to_end(spec: dict, runs: dict) -> tuple[dict, dict]:
    samples = {key: [p[key] for p in runs["untraced"]] for key in PASS_SAMPLES}
    samples["setup_s"] = runs["setup_s"]
    summary = {key: quantiles(values) for key, values in samples.items()}
    metrics = {}
    for metric in spec["end_to_end"]:
        if metric["name"] not in summary:
            raise HarnessError(f"no samples for end-to-end metric {metric['name']}")
        metrics[metric["name"]] = summary[metric["name"]]["median"]
    return metrics, summary


def per_layer(spec: dict, runs: dict) -> tuple[dict, dict]:
    traced = [p["trace"]["metrics"] for p in runs["traced"]]
    walls = {mode: statistics.median(p["wall_s"] for p in runs[mode]) for mode in ("untraced", "traced")}
    metrics, summary = {}, {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            metrics[name] = walls["traced"] - walls["untraced"]
            continue
        if name not in traced[0]:
            raise HarnessError(f"the tracer does not produce per-layer metric {name}")
        values = [m[name] for m in traced]
        if metric["unit"] in COUNT_UNITS:
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
            summary[name] = quantiles(values)
    return metrics, summary


def tally(passes: list[dict]) -> tuple[int, list[str]]:
    """Operations attempted over the passes, and one line per failed one."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), [f"{op['op']}: {op['error']}" for op in ops if op["error"] is not None]


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        runs = measure_passes(name, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics, summary = per_layer(spec, runs)
    else:
        metrics, summary = end_to_end(spec, runs)
    every = runs["untraced"] + runs["traced"]
    attempted, failures = tally(every)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metadata = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "passes": {"untraced": len(runs["untraced"]), "traced": len(runs["traced"])},
        "setup_samples": len(runs["setup_s"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **every[0]["versions"],
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {metadata['passes']}")
    for key, stats in summary.items():
        print(f"  {key:34s} median {stats['median']:.6g} {units[key]}  "
              f"p90 {stats['p90']:.6g}  n {stats['n']}")
    for key, value in metrics.items():
        if key not in summary:
            print(f"  {key:34s} {value:.6g} {units[key]}")
    print(f"  {'error_rate':34s} {len(failures) / attempted:.6g}  "
          f"({len(failures)} of {attempted} operations failed)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print("metadata " + json.dumps(metadata, sort_keys=True))

    (OUT_DIR / "results").mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = dict(result, summary=summary, metadata=metadata, failures=failures)
    (OUT_DIR / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT_DIR / "results" / f"{stem}-spans.json").write_text(json.dumps(runs["traced"][0]["trace"]))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spinflow" / "cli.py").is_file():
        print(f"no spinflow sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    jobs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        jobs = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
    try:
        for name, trace in jobs:
            result = run_one(spec, name, args.seed, seconds, trace)
            print(json.dumps(result), flush=True)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
