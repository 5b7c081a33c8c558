"""One benchmark pass in a fresh interpreter; started by run.py.

Set-up (interpreter start, ``import spinflow.cli``, ``build_parser()``) runs
first, before anything of the benchmark's own is imported, and ends at the
``time.monotonic()`` reading the parent subtracts from its spawn time.  The
pass then runs the workload's CLI calls in this process, times the window
from the first call to the last return, checks the outputs and writes one
JSON result to ``--result``.  With ``--setup-only`` it stops after set-up.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spinflow.cli  # noqa: E402

spinflow.cli.build_parser()
READY = time.monotonic()


def main() -> int:
    import argparse
    import json
    import resource

    import numpy
    import scipy

    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work")
    args = ap.parse_args()

    source = Path(spinflow.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"spinflow imported from {source}, not from this checkout", file=sys.stderr)
        return 1
    result = {
        "ready": READY,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        work = Path(args.work)
        plan = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install(tracing.spinflow_targets())
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        results = workloads.run_calls(plan.calls)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
        try:
            errors = plan.check(results)
        except Exception as exc:  # output too corrupt to parse fails every operation
            errors = [f"check failed: {exc!r}"] * len(plan.ops)
        result.update(
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
            ops=[{"op": op, "error": err} for op, err in zip(plan.ops, errors)],
        )
        if tracer is not None:
            result["trace"] = {"metrics": tracer.metrics(), "spans": tracer.spans}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
