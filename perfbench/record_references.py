"""Record the reference outputs that the workload checks compare against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_references.py

It writes ``perfbench/references/``: the sweep's CSV files, the measure rows,
and the sha256 of every grid-export file for each of the STATE_POOL state
pairs.  Re-recording changes what the benchmark accepts as correct, so it is
a change to the benchmark and is stated as one.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def run(plan) -> None:
    for op, res in zip(plan.ops, workloads.run_calls(plan.calls)):
        failed = workloads.call_error(res)
        if failed is not None:
            raise SystemExit(f"{op}: {failed}")


def main() -> int:
    seed = workloads.DEFAULT_SEED
    refs = {"measure-oscillatory": {}, "grid-export": {}}
    scratch = workloads.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    sweep_refs = workloads.REFERENCES / "sweep"
    sweep_refs.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        run(workloads.sweep_acceptance(seed, work))
        for analysis in workloads.SWEEP_CONFIG["analyses"]:
            shutil.copyfile(work / "sweep-out" / f"{analysis}.csv", sweep_refs / f"{analysis}.csv")

        run(workloads.measure_oscillatory(seed, work))
        for r in workloads.MEASURE_RS:
            refs["measure-oscillatory"][r] = workloads.read_csv(work / f"measure-r{r}.csv")[1]

        for index in range(workloads.STATE_POOL):
            plan = workloads.grid_export(index, work)
            run(plan)
            refs["grid-export"][str(index)] = {op: workloads.sha256(work / op) for op in plan.ops}
    (workloads.REFERENCES / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    print(f"references written to {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
