"""Self-test of the benchmark at shrunken sizes.

    python3 bench/selftest.py

Runs every workload at its small size with tracing off and on and
checks that each run passes its correctness gate, that every metric
BENCHMARK.json names is emitted with its unit, that the traced run saw
calls made through names that forward, inverse and harness imported
(so those names were rebound), that no wrapper stays bound in kernrec
afterwards, that the gate rejects a failed run, and that a trace target
which does not exist is reported as absent instead of raising.  Exits 0 when every check holds.
"""

import json
import sys
from dataclasses import replace

import run
from tracer import Tracer, leftover_wrappers

# metric -> workloads on which the traced run must count some of it.
# Each is only seen if the name in the module in the comment was rebound.
MUST_BE_SEEN = {
    "solver.thomas_calls": ("fine1d", "long1d", "sweep1d"),  # forward
    "solver.cg_iters": ("grid2d",),  # solver (class attribute)
    "grid.stiffness_matvec_cg_calls": ("grid2d",),  # forward
    "grid.stiffness_matvec_diag_calls": ("fine1d", "long1d", "grid2d", "sweep1d"),  # inverse
    "problem.validate_floor_s": ("fine1d", "long1d", "grid2d", "sweep1d"),  # inverse
    "forward.run_forward_s": ("sweep1d",),  # harness
    "inverse.reconstruct_calls": ("fine1d", "long1d", "grid2d", "sweep1d"),  # harness
    "forward.conv_flops": ("fine1d", "long1d", "grid2d", "sweep1d"),
    "harness.emit_bytes": ("fine1d", "long1d", "grid2d", "sweep1d"),
}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    harness = run.import_harness()
    run.OUT.mkdir(parents=True, exist_ok=True)
    for name in run.wl.WORKLOADS:
        for trace in (0, 1):
            record = run.run_workload(harness, name, seed=1, seconds=0.2, trace=trace, small=True)
            where = f"{name} trace={trace}"
            if not record["correct"]:
                problems.append(f"{where}: not correct: {record['failures']}")
            emitted = record["units"]
            if set(record["metrics"]) != set(declared[trace]):
                problems.append(f"{where}: metrics {sorted(record['metrics'])} != BENCHMARK.json")
            for metric, unit in declared[trace].items():
                if emitted.get(metric) != unit:
                    problems.append(f"{where}: {metric} unit {emitted.get(metric)!r} != {unit!r}")
                if not isinstance(record["metrics"].get(metric), (int, float)):
                    problems.append(f"{where}: {metric} has no numeric value")
            if trace:
                if record["absent"]:
                    problems.append(f"{where}: absent at this commit: {record['absent']}")
                for metric, names in MUST_BE_SEEN.items():
                    if name in names and not record["metrics"][metric] > 0:
                        problems.append(f"{where}: {metric} is {record['metrics'][metric]}")
            stale = leftover_wrappers()
            if stale:
                problems.append(f"{where}: wrappers still bound: {stale}")

    # the gate must reject a failed exit code and an error above tolerance
    fine = run.wl.WORKLOADS["fine1d"]
    strict = replace(fine, small=replace(fine.small, tol=1e-12))
    for workload, rc in ((fine, 2), (strict, 0)):
        try:
            run.wl.gate(workload, rc, run.OUT / "run", small=True)
            problems.append(f"gate passed rc={rc} tol={workload.small.tol:g}")
        except ValueError:
            pass

    tracer = Tracer()
    try:
        tracer.install("forward.no_such_step", "kernrec.forward.no_such_step")
        tracer.install("no_such_module.f", "kernrec.no_such_module.f")
    finally:
        tracer.remove()
    if tracer.absent != ["kernrec.forward.no_such_step", "kernrec.no_such_module.f"]:
        problems.append(f"missing targets not recorded as absent: {tracer.absent}")

    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
