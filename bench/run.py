"""kernrec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fine1d, long1d, grid2d, sweep1d (see workloads.py) or ``all``.
Each workload runs in this process through ``kernrec.harness.run_cli``,
imported from the checkout's ``src/``, with BLAS pinned to one thread.

--trace 0 reports the end-to-end metrics with tracing off: the median
wall time of repeated runs that together last at least S seconds, the
median set-up time of fresh interpreters, throughput, peak memory, the
kernel error and the measurement-identity residual, and the share of
runs that passed the correctness gate.

--trace 1 repeats the untraced runs, then makes one run with spans
recorded around calls into every module, and reports the per-layer
metrics; the spans are written to bench/out/ when the run ends.

Every run's outputs pass a correctness gate (workloads.gate).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of each invocation, stamped
with its environment, is written to bench/out/BENCH_*.json.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    # must happen before numpy is imported, here and in child processes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, leftover_wrappers, span_stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_REPS = 3  # timed runs per invocation, however long each takes
SETUP_REPS = 11  # fresh interpreters timed for setup_s
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "node_steps_per_s": "1/s",
    "peak_mib": "MiB",
    "kernel_err_inf": "abs",
    "identity_resid_max": "rel",
    "runs_ok_frac": "frac",
}


# -- per-layer tracing -------------------------------------------------


def _conv_flops(args, kwargs, result):
    # _convolution_values(kernel_values, state_values, i, tau): i terms of N nodes
    return "conv_flops", 2 * args[2] * args[1][0].size


def _emitted_bytes(args, kwargs, result):
    return "emit_bytes", os.path.getsize(args[1])


# Spans: one per call of each traced callable, named after it without
# the "kernrec." prefix; a span's layer is its module.
RUN_CLI = "harness.run_cli"
RESOLVE = "harness.resolve_config"
ACQUIRE = "harness.acquire_measurement"
EMIT = ("harness.emit_csv", "harness.emit_json")
FLOOR = "problem.validate_floor"
MEASUREMENT = (
    "problem.MeasurementSeries.from_expressions",
    "problem.MeasurementSeries.restrict",
    "problem.MeasurementSeries.with_noise",
)
RECONSTRUCT = "inverse.reconstruct"
RUN_FORWARD = "forward.run_forward"
STEP = "forward.TimeStepper.step"
F_FIELD = "forward.TimeStepper.f_field"
COMPAT = "forward.TimeStepper.compat_residual"
CONV = "forward._convolution_values"
MATVEC = "grid.stiffness_matvec"
THOMAS = "solver.solve_tridiagonal"
CG = "solver.solve_cg"
CG_APPLY = "solver.SpdOperator.apply"
EVALUATE = "expr.evaluate"
LAYERS = ("harness", "problem", "inverse", "forward", "grid", "solver", "expr")

SAMPLERS = {CONV: _conv_flops, EMIT[0]: _emitted_bytes, EMIT[1]: _emitted_bytes}
TRACED = (RUN_CLI, RESOLVE, ACQUIRE, *EMIT, FLOOR, *MEASUREMENT, RECONSTRUCT, RUN_FORWARD,
          STEP, F_FIELD, COMPAT, CONV, MATVEC, THOMAS, CG, CG_APPLY, EVALUATE)


class TraceView:
    """Queries over one traced run's spans.

    Every query records the span names it read in ``touched``, so a
    metric that read a span whose target is gone can be marked absent.
    """

    def __init__(self, tracer: Tracer, traced_wall: float, untraced_wall: float):
        self.stats = span_stats(tracer.spans)
        self.samples = tracer.samples
        self.traced_wall = traced_wall
        self.untraced_wall = untraced_wall
        self.touched: set[str] = set()
        names = {sid: name for sid, _, name, _, _ in tracer.spans}
        self.by_parent: dict[tuple, list] = {}
        for _sid, parent, name, start, end in tracer.spans:
            self.by_parent.setdefault((names.get(parent), name), []).append((parent, start, end))

    def calls(self, name: str) -> int:
        self.touched.add(name)
        return self.stats[name]["calls"] if name in self.stats else 0

    def total(self, *names: str) -> float:
        self.touched.update(names)
        return sum(self.stats[n]["total_s"] for n in names if n in self.stats)

    def self_s(self, name: str) -> float:
        self.touched.add(name)
        return self.stats[name]["self_s"] if name in self.stats else 0.0

    def sampled(self, key: str, *names: str) -> float:
        self.touched.update(names)
        return sum(self.samples[key])

    def under(self, parent: str, name: str) -> list:
        self.touched.update((parent, name))
        return self.by_parent.get((parent, name), [])

    def layer_self(self, layer: str) -> float:
        return sum(s["self_s"] for n, s in self.stats.items() if n.split(".")[0] == layer)

    @staticmethod
    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    def step_ms(self, pct: int) -> float:
        """Percentile of the reconstruct loop's per-iteration time, in ms.

        An iteration runs from the start of one elliptic step to the start
        of the next called from the same reconstruction, so it covers the
        kernel update, the solve, the identity residual and diagnostics.
        """
        starts: dict[int, list[int]] = {}
        for parent, start, _ in self.under(RECONSTRUCT, STEP):
            starts.setdefault(parent, []).append(start)
        values = []
        for seq in starts.values():
            seq.sort()
            values += [(b - a) * 1e-6 for a, b in zip(seq, seq[1:])]
        if len(values) < 2:
            return 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]

    def matvec(self, parent: str) -> tuple[int, float]:
        spans = self.under(parent, MATVEC)
        return len(spans), sum(end - start for _, start, end in spans) * 1e-9


def _split(layer):
    return lambda v: v.layer_self(layer)


# (name, unit, value from a TraceView)
PER_LAYER = (
    ("solver.thomas_calls", "count", lambda v: v.calls(THOMAS)),
    ("solver.thomas_s", "s", lambda v: v.total(THOMAS)),
    ("solver.cg_calls", "count", lambda v: v.calls(CG)),
    ("solver.cg_iters", "count", lambda v: v.calls(CG_APPLY)),
    ("solver.cg_iters_per_solve", "iters/solve", lambda v: v.per(v.calls(CG_APPLY), v.calls(CG))),
    ("solver.cg_s", "s", lambda v: v.total(CG)),
    ("expr.evaluate_calls", "count", lambda v: v.calls(EVALUATE)),
    ("expr.evaluate_s", "s", lambda v: v.total(EVALUATE)),
    ("expr.evaluate_per_step", "calls/step", lambda v: v.per(v.calls(EVALUATE), v.calls(STEP))),
    ("forward.step_calls", "count", lambda v: v.calls(STEP)),
    ("forward.step_self_s", "s", lambda v: v.self_s(STEP)),
    ("forward.compat_residual_s", "s", lambda v: v.total(COMPAT)),
    ("forward.f_field_calls", "count", lambda v: v.calls(F_FIELD)),
    ("forward.f_field_per_step", "calls/step", lambda v: v.per(v.calls(F_FIELD), v.calls(STEP))),
    ("forward.conv_calls", "count", lambda v: v.calls(CONV)),
    ("forward.conv_s", "s", lambda v: v.total(CONV)),
    ("forward.conv_flops", "flop", lambda v: v.sampled("conv_flops", CONV)),
    ("forward.run_forward_s", "s", lambda v: v.total(RUN_FORWARD)),
    ("grid.stiffness_matvec_cg_calls", "count", lambda v: v.matvec(CG_APPLY)[0]),
    ("grid.stiffness_matvec_cg_s", "s", lambda v: v.matvec(CG_APPLY)[1]),
    ("grid.stiffness_matvec_diag_calls", "count", lambda v: v.matvec(RECONSTRUCT)[0]),
    ("grid.stiffness_matvec_diag_s", "s", lambda v: v.matvec(RECONSTRUCT)[1]),
    ("inverse.reconstruct_calls", "count", lambda v: v.calls(RECONSTRUCT)),
    ("inverse.reconstruct_self_s", "s", lambda v: v.self_s(RECONSTRUCT)),
    ("inverse.step_ms_p50", "ms", lambda v: v.step_ms(50)),
    ("inverse.step_ms_p99", "ms", lambda v: v.step_ms(99)),
    ("problem.validate_floor_s", "s", lambda v: v.total(FLOOR)),
    ("problem.measurement_s", "s", lambda v: v.total(*MEASUREMENT)),
    ("harness.resolve_config_s", "s", lambda v: v.total(RESOLVE)),
    ("harness.acquire_measurement_s", "s", lambda v: v.total(ACQUIRE)),
    ("harness.emit_s", "s", lambda v: v.total(*EMIT)),
    ("harness.emit_bytes", "B", lambda v: v.sampled("emit_bytes", *EMIT)),
    *((f"split.{layer}_self_s", "s", _split(layer)) for layer in LAYERS),
    ("trace.wall_s", "s", lambda v: v.traced_wall),
    ("trace.accounted_frac", "frac",
     lambda v: v.per(sum(v.layer_self(x) for x in LAYERS), v.traced_wall)),
    ("trace.overhead_s", "s", lambda v: v.traced_wall - v.untraced_wall),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float):
    """Metric values from one traced run, and the metrics marked absent.

    An absent metric read a span whose target no longer exists in
    kernrec; its value is reported as 0.
    """
    view = TraceView(tracer, traced_wall, untraced_wall)
    gone = {target[len("kernrec."):] for target in tracer.absent}
    values, absent = {}, []
    for name, _unit, value in PER_LAYER:
        view.touched = set()
        values[name] = value(view)
        if view.touched & gone:
            values[name] = 0
            absent.append(name)
    return values, absent


# -- one workload -------------------------------------------------------


class Runner:
    """Runs one workload repeatedly and gates every run's outputs."""

    def __init__(self, harness, workload: wl.Workload, seed: int, small: bool):
        self.harness = harness
        self.workload = workload
        self.small = small
        self.out_dir = OUT / "run"
        wl.write_inputs(self.out_dir)
        self.argv = workload.argv(seed, self.out_dir, small)
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel_err: float | None = None

    def check(self, rc: int) -> bool:
        self.attempted += 1
        try:
            self.kernel_err = wl.gate(self.workload, rc, self.out_dir, self.small)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            self.failures.append(f"run {self.attempted}: {exc}")
            return False
        return True

    def clear_outputs(self) -> None:
        """Remove the last run's files, so the gate only sees fresh ones."""
        self.workload.csv_path(self.out_dir).unlink(missing_ok=True)
        self.workload.json_path(self.out_dir).unlink(missing_ok=True)

    def run_once(self) -> tuple[float, bool]:
        self.clear_outputs()
        start = time.perf_counter()
        rc = self.harness.run_cli(self.argv)
        wall = time.perf_counter() - start
        return wall, self.check(rc)

    def timed(self, seconds: float) -> list[float]:
        """Untraced runs until `seconds` have passed; walls of the passing ones."""
        stale = leftover_wrappers()
        if stale:
            raise RuntimeError(f"wrappers still bound before a timed pass: {stale}")
        walls, spent, reps = [], 0.0, 0
        while spent < seconds or reps < MIN_REPS:
            wall, ok = self.run_once()
            spent += wall
            reps += 1
            if ok:
                walls.append(wall)
        return walls

    def child(self, full: bool) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(int(full)), *self.argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def traced(self) -> tuple[Tracer, float, bool]:
        tracer = Tracer()
        try:
            for name in TRACED:
                tracer.install(name, "kernrec." + name, SAMPLERS.get(name))
            wall, ok = self.run_once()
        finally:
            tracer.remove()
        stale = leftover_wrappers()
        if stale:
            raise RuntimeError(f"wrappers left bound after the traced run: {stale}")
        return tracer, wall, ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(runner: Runner, seconds: float) -> dict:
    runner.clear_outputs()
    full = runner.child(full=True)
    runner.check(full["rc"])
    setups = [runner.child(full=False)["setup_s"] for _ in range(SETUP_REPS)]
    walls = runner.timed(seconds)
    wall = _median(walls)
    node_steps = runner.workload.node_steps(runner.small)
    return {
        "metrics": {
            "wall_s": wall,
            "setup_s": _median(setups),
            "node_steps_per_s": node_steps / wall if wall else None,
            "peak_mib": full["peak_mib"],
            "kernel_err_inf": runner.kernel_err,
            "identity_resid_max": full["identity_resid_max"],
            "runs_ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        },
        "units": END_TO_END_UNITS,
        "walls_s": walls,
        "setups_s": setups,
        "identity_ceiling": wl.IDENTITY_CEILING,
    }


def traced_layers(runner: Runner, seconds: float, spans_path: Path) -> dict:
    walls = runner.timed(seconds)
    tracer, traced_wall, _ = runner.traced()
    values, absent = per_layer_metrics(tracer, traced_wall, _median(walls) or 0.0)
    tracer.write(str(spans_path))
    return {"metrics": values, "units": PER_LAYER_UNITS, "absent": absent, "walls_s": walls}


# -- reporting ----------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def print_table(name: str, record: dict) -> None:
    for metric, value in record["metrics"].items():
        unit = record["units"][metric]
        note = ""
        if metric in record.get("absent", ()):
            note = "  ABSENT: its trace target no longer exists"
        if metric == "identity_resid_max" and value is not None:
            verdict = "ABOVE" if value > wl.IDENTITY_CEILING else "within"
            note = f"  ceiling {wl.IDENTITY_CEILING:g}: {verdict}"
            if value > wl.IDENTITY_CEILING:
                note += " (known defect, reported and not gated)"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<8} {metric:<34} {shown:>14} {unit}{note}")
    for failure in record["failures"]:
        print(f"{name:<8} FAILED {failure}")


def run_workload(harness, name: str, seed: int, seconds: float, trace: int, small=False) -> dict:
    """Run one workload; returns the record written to its BENCH file."""
    runner = Runner(harness, wl.WORKLOADS[name], seed, small)
    if trace:
        record = traced_layers(runner, seconds, OUT / f"spans_{name}.json")
    else:
        record = end_to_end(runner, seconds)
    record.update(
        workload=name,
        trace=trace,
        small=small,
        env=environment(seed),
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        correct=runner.failed == 0 and None not in record["metrics"].values(),
    )
    path = OUT / f"BENCH_{name}_seed{seed}_trace{trace}{'_small' if small else ''}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def import_harness():
    """kernrec.harness from this checkout's src/; exits non-zero when it is missing."""
    if not (SRC / "kernrec" / "__init__.py").is_file():
        sys.exit(f"bench: no kernrec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from kernrec import harness

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported kernrec from {harness.__file__}, not from {SRC}")
    return harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness = import_harness()
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: run_workload(harness, n, args.seed, args.seconds, args.trace) for n in names}
    print("env", json.dumps(environment(args.seed), sort_keys=True))
    for name, record in records.items():
        print_table(name, record)

    # with several workloads, each metric name is prefixed by its workload
    metrics = {
        (m if len(records) == 1 else f"{n}/{m}"): {"value": v, "unit": r["units"][m]}
        for n, r in records.items()
        for m, v in r["metrics"].items()
    }
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
