"""Check that two source trees give the same CLI outputs.

    python tools/compare_outputs.py BASE_DIR [HEAD_DIR]

Runs a fixed set of ``kernrec`` commands (reconstruct, roundtrip,
convergence, forward and noise-sweep on the presets, on the
benchmark's 2D config and on 1D and 2D configs whose h and g depend on
t, with an f that reads the state or one of t, x and y alone) with each
tree's ``src/`` on ``PYTHONPATH``.  One command sets its options
through ``[discretization]`` and ``[experiment]`` keys instead of flags.
Some runs are sized so that the stepper's blocks of time nodes come out
several to a run with a partial last one, or one node wide.  Four
commands fail by design (a fault of f met by a traced reconstruction,
a floor violation, a fault of g at t = 0 met by the discrete m'(0), a
``--json`` path in a missing directory); another pins that an analytic
forward run never evaluates g at t = 0.
Others reconstruct the contaminant with advection (f reads the gradient
p), read manufactured1d's measurement from a ``t,m,mprime`` file that
this script writes beside its configs, and trace a noise sweep.
HEAD_DIR defaults to the checkout that holds this script.  Every CSV
must be byte-identical and every JSON report equal once its
``timings`` are dropped; a command that traces, by ``--trace`` or by
its config, must also print the same stderr.  A command that fails by
design must exit with the same code and print the same stderr in both
trees, and leave neither output file in either.  Prints one line per
command and exits 0 when all agree, 1 on any difference and 2 when any
other command fails in either tree.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CONFIG_2D, MANUFACTURED_2D  # noqa: E402  the benchmark's 2D config

# every preset and the 2D config have a static h and g, formed once per
# run; in this one h and g depend on t, and f reads the state u
TIME_DEPENDENT_1D = """\
[problem]
name = "timedependent1d"
f = "u*exp(-t) + cos(pi*x)"
h = "1 + t"
g = "t*x"
u0 = "1 + cos(pi*x)"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
"""
CONFIG_T1D = "timedependent1d.ini"

# the same in 2D, on a rectangle: the boundary load and (g,1)_Gamma use
# the edge-trapezoid weights, corners included, not two point weights
TIME_DEPENDENT_2D = """\
[problem]
name = "timedependent2d"
f = "u*exp(-t) + cos(pi*x)*cos(pi*y)"
h = "1 + t + x*y"
g = "t*x - (1 - t)*y^2"
u0 = "1 + cos(pi*x)*cos(pi*y)"
lx = 1.0
ly = 2.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
"""
CONFIG_T2D = "timedependent2d.ini"

# f of t and x (y) alone, with h and g of t: all three are evaluated in
# blocks of time nodes, not per step
TIME_ONLY_1D = """\
[problem]
name = "timeonly1d"
f = "exp(-t)*(1 + cos(pi*x)) + sin(2*t)*x"
h = "1 + t"
g = "t*x"
u0 = "1 + cos(pi*x)"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
"""
CONFIG_O1D = "timeonly1d.ini"

TIME_ONLY_2D = """\
[problem]
name = "timeonly2d"
f = "exp(-t)*cos(pi*x)*cos(pi*y) + t*y"
h = "1 + t + x*y"
g = "t*x - (1 - t)*y^2"
u0 = "1 + cos(pi*x)*cos(pi*y)"
lx = 1.0
ly = 2.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
"""
CONFIG_O2D = "timeonly2d.ini"

# options from config keys, not flags: pins the key path's casts and echo
CONTAMINANT_KEYS = """\
[problem]
preset = contaminant

[discretization]
n = 200
mx = 50

[experiment]
mode = reconstruct
derivative = discrete
fine_factor = 2
trace = true
kernel_denominator_sign = plus
"""
CONFIG_KEYS = "contaminantkeys.ini"

# f faults at t = 0.5, node 5 of n = 10: a traced reconstruction prints
# rows 1-5 and then fails
FAULT_F = """\
[problem]
name = "faultf1d"
f = "2 + 1/(t - 0.5)"
h = "1"
g = "0"
u0 = "0"
lx = 1.0
T = 1.0
omega = 1.0
m = "0"
mprime = "0"
"""
CONFIG_FAULT_F = "faultf1d.ini"

# |(h(t),1)| = 1 - t dips below omega after t = 0.25
FLOOR_VIOLATION = """\
[problem]
name = "floor1d"
f = "0"
h = "1 - t"
g = "0"
u0 = "0"
lx = 1.0
T = 1.0
omega = 0.75
m = "0"
mprime = "0"
"""
CONFIG_FLOOR = "floor1d.ini"

# g faults at t = 0 only, where the march never reads it; the discrete
# m'(0) reads it after the march, the exact m' does not
FAULT_G0 = """\
[problem]
name = "faultg1d"
f = "0"
h = "1"
g = "1/t"
u0 = "0"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
mprime = "0"
"""
CONFIG_FAULT_G0 = "faultg1d.ini"

# advection v . grad u: the contaminant's f reads the gradient p
CONTAMINANT_ADVECTION = """\
[problem]
preset = contaminant
v = 0.5
"""
CONFIG_ADVECTION = "contaminantv.ini"

# manufactured1d without m and mprime: the measurement is read from
# MEASUREMENT_FILE, the samples of m = 1 + t and m' = 1 on MEASUREMENT_N steps
MEASUREMENT_FILE = "manufactured1d_m.csv"
MEASUREMENT_N = 200
MANUFACTURED_FROM_FILE = f"""\
[problem]
name = "manufactured1d"
f = "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"
h = "1"
g = "0"
u0 = "1+cos(pi*x)"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
u_exact = "(1+t)*(1+cos(pi*x))"
measurement_file = "{MEASUREMENT_FILE}"
"""
CONFIG_FROM_FILE = "manufactured1dfile.ini"


def _measurement_text(n: int) -> str:
    nodes = np.linspace(0.0, 1.0, n + 1).tolist()  # the time grid's nodes
    return "".join(["t,m,mprime\n", *(f"{t:.17g},{1.0 + t:.17g},1\n" for t in nodes)])


# the configs, and the measurement file, written beside the outputs
CONFIGS = {
    CONFIG_2D: MANUFACTURED_2D,
    CONFIG_T1D: TIME_DEPENDENT_1D,
    CONFIG_T2D: TIME_DEPENDENT_2D,
    CONFIG_O1D: TIME_ONLY_1D,
    CONFIG_O2D: TIME_ONLY_2D,
    CONFIG_KEYS: CONTAMINANT_KEYS,
    CONFIG_FAULT_F: FAULT_F,
    CONFIG_FLOOR: FLOOR_VIOLATION,
    CONFIG_FAULT_G0: FAULT_G0,
    CONFIG_ADVECTION: CONTAMINANT_ADVECTION,
    CONFIG_FROM_FILE: MANUFACTURED_FROM_FILE,
    MEASUREMENT_FILE: _measurement_text(MEASUREMENT_N),
}

M1 = ["--preset", "manufactured1d"]
CT = ["--preset", "contaminant"]
COMMANDS = {
    "reconstruct-manufactured1d": ["reconstruct", *M1, "--n", "200", "--mx", "50"],
    "reconstruct-manufactured1d-discrete": [
        "reconstruct", *M1, "--n", "200", "--mx", "50", "--derivative", "discrete",
    ],
    "reconstruct-contaminant": ["reconstruct", *CT, "--n", "200", "--mx", "50"],
    "reconstruct-zero1d": ["reconstruct", "--preset", "zero1d", "--n", "50", "--mx", "20"],
    "reconstruct-2d": ["reconstruct", "--config", CONFIG_2D, "--n", "20", "--mx", "24"],
    "roundtrip-manufactured1d": ["roundtrip", *M1, "--n", "100", "--mx", "50"],
    "roundtrip-contaminant": ["roundtrip", *CT, "--n", "100", "--mx", "50"],
    "convergence-manufactured1d": ["convergence", *M1, "--n", "50,100,200", "--mx", "50"],
    "convergence-contaminant": ["convergence", *CT, "--n", "50,100,200", "--mx", "50"],
    "reconstruct-contaminant-same-grid": [
        "reconstruct", *CT, "--n", "200", "--mx", "50", "--fine-factor", "1",
    ],
    "forward-contaminant": ["forward", *CT, "--n", "200", "--mx", "50"],
    "forward-manufactured1d": ["forward", *M1, "--n", "200", "--mx", "50"],
    "forward-manufactured1d-discrete": [
        "forward", *M1, "--n", "200", "--mx", "50", "--derivative", "discrete",
    ],
    "forward-2d": ["forward", "--config", CONFIG_2D, "--n", "20", "--mx", "24"],
    "forward-time-dependent-1d": ["forward", "--config", CONFIG_T1D, "--n", "100", "--mx", "50"],
    "roundtrip-time-dependent-1d": [
        "roundtrip", "--config", CONFIG_T1D, "--n", "100", "--mx", "50",
    ],
    "forward-time-dependent-2d": ["forward", "--config", CONFIG_T2D, "--n", "20", "--mx", "24"],
    "roundtrip-time-dependent-2d": [
        "roundtrip", "--config", CONFIG_T2D, "--n", "20", "--mx", "24",
    ],
    "noise-sweep-manufactured1d": [
        "noise-sweep", *M1, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    # 2000 nodes of f in blocks of 321 (51 nodes each), the last one partial
    "reconstruct-manufactured1d-blocks": ["reconstruct", *M1, "--n", "2000", "--mx", "50"],
    # 20001 nodes: each block is one time node
    "reconstruct-manufactured1d-wide": ["reconstruct", *M1, "--n", "10", "--mx", "20000"],
    "reconstruct-time-only-1d": ["reconstruct", "--config", CONFIG_O1D, "--n", "200", "--mx", "50"],
    "roundtrip-time-only-1d": ["roundtrip", "--config", CONFIG_O1D, "--n", "1000", "--mx", "50"],
    "reconstruct-time-only-2d": ["reconstruct", "--config", CONFIG_O2D, "--n", "20", "--mx", "24"],
    "roundtrip-time-only-2d": ["roundtrip", "--config", CONFIG_O2D, "--n", "100", "--mx", "24"],
    "noise-sweep-contaminant": [
        "noise-sweep", *CT, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    # trace rows on stderr; 2001 states of 51 nodes make several blocks of
    # the post-march means and diagnostics, the last one partial
    "reconstruct-manufactured1d-trace": [
        "reconstruct", *M1, "--n", "2000", "--mx", "50", "--trace",
    ],
    "reconstruct-2d-trace": [
        "reconstruct", "--config", CONFIG_2D, "--n", "20", "--mx", "24", "--trace",
    ],
    "reconstruct-contaminant-config-keys": ["reconstruct", "--config", CONFIG_KEYS],
    "reconstruct-contaminant-advection": [
        "reconstruct", "--config", CONFIG_ADVECTION, "--n", "200", "--mx", "50",
    ],
    "reconstruct-manufactured1d-file": [
        "reconstruct", "--config", CONFIG_FROM_FILE, "--n", str(MEASUREMENT_N), "--mx", "50",
    ],
    "noise-sweep-contaminant-trace": [
        "noise-sweep", *CT, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
        "--trace",
    ],
    "forward-g-fault-at-0-analytic": [
        "forward", "--config", CONFIG_FAULT_G0, "--n", "10", "--mx", "8",
    ],
    # these fail by design: exit code and stderr are compared
    "reconstruct-f-fault-trace": [
        "reconstruct", "--config", CONFIG_FAULT_F, "--n", "10", "--mx", "8", "--trace",
    ],
    "reconstruct-floor-violation": [
        "reconstruct", "--config", CONFIG_FLOOR, "--n", "10", "--mx", "8",
    ],
    "forward-g-fault-at-0-discrete": [
        "forward", "--config", CONFIG_FAULT_G0, "--n", "10", "--mx", "8",
        "--derivative", "discrete",
    ],
    # the CSV is written, then the JSON cannot be: the run must take the CSV back
    "reconstruct-json-missing-dir": [
        "reconstruct", *M1, "--n", "10", "--mx", "4", "--json", "missing/r.json",
    ],
}
FAILING = {
    "reconstruct-f-fault-trace", "reconstruct-floor-violation", "forward-g-fault-at-0-discrete",
    "reconstruct-json-missing-dir",
}


def run_tree(tree: Path, work: Path) -> dict[str, subprocess.CompletedProcess]:
    """Run every command with ``tree``'s sources; outputs go to work/NAME.*

    A command's own ``--out`` or ``--json`` comes later on its command
    line, so it takes the place of the default.
    """
    work.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = {}
    for name, (mode, *options) in COMMANDS.items():
        argv = [mode, "--out", f"{name}.csv", "--json", f"{name}.json", *options]
        done[name] = subprocess.run(
            [sys.executable, "-m", "kernrec.harness", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
    return done


def without_timings(value):
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


def report(path: Path):
    return without_timings(json.loads(path.read_text(encoding="utf-8")))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/compare_outputs.py BASE_DIR [HEAD_DIR]", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    head = Path(argv[1]).resolve() if len(argv) == 2 else ROOT
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = {side: run_tree(tree, Path(tmp) / side)
                for side, tree in (("base", base), ("head", head))}
        for name in COMMANDS:
            done = {side: runs[side][name] for side in ("base", "head")}
            stderr = {side: run.stderr for side, run in done.items()}
            paths = {side: Path(tmp) / side / name for side in ("base", "head")}
            if name in FAILING:
                differs = [
                    f"{side} left {output.name}"
                    for side, path in paths.items()
                    for output in (path.with_suffix(".csv"), path.with_suffix(".json"))
                    if output.exists()
                ]
                if done["base"].returncode != done["head"].returncode:
                    differs.append("returncode")
                if stderr["base"] != stderr["head"]:
                    differs.append("stderr")
            elif any(run.returncode for run in done.values()):
                failed = [f"{side} exit {run.returncode}: {run.stderr.strip()}"
                          for side, run in done.items() if run.returncode]
                print(f"FAILED   {name}: {'; '.join(failed)}")
                status = 2
                continue
            else:
                differs = []
                if not filecmp.cmp(paths["base"].with_suffix(".csv"),
                                   paths["head"].with_suffix(".csv"), shallow=False):
                    differs.append("csv")
                if report(paths["base"].with_suffix(".json")) != report(
                    paths["head"].with_suffix(".json")
                ):
                    differs.append("json")
                traced = "--trace" in COMMANDS[name] or "step=" in stderr["base"] + stderr["head"]
                if traced and stderr["base"] != stderr["head"]:
                    differs.append("trace rows")
            if differs:
                print(f"DIFFERS  {name}: {' and '.join(differs)}")
                status = max(status, 1)
            else:
                print(f"same     {name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
