"""Check that two source trees give the same CLI outputs.

    python tools/compare_outputs.py BASE_DIR [HEAD_DIR]

Runs every case of ``COMMANDS``, ``FAILING`` and ``HELP`` with each
tree's ``src/`` on ``PYTHONPATH``, beside the files of ``CONFIGS``; the
comment on an entry or a group of entries says what it pins.  Each
inline ``[problem]`` there is ``BASE``, the zero problem on (0, 1)
(f = 0, h = 1, g = 0, u0 = 0, lx = 1, T = 1, omega = 1), with the keys
its entry names laid over it.  HEAD_DIR defaults to the checkout that
holds this script.

Every case is compared on one record: its exit code, stdout and stderr,
then its outputs.  A run of ``COMMANDS`` writes NAME.csv and NAME.json,
unless it names its own ``--out`` or ``--json``, and must exit 0 in both
trees.  Its CSV must be byte-identical and its JSON report the same text
once its ``timings`` are dropped, so that the sign of a zero shows; a
report that differs is named with its differing key paths, the first
five and a count of the rest.  Any other case must leave neither output
behind in either tree.

Prints one line per case and exits 0 when all agree, 1 on any difference
and 2 when a run of ``COMMANDS`` fails in either tree.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import CONFIG_2D, MANUFACTURED_2D  # noqa: E402  the benchmark's 2D config

# the zero problem on (0, 1), under every inline [problem] of CONFIGS
BASE = {"f": "0", "h": "1", "g": "0", "u0": "0", "lx": "1.0", "T": "1.0", "omega": "1.0"}


def problem(name: str, **keys: str) -> str:
    """The inline [problem] ``name``: ``BASE`` with ``keys`` laid over it."""
    assert all(BASE.get(key) != value for key, value in keys.items()), keys  # only what differs
    lines = [f'{key} = "{value}"' for key, value in {"name": name, **BASE, **keys}.items()]
    return "".join(f"{line}\n" for line in ["[problem]", *lines])


def _measurement_text(n: int, initial_only: bool = False) -> str:
    nodes = np.linspace(0.0, 1.0, n + 1).tolist()  # the time grid's nodes
    if initial_only:
        rows = (f"{t:.17g},{1.0 + t:.17g}{',1' if k == 0 else ''}" for k, t in enumerate(nodes))
        return "".join(f"{row}\n" for row in rows)
    return "".join(["t,m,mprime\n", *(f"{t:.17g},{1.0 + t:.17g},1\n" for t in nodes)])


# the configs, and the measurement files, written beside the outputs
CONFIGS = {
    CONFIG_2D: MANUFACTURED_2D,
    # every preset and the 2D config have a static h and g, formed once per
    # run; in this one h and g depend on t, and f reads the state u
    "timedependent1d.ini": problem(
        "timedependent1d", f="u*exp(-t) + cos(pi*x)", h="1 + t", g="t*x",
        u0="1 + cos(pi*x)", kernel="exp(-t)",
    ),
    # the same in 2D, on a rectangle: the boundary load and (g,1)_Gamma use
    # the edge-trapezoid weights, corners included, not two point weights
    "timedependent2d.ini": problem(
        "timedependent2d", f="u*exp(-t) + cos(pi*x)*cos(pi*y)", h="1 + t + x*y",
        g="t*x - (1 - t)*y^2", u0="1 + cos(pi*x)*cos(pi*y)", ly="2.0", kernel="exp(-t)",
    ),
    # f of t and x (y) alone, with h and g of t: all three are evaluated in
    # blocks of time nodes, not per step
    "timeonly1d.ini": problem(
        "timeonly1d", f="exp(-t)*(1 + cos(pi*x)) + sin(2*t)*x", h="1 + t", g="t*x",
        u0="1 + cos(pi*x)", kernel="exp(-t)",
    ),
    "timeonly2d.ini": problem(
        "timeonly2d", f="exp(-t)*cos(pi*x)*cos(pi*y) + t*y", h="1 + t + x*y",
        g="t*x - (1 - t)*y^2", u0="1 + cos(pi*x)*cos(pi*y)", ly="2.0", kernel="exp(-t)",
    ),
    # options from config keys, not flags: pins the key path's casts and echo
    "contaminantkeys.ini": """\
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
""",
    # f faults at t = 0.5, node 5 of n = 10: a traced reconstruction prints
    # rows 1-5 and then fails
    "faultf1d.ini": problem("faultf1d", f="2 + 1/(t - 0.5)", m="0", mprime="0"),
    # h faults inside the floor check, its first reader: with an exact m no
    # forward data run comes first.  At t = 0.5, in the middle of the only
    # block of time nodes, which is then served node by node; and in a static
    # h, which is evaluated once
    "faulth1d.ini": problem("faulth1d", h="1 + 1/(t - 0.5)", omega="0.5", m="0", mprime="0"),
    "faulthstatic1d.ini": problem("faulth1d", h="2 + log(x)", omega="0.5", m="0", mprime="0"),
    # |(h(t),1)| = 1 - t dips below omega after t = 0.25
    "floor1d.ini": problem("floor1d", h="1 - t", omega="0.75", m="0", mprime="0"),
    # g faults at t = 0 only, where the march never reads it; the discrete
    # m'(0) reads it after the march, the exact m' does not
    "faultg1d.ini": problem("faultg1d", g="1/t", kernel="exp(-t)", mprime="0"),
    # advection v . grad u: the contaminant's f reads the gradient p
    "contaminantv.ini": "[problem]\npreset = contaminant\nv = 0.5\n",
    # f reads both components of the gradient on a rectangle
    "gradient2d.ini": problem(
        "gradient2d", f="u*exp(-t) - 0.5*p + 0.25*q + cos(pi*x)*cos(pi*y)", h="1 + t",
        g="t*x", u0="1 + cos(pi*x)*cos(pi*y)", ly="2.0", kernel="exp(-t)",
    ),
    # manufactured1d without m and mprime: the measurement is read from a file
    # of the samples of m = 1 + t and m' = 1 on 200 steps; the second has no
    # header and gives m' in its first row alone, as m'(0); the third is the
    # second behind a byte-order mark
    **{config: problem(
        "manufactured1d", f="(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))",
        u0="1+cos(pi*x)", kernel="exp(-t)", u_exact="(1+t)*(1+cos(pi*x))", measurement_file=file,
    ) for config, file in [("manufactured1dfile.ini", "manufactured1d_m.csv"),
                           ("manufactured1dfilem0.ini", "manufactured1d_m0.csv"),
                           ("manufactured1dfilebom.ini", "manufactured1d_mbom.csv")]},
    "manufactured1d_m.csv": _measurement_text(200),
    "manufactured1d_m0.csv": _measurement_text(200, initial_only=True),
    "manufactured1d_mbom.csv": "\ufeff" + _measurement_text(200, initial_only=True),
    # every state is finite, but the squares in the diagnostics overflow
    "big1d.ini": problem("big1d", u0="1e200*(1+cos(pi*x))", kernel="0"),
    # finite samples whose backward difference overflows
    "overflow_m.csv": "0,0\n0.5,1.7e308\n1,-1.7e308\n",
    "contaminantoverflow.ini":
        '[problem]\npreset = contaminant\nmeasurement_file = "overflow_m.csv"\n',
    # a preset's section with T, omega and its own parameters laid over it
    "contaminantoverrides.ini":
        "[problem]\npreset = contaminant\nkr = 2\nkd = 0.5\nT = 0.5\nomega = 0.25\n",
    "manufactured1doverrides.ini": "[problem]\npreset = manufactured1d\nomega = 0.5\nT = 2\n",
    # these fail by design: an inline key beside a preset (exit 1), and a
    # parameter the contaminant rejects beside an unknown key (exit 3): the
    # preset's parameters are checked before the keys
    "presetf.ini": '[problem]\npreset = manufactured1d\nf = "0"\n',
    "contaminantkr0.ini": "[problem]\npreset = contaminant\nkr = 0\nbogus = 1\n",
    # fails by design in its second level: with the minus sign the update
    # divides by (h,1) - m0 tau = 1 - 10 * 0.1 = 0 unless the noise moves m0,
    # which the second level's 1e-300 does not
    "secondlevelfault.ini": problem("secondlevelfault", u0="10", kernel="0", m="10", mprime="0"),
    # fails by design in both levels: u follows m below 0, where sqrt(u)
    # faults, after 7 steps of the first level and, with seed 4, after 3 of
    # the second; the first level's rows and fault decide
    "laterfault.ini": problem("laterfault", f="sqrt(u) - 1", u0="1", kernel="0", m="1 - 1.6*t"),
    # fails by design in its second level: m0 = 9.9 keeps tau = 0.05 below
    # tau0 = 1/19.8, and the second level's noise moves m0 past it, so that
    # level fails its step threshold before the march
    "laterthreshold.ini": problem("laterthreshold", u0="9.9", kernel="0", m="9.9", mprime="0"),
    # these fail by design in the expression parser, each in one expression:
    # a U+00A0, two bytes in UTF-8, before an unexpected character, so that the
    # offset counts bytes; an unknown function; a wrong arity; and an h nested
    # one level deeper than the parser accepts
    "badcharacter.ini": problem("badexpression", f="x\u00a0+ $", m="0", mprime="0"),
    "unknownfunction.ini": problem("badexpression", f="foo(x)", m="0", mprime="0"),
    "arity.ini": problem("badexpression", f="min(x)", m="0", mprime="0"),
    "deeph.ini": problem("badexpression", h="(" * 101 + "1" + ")" * 101, m="0", mprime="0"),
}

M1 = ["--preset", "manufactured1d"]
CT = ["--preset", "contaminant"]
COMMANDS = {
    # each mode on the presets and on the benchmark's 2D config
    "reconstruct-manufactured1d": ["reconstruct", *M1, "--n", "200", "--mx", "50"],
    "reconstruct-manufactured1d-discrete": [
        "reconstruct", *M1, "--n", "200", "--mx", "50", "--derivative", "discrete",
    ],
    "reconstruct-contaminant": ["reconstruct", *CT, "--n", "200", "--mx", "50"],
    "reconstruct-zero1d": ["reconstruct", "--preset", "zero1d", "--n", "50", "--mx", "20"],
    "reconstruct-2d": ["reconstruct", "--config", "manufactured2d.ini", "--n", "20", "--mx", "24"],
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
    "forward-2d": ["forward", "--config", "manufactured2d.ini", "--n", "20", "--mx", "24"],
    # h and g of t and an f of the state u, in 1D and on a rectangle
    "forward-time-dependent-1d": [
        "forward", "--config", "timedependent1d.ini", "--n", "100", "--mx", "50",
    ],
    "roundtrip-time-dependent-1d": [
        "roundtrip", "--config", "timedependent1d.ini", "--n", "100", "--mx", "50",
    ],
    "forward-time-dependent-2d": [
        "forward", "--config", "timedependent2d.ini", "--n", "20", "--mx", "24",
    ],
    "roundtrip-time-dependent-2d": [
        "roundtrip", "--config", "timedependent2d.ini", "--n", "20", "--mx", "24",
    ],
    # unequal axes, or a single cell along one: face, corner and axis order show
    "roundtrip-time-dependent-2d-12x30": [
        "roundtrip", "--config", "timedependent2d.ini", "--n", "20", "--mx", "12", "--my", "30",
    ],
    "reconstruct-time-dependent-2d-1x7": [
        "reconstruct", "--config", "timedependent2d.ini", "--n", "20", "--mx", "1", "--my", "7",
    ],
    "forward-time-dependent-2d-9x1": [
        "forward", "--config", "timedependent2d.ini", "--n", "20", "--mx", "9", "--my", "1",
    ],
    "roundtrip-contaminant-one-cell": ["roundtrip", *CT, "--n", "50", "--mx", "1"],
    "noise-sweep-manufactured1d": [
        "noise-sweep", *M1, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    # 2000 nodes of f in blocks of 321 (51 nodes each), the last one partial
    "reconstruct-manufactured1d-blocks": ["reconstruct", *M1, "--n", "2000", "--mx", "50"],
    # 20001 nodes: each block is one time node
    "reconstruct-manufactured1d-wide": ["reconstruct", *M1, "--n", "10", "--mx", "20000"],
    # f, h and g of t, x and y alone
    "reconstruct-time-only-1d": [
        "reconstruct", "--config", "timeonly1d.ini", "--n", "200", "--mx", "50",
    ],
    "roundtrip-time-only-1d": [
        "roundtrip", "--config", "timeonly1d.ini", "--n", "1000", "--mx", "50",
    ],
    "reconstruct-time-only-2d": [
        "reconstruct", "--config", "timeonly2d.ini", "--n", "20", "--mx", "24",
    ],
    "roundtrip-time-only-2d": [
        "roundtrip", "--config", "timeonly2d.ini", "--n", "100", "--mx", "24",
    ],
    "noise-sweep-contaminant": [
        "noise-sweep", *CT, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    # trace rows on stderr; 2001 states of 51 nodes make several blocks of
    # the post-march means and diagnostics, the last one partial
    "reconstruct-manufactured1d-trace": [
        "reconstruct", *M1, "--n", "2000", "--mx", "50", "--trace",
    ],
    "reconstruct-2d-trace": [
        "reconstruct", "--config", "manufactured2d.ini", "--n", "20", "--mx", "24", "--trace",
    ],
    # every option from a config key
    "reconstruct-contaminant-config-keys": ["reconstruct", "--config", "contaminantkeys.ini"],
    # f reads the gradient: p in 1D, p and q on a rectangle
    "reconstruct-contaminant-advection": [
        "reconstruct", "--config", "contaminantv.ini", "--n", "200", "--mx", "50",
    ],
    "roundtrip-gradient-2d": [
        "roundtrip", "--config", "gradient2d.ini", "--n", "20", "--mx", "12", "--my", "9",
    ],
    "reconstruct-gradient-2d": [
        "reconstruct", "--config", "gradient2d.ini", "--n", "20", "--mx", "12", "--my", "9",
    ],
    # the measurement from a file: with a header, headerless with m'(0) in
    # its first row alone, and that behind a byte-order mark
    "reconstruct-manufactured1d-file": [
        "reconstruct", "--config", "manufactured1dfile.ini", "--n", "200", "--mx", "50",
    ],
    "reconstruct-manufactured1d-file-m0": [
        "reconstruct", "--config", "manufactured1dfilem0.ini", "--n", "200", "--mx", "50",
    ],
    "reconstruct-manufactured1d-file-bom": [
        "reconstruct", "--config", "manufactured1dfilebom.ini", "--n", "200", "--mx", "50",
    ],
    # the file's 200 steps, restricted to each level
    "convergence-manufactured1d-file": [
        "convergence", "--config", "manufactured1dfile.ini", "--n", "50,100,200", "--mx", "50",
    ],
    "noise-sweep-contaminant-trace": [
        "noise-sweep", *CT, "--n", "100", "--mx", "50", "--noise", "1e-4,1e-3", "--seed", "7",
        "--trace",
    ],
    # presets with T, omega and parameters given
    "reconstruct-contaminant-overrides": [
        "reconstruct", "--config", "contaminantoverrides.ini", "--n", "100", "--mx", "50",
    ],
    "reconstruct-manufactured1d-overrides": [
        "reconstruct", "--config", "manufactured1doverrides.ini", "--n", "200", "--mx", "50",
    ],
    "roundtrip-contaminant-horizon": ["roundtrip", *CT, "--T", "0.5", "--n", "100", "--mx", "50"],
    # g faults at t = 0, where an analytic forward run never evaluates it
    "forward-g-fault-at-0-analytic": [
        "forward", "--config", "faultg1d.ini", "--n", "10", "--mx", "8",
    ],
    # sweeps whose levels march together, against a tree that may run them one
    # at a time: in 2D, and with an f that reads p
    "noise-sweep-2d": [
        "noise-sweep", "--config", "manufactured2d.ini", "--n", "10", "--mx", "12",
        "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    "noise-sweep-contaminant-advection-trace": [
        "noise-sweep", "--config", "contaminantv.ini", "--n", "100", "--mx", "50",
        "--noise", "1e-4,1e-3", "--seed", "7", "--trace",
    ],
    # one sigma: a sequence of one series, marched without the series axis
    "noise-sweep-contaminant-one-level": [
        "noise-sweep", *CT, "--n", "100", "--mx", "50", "--noise", "1e-4", "--seed", "7",
    ],
    # a single cell along y: each level's history rows hold 13 x 2 nodes
    "noise-sweep-2d-my1": [
        "noise-sweep", "--config", "manufactured2d.ini", "--n", "10", "--mx", "12", "--my", "1",
        "--noise", "1e-4,1e-3", "--seed", "7",
    ],
    # m0 = 10 puts tau0 below tau: each level warns in the same words
    "noise-sweep-repeated-warning": [
        "noise-sweep", "--config", "secondlevelfault.ini", "--n", "10", "--mx", "4",
        "--noise", "1e-12,1e-11,1e-10", "--seed", "1", "--force",
    ],
}
# these fail by design: the exit code and the stderr are compared
FAILING = {
    "reconstruct-f-fault-trace": [
        "reconstruct", "--config", "faultf1d.ini", "--n", "10", "--mx", "8", "--trace",
    ],
    "reconstruct-floor-violation": [
        "reconstruct", "--config", "floor1d.ini", "--n", "10", "--mx", "8",
    ],
    "reconstruct-h-fault-in-floor": [
        "reconstruct", "--config", "faulth1d.ini", "--n", "10", "--mx", "8", "--trace",
    ],
    "reconstruct-h-static-fault": [
        "reconstruct", "--config", "faulthstatic1d.ini", "--n", "10", "--mx", "8", "--trace",
    ],
    # the discrete m'(0) evaluates g at t = 0
    "forward-g-fault-at-0-discrete": [
        "forward", "--config", "faultg1d.ini", "--n", "10", "--mx", "8",
        "--derivative", "discrete",
    ],
    # the CSV is written, then the JSON cannot be: the run must take the CSV back
    "reconstruct-json-missing-dir": [
        "reconstruct", *M1, "--n", "10", "--mx", "4", "--json", "missing/r.json",
    ],
    # a run that would write a NaN or an infinity writes nothing
    "roundtrip-diagnostics-overflow": [
        "roundtrip", "--config", "big1d.ini", "--n", "4", "--mx", "4", "--force",
    ],
    # sigma = 5e-324, the least subnormal: err_inf / sigma overflows
    "noise-sweep-amplification-overflow": [
        "noise-sweep", *M1, "--n", "20", "--mx", "10", "--noise", "5e-324", "--seed", "1",
    ],
    "reconstruct-measurement-difference-overflow": [
        "reconstruct", "--config", "contaminantoverflow.ini", "--n", "2", "--mx", "4",
    ],
    "reconstruct-preset-with-f": [
        "reconstruct", "--config", "presetf.ini", "--n", "10", "--mx", "4",
    ],
    "reconstruct-contaminant-kr0-unknown-key": [
        "reconstruct", "--config", "contaminantkr0.ini", "--n", "10", "--mx", "4",
    ],
    # a later level fails after the levels before it have printed their rows
    "noise-sweep-second-level-fault-trace": [
        "noise-sweep", "--config", "secondlevelfault.ini", "--n", "10", "--mx", "4",
        "--noise", "0.1,1e-300", "--seed", "1", "--force",
        "--kernel-denominator-sign", "minus", "--trace",
    ],
    "noise-sweep-first-level-fault-decides-trace": [
        "noise-sweep", "--config", "laterfault.ini", "--n", "10", "--mx", "4",
        "--noise", "1e-6,0.3", "--seed", "4", "--trace",
    ],
    "noise-sweep-later-threshold": [
        "noise-sweep", "--config", "laterthreshold.ini", "--n", "20", "--mx", "4",
        "--noise", "1e-6,0.5", "--seed", "3",
    ],
    "noise-sweep-later-threshold-trace": [
        "noise-sweep", "--config", "laterthreshold.ini", "--n", "20", "--mx", "4",
        "--noise", "1e-6,0.5", "--seed", "3", "--trace",
    ],
    # the second level's samples overflow: the first level's rows, then the draw's failure
    "noise-sweep-draw-overflow-trace": [
        "noise-sweep", *M1, "--n", "10", "--mx", "8", "--noise", "1e-3,1e308", "--seed", "2",
        "--trace",
    ],
    # the parser's located errors, printed as usage errors
    "reconstruct-bad-character": [
        "reconstruct", "--config", "badcharacter.ini", "--n", "10", "--mx", "4",
    ],
    "reconstruct-unknown-function": [
        "reconstruct", "--config", "unknownfunction.ini", "--n", "10", "--mx", "4",
    ],
    "reconstruct-arity": ["reconstruct", "--config", "arity.ini", "--n", "10", "--mx", "4"],
    "reconstruct-deep-h": ["reconstruct", "--config", "deeph.ini", "--n", "10", "--mx", "4"],
}
# help texts: stdout and exit code are compared byte for byte
HELP = {
    "help": ["--help"],
    **{f"help-{mode}": [mode, "--help"]
       for mode in ("forward", "reconstruct", "roundtrip", "convergence", "noise-sweep")},
}


# the outputs a run writes, as NAME.csv and NAME.json, unless it names its own
OUTPUTS = {"--out": ".csv", "--json": ".json"}


def command_lines() -> dict[str, list[str]]:
    """Every case's argv, in the order of the tables."""
    lines = {}
    for name, (mode, *options) in {**COMMANDS, **FAILING}.items():
        outputs = [arg for flag, suffix in OUTPUTS.items() if flag not in options
                   for arg in (flag, name + suffix)]
        lines[name] = [mode, *outputs, *options]
    return {**lines, **HELP}


def run_tree(tree: Path, work: Path) -> dict[str, subprocess.CompletedProcess]:
    """Run every case with ``tree``'s sources in ``work``."""
    work.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return {
        name: subprocess.run(
            [sys.executable, "-m", "kernrec.harness", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        for name, argv in command_lines().items()
    }


def report(path: Path):
    """The report without its timings, at any depth."""
    return json.loads(path.read_text(encoding="utf-8"),
                      object_hook=lambda obj: {k: v for k, v in obj.items() if k != "timings"})


def differences(base, head, path: str = "") -> Iterator[str]:
    """Each key path where two reports differ, in key order, such as
    ``rows[0].err_inf_after_0 only in head``.  Values are compared as
    text: parsed numbers would hide the sign of a zero (``-0.0 == 0.0``)."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(base.keys() | head.keys()):
            where = f"{path}.{key}" if path else key
            if key not in head or key not in base:
                yield f"{where} only in {'base' if key in base else 'head'}"
            else:
                yield from differences(base[key], head[key], where)
    elif isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        for k, (b, h) in enumerate(zip(base, head)):
            yield from differences(b, h, f"{path}[{k}]")
    elif json.dumps(base) != json.dumps(head):
        yield f"{path or 'the report'} differs"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/compare_outputs.py BASE_DIR [HEAD_DIR]", file=sys.stderr)
        return 2
    trees = {"base": Path(argv[0]).resolve(),
             "head": Path(argv[1]).resolve() if len(argv) == 2 else ROOT}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = {side: run_tree(tree, Path(tmp) / side) for side, tree in trees.items()}
        for name in command_lines():
            done = {side: runs[side][name] for side in trees}
            paths = {side: Path(tmp) / side / name for side in trees}
            if name in COMMANDS and any(run.returncode for run in done.values()):
                failed = [f"{side} exit {run.returncode}: {run.stderr.strip()}"
                          for side, run in done.items() if run.returncode]
                print(f"FAILED   {name}: {'; '.join(failed)}")
                status = 2
                continue
            differs = [field for field in ("returncode", "stdout", "stderr")
                       if getattr(done["base"], field) != getattr(done["head"], field)]
            if name in COMMANDS:
                if not filecmp.cmp(paths["base"].with_suffix(".csv"),
                                   paths["head"].with_suffix(".csv"), shallow=False):
                    differs.append("csv")
                where = list(differences(*(report(p.with_suffix(".json")) for p in paths.values())))
                if where:
                    more = f", and {len(where) - 5} more" if len(where) > 5 else ""
                    differs.append(f"json ({', '.join(where[:5])}{more})")
            else:
                differs += [f"{side} left {path.with_suffix(suffix).name}"
                            for side, path in paths.items() for suffix in OUTPUTS.values()
                            if path.with_suffix(suffix).exists()]
            if differs:
                print(f"DIFFERS  {name}: {' and '.join(differs)}")
                status = max(status, 1)
            else:
                print(f"same     {name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
