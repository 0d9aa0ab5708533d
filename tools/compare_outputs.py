"""Check that two source trees give the same CLI outputs.

    python tools/compare_outputs.py BASE_DIR [HEAD_DIR]

Runs every case of ``COMMANDS``, ``FAILING`` and ``HELP`` with each
tree's ``src/`` on ``PYTHONPATH``, beside the files of ``CONFIGS``,
which ``tests/oracles.py`` states with the problems of the test suite; the
comment on an entry or a group of entries says what it pins.  HEAD_DIR
defaults to the checkout that holds this script; for a parent commit,
unpack it first, for example ``git archive HEAD~1 | tar -x -C /tmp/base``.

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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from oracles import CONFIGS  # noqa: E402  the problems the cases read

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
    # a single series' K_0 warning, then its rows 1-7, then its fault in f
    "reconstruct-warning-trace-fault": [
        "reconstruct", "--config", "laterfault.ini", "--n", "10", "--mx", "4", "--trace",
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
