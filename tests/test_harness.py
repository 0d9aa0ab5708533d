"""Tests of the command line and of the harness behind it.

A command line that is checked only by its exit code and what it prints is
a row of ``CLI_CASES``: its id, its argv in full, its input files (name ->
text, or a ``_Link`` for a symbolic link), its exit code and its whole
stderr.  ``test_cli_case`` runs each row through ``run_cli`` in an empty
directory and asserts the exit code, the stderr, an empty stdout, and that
the directory then holds the inputs as they were and nothing else, save, in
a row that exits 0, the files its --out and --json name.  A test that reads
an output or an array, monkeypatches a call, starts a subprocess or draws
with Hypothesis is a function.
"""

import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernrec
from kernrec import errors, harness
from kernrec.harness import (
    EOC_UNDEFINED,
    KERNEL_CSV_HEADER,
    MEASUREMENT_CSV_HEADER,
    NOISE_CSV_HEADER,
    TABLE_CSV_HEADER,
    csv_text,
    eoc_value,
    run_cli,
)
from kernrec.problem import (
    MeasurementSeries,
    TimeGrid,
    make_preset,
    measurement_from_csv,
    parse_config,
    spec_from_mapping,
)
from oracles import (
    CONFIGS,
    MANUFACTURED_2D,
    THRESHOLD,
    THRESHOLD_CONFIG,
    WITH_KERNEL,
    WITH_M,
    problem,
    variant,
    write_config,
)


def _read(path):
    return path.read_text(encoding="utf-8")


# what a run of THRESHOLD_CONFIG forced past its step threshold prints
THRESHOLD_WARNING = ("kernrec: warning: running with tau = 0.05 >= tau0 = 0.01; "
                     "the kernel update may be ill-conditioned\n")


class _Link(str):
    """An input that is a symbolic link to the file it names."""


def _measurement_text(kind: str, n: int, T: float, bad_row: int) -> str:
    """The samples of m = 1 + t and m' = 1 on n steps up to T, as ``kind`` says."""
    rows = [[repr(t), repr(1.0 + t), "1"] for t in np.linspace(0.0, T, n + 1).tolist()]
    if kind == "t,m":
        rows = [row[:2] for row in rows]
    elif kind == "m not a number":
        rows[bad_row][1] = "abc"
    elif kind == "no m":
        rows[bad_row] = rows[bad_row][:1]
    elif kind == "value after m'":
        rows[bad_row].append("2")
    elif kind == "one row short":
        del rows[bad_row]
    header = ["t", "m"] if kind == "t,m" else ["t", "m", "mprime"]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


_M1D, _CONTAMINANT = "[problem]\npreset = manufactured1d\n", "[problem]\npreset = contaminant\n"
# contaminant with its measurement read from m.csv, and manufactured1d with its kernel alone
_FROM_FILE = _CONTAMINANT + 'measurement_file = "m.csv"\n'
_KERNEL_FROM_FILE = problem("manufactured1d", **WITH_KERNEL, measurement_file="m.csv")
_FILE_INPUTS = {"c.ini": _FROM_FILE, "m.csv": _measurement_text("t,m", 10, 1.0, 0)}
# why an option of data generation has no effect beside the problem's own data, and
# why --derivative has none beside a measurement file
_BESIDE_DATA = (": the problem gives its measurement (exact m or measurement_file), "
                "so no data is generated")
_FILE_DERIVATIVE = ": m' is read from the measurement_file, or differenced from its samples"

# the first words of a failure's line, for exit codes 1, 3 and 2
_USAGE, _INVALID, _FAILED = ("kernrec: usage error: ", "kernrec: validation failure: ",
                             "kernrec: numerical failure: ")
CLI_CASES = [
    # the mode, the problem and its resolution
    ("no-mode", "", {}, 1, _USAGE + "the following arguments are required: mode\n"),
    ("no-problem", "reconstruct --n 100", {}, 1,
     _USAGE + "no problem given: pass --preset NAME or --config PATH\n"),
    ("no-resolution", "reconstruct --preset manufactured1d --mx 10", {}, 1,
     _USAGE + "--n ([discretization] n) is required\n"),
    ("empty-n", "reconstruct --preset manufactured1d --n '' --mx 8", {}, 1,
     _USAGE + "no time resolution given (use --n)\n"),
    ("unknown-preset", "reconstruct --preset nope --n 10 --mx 10", {}, 1,
     _USAGE + "unknown preset 'nope'; available: ['contaminant', 'manufactured1d', 'zero1d']\n"),
    ("empty-preset", "reconstruct --config c.ini --preset '' --n 10 --mx 8",
     {"c.ini": _CONTAMINANT}, 1,
     _USAGE + "unknown preset ''; available: ['contaminant', 'manufactured1d', 'zero1d']\n"),
    ("empty-config", "reconstruct --preset manufactured1d --config '' --n 10 --mx 8",
     {"c.ini": _CONTAMINANT}, 1,
     _USAGE + "cannot read config : [Errno 2] No such file or directory: ''\n"),
    ("missing-config", "reconstruct --config /does/not/exist.cfg --n 10 --mx 10", {}, 1,
     _USAGE + "cannot read config /does/not/exist.cfg: [Errno 2] No such file or directory: "
     "'/does/not/exist.cfg'\n"),
    ("mode-mismatch", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "[experiment]\nmode = forward\n"}, 1,
     _USAGE + "config requests mode 'forward', command line says 'reconstruct'\n"),
    ("key-outside-section", "reconstruct --config c.ini --n 10 --mx 8",
     {"c.ini": "n = 5\n" + _CONTAMINANT}, 1, _USAGE + "key outside any section on line 1\n"),
    ("no-measurement-source", "reconstruct --config c.ini --n 10 --mx 8",
     {"c.ini": problem("manufactured1d", **variant(WITH_M, m=None, mprime=None))}, 1,
     _USAGE + "problem has no measurement source (exact m, measurement_file, or exact kernel)\n"),
    ("missing-measurement-file", "reconstruct --config c.ini --n 10 --mx 8",
     {"c.ini": _FROM_FILE}, 1,
     _USAGE + "cannot read measurement file m.csv: [Errno 2] No such file or directory: "
     "'m.csv'\n"),
    # a flag or a key given twice
    ("repeated-n", "reconstruct --preset manufactured1d --n 10 --mx 8 --n 20", {}, 1,
     _USAGE + "argument --n: given twice\n"),
    ("repeated-trace", "reconstruct --preset manufactured1d --n 10 --mx 8 --trace --trace", {}, 1,
     _USAGE + "argument --trace: given twice\n"),
    ("repeated-preset", "reconstruct --preset manufactured1d --n 10 --mx 8 --preset contaminant",
     {}, 1, _USAGE + "argument --preset: given twice\n"),
    ("repeated-T", "reconstruct --preset manufactured1d --n 10 --mx 8 --T 1 --T 2", {}, 1,
     _USAGE + "argument --T: given twice\n"),
    ("repeated-out", "reconstruct --preset manufactured1d --n 10 --mx 8 --out a.csv --out b.csv",
     {}, 1, _USAGE + "argument --out: given twice\n"),
    ("repeated-key", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "T = 1\nT = 2\n"}, 1, _USAGE + "key 'T' repeated in [problem] on line 4\n"),
    # a key the section does not take, or a value its option does not
    ("unknown-key-inline-removed", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": problem("manufactured1d", **WITH_M, assume_f_bounded="true")}, 1,
     _USAGE + "unknown key 'assume_f_bounded' in [problem]; accepted: T, f, g, h, kernel, lx, "
     "ly, m, measurement_file, mprime, name, omega, u0, u_exact\n"),
    ("unknown-key-inline-typo", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": problem("manufactured1d", **WITH_M, lxx="2")}, 1,
     _USAGE + "unknown key 'lxx' in [problem]; accepted: T, f, g, h, kernel, lx, ly, m, "
     "measurement_file, mprime, name, omega, u0, u_exact\n"),
    ("unknown-key-preset-inline-key", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": _M1D + 'h = "2"\n'}, 1,
     _USAGE + "unknown key 'h' in [problem] with preset 'manufactured1d'; accepted: T, "
     "measurement_file, omega, preset\n"),
    ("unknown-key-preset-other-param", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": _M1D + "kr = 2\n"}, 1,
     _USAGE + "unknown key 'kr' in [problem] with preset 'manufactured1d'; accepted: T, "
     "measurement_file, omega, preset\n"),
    ("unknown-key-discretization", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": "[problem]\npreset = zero1d\n\n[discretization]\nnn = 10\n"}, 1,
     _USAGE + "unknown key 'nn' in [discretization]; accepted: mx, my, n\n"),
    ("unknown-key-experiment", "reconstruct --config c.ini --n 10 --mx 10 --out k.csv",
     {"c.ini": _CONTAMINANT + "\n[experiment]\nfine_facter = 1\n"}, 1,
     _USAGE + "unknown key 'fine_facter' in [experiment]; accepted: derivative, fine_factor, "
     "force, json, kernel_denominator_sign, mode, noise, out, seed, trace\n"),
    ("bad-denominator-sign", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\nkernel_denominator_sign = plsu\n"}, 1,
     _USAGE + "cannot parse [experiment] kernel_denominator_sign = 'plsu': expected one of "
     "plus, minus\n"),
    ("bad-boolean-force", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\nforce = ture\n"}, 1,
     _USAGE + "cannot parse [experiment] force = 'ture': expected true/false, yes/no, on/off or "
     "1/0\n"),
    ("bad-boolean-trace", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\ntrace = ture\n"}, 1,
     _USAGE + "cannot parse [experiment] trace = 'ture': expected true/false, yes/no, on/off or "
     "1/0\n"),
    ("unparsable-mx", "reconstruct --config c.ini",
     {"c.ini": _M1D + "\n[discretization]\nn = 10\nmx = abc\n"}, 1,
     _USAGE + "cannot parse [discretization] mx = 'abc': invalid literal for int() with base "
     "10: 'abc'\n"),
    ("n-zero-flag", "reconstruct --config c.ini --mx 10 --n 0", {"c.ini": _M1D}, 1,
     _USAGE + "--n must be a positive step count\n"),
    ("n-negative-flag", "reconstruct --config c.ini --mx 10 --n -5", {"c.ini": _M1D}, 1,
     _USAGE + "--n must be a positive step count\n"),
    ("n-zero-in-list", "convergence --config c.ini --mx 10 --n 0,10", {"c.ini": _M1D}, 1,
     _USAGE + "--n must be a positive step count\n"),
    ("n-zero-key", "reconstruct --config c.ini --mx 10",
     {"c.ini": _M1D + "\n[discretization]\nn = 0\n"}, 1,
     _USAGE + "--n must be a positive step count\n"),
    ("list-decreasing", "convergence --preset manufactured1d --n 100,50 --mx 40", {}, 1,
     _USAGE + "resolution list must be strictly increasing\n"),
    ("list-outside-convergence", "reconstruct --preset manufactured1d --n 50,100 --mx 40", {}, 1,
     _USAGE + "mode 'reconstruct' takes a single --n value\n"),
    ("zero-fine-factor-exact-m",
     "reconstruct --preset manufactured1d --n 10 --mx 10 --fine-factor 0", {}, 1,
     _USAGE + "--fine-factor ([experiment] fine_factor) has no effect: the problem gives its "
     "measurement (exact m or measurement_file), so no data is generated\n"),
    ("zero-fine-factor", "reconstruct --preset contaminant --fine-factor 0 --n 10 --mx 8", {}, 1,
     _USAGE + "--fine-factor must be >= 1\n"),
    ("zero-my", "reconstruct --config square.cfg --out k.csv",
     {"square.cfg": problem("threshold", **THRESHOLD, ly="1.0")
      + "\n[discretization]\nn = 10\nmx = 4\nmy = 0\n"}, 1,
     _USAGE + "--my must be a positive cell count\n"),
    ("my-1d-flag", "reconstruct --config c.ini --n 10 --mx 10 --my 10", {"c.ini": _M1D}, 1,
     _USAGE + "--my ([discretization] my) has no effect: the problem is 1D\n"),
    ("my-1d-key", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[discretization]\nmy = 10\n"}, 1,
     _USAGE + "--my ([discretization] my) has no effect: the problem is 1D\n"),
    ("seed-outside-noise-sweep", "reconstruct --preset manufactured1d --n 10 --mx 10 --seed 1",
     {}, 1, _USAGE + "--seed ([experiment] seed) has no effect in reconstruct mode\n"),
    ("sweep-without-noise", "noise-sweep --preset manufactured1d --seed 1 --n 10 --mx 8", {}, 1,
     _USAGE + "noise-sweep requires --noise SIGMA[,SIGMA...]\n"),
    ("sweep-without-seed", "noise-sweep --preset manufactured1d --noise 1e-3 --n 10 --mx 8", {},
     1, _USAGE + "noise-sweep requires --seed\n"),
    ("negative-seed-flag", "noise-sweep --config c.ini --n 10 --mx 10 --noise 1e-3 --seed -1",
     {"c.ini": _M1D}, 1, _USAGE + "--seed must be a non-negative integer, got -1\n"),
    ("negative-seed-key", "noise-sweep --config c.ini --n 10 --mx 10 --noise 1e-3",
     {"c.ini": _M1D + "\n[experiment]\nseed = -3\n"}, 1,
     _USAGE + "--seed must be a non-negative integer, got -3\n"),
    ("nan-noise-flag", "noise-sweep --config c.ini --n 10 --mx 10 --noise nan",
     {"c.ini": _M1D + "\n[experiment]\nseed = 1\n"}, 1,
     _USAGE + "--noise levels must be positive and finite, got nan\n"),
    ("inf-noise-flag", "noise-sweep --config c.ini --n 10 --mx 10 --noise 1e-3,inf",
     {"c.ini": _M1D + "\n[experiment]\nseed = 1\n"}, 1,
     _USAGE + "--noise levels must be positive and finite, got inf\n"),
    ("inf-noise-key", "noise-sweep --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\nseed = 1\nnoise = inf\n"}, 1,
     _USAGE + "--noise levels must be positive and finite, got inf\n"),
    ("empty-noise-flag", "reconstruct --config c.ini --n 10 --mx 10 --noise ''",
     {"c.ini": _M1D}, 1,
     _USAGE + "--noise ([experiment] noise) has no effect in reconstruct mode\n"),
    ("comma-noise-flag", "reconstruct --config c.ini --n 10 --mx 10 --noise ,",
     {"c.ini": _M1D}, 1,
     _USAGE + "--noise ([experiment] noise) has no effect in reconstruct mode\n"),
    ("comma-noise-key", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\nnoise = ,\n"}, 1,
     _USAGE + "--noise ([experiment] noise) has no effect in reconstruct mode\n"),
    ("empty-out-flag", "reconstruct --config c.ini --n 10 --mx 10 --out ''",
     {"c.ini": _M1D}, 1, _USAGE + "cannot parse --out '': an empty path names no file\n"),
    ("empty-json-flag", "reconstruct --config c.ini --n 10 --mx 10 --json ''",
     {"c.ini": _M1D}, 1, _USAGE + "cannot parse --json '': an empty path names no file\n"),
    ("empty-out-key", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + '\n[experiment]\nout = ""\n'}, 1,
     _USAGE + "cannot parse [experiment] out = '': an empty path names no file\n"),
    ("empty-json-key", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": _M1D + "\n[experiment]\njson =\n"}, 1,
     _USAGE + "cannot parse [experiment] json = '': an empty path names no file\n"),
    # an option the run would not use
    *[(f"no-exact-kernel-{mode}", f"{mode} --config c.ini --n 10 --mx 10 --out out.csv{more}",
       {"c.ini": problem("manufactured1d", **WITH_M)}, 1,
       f"{_USAGE}{mode} mode needs an exact kernel in the problem\n")
      for mode, more in [("forward", ""), ("roundtrip", ""), ("convergence", ""),
                         ("noise-sweep", " --noise 1e-3 --seed 1")]],
    ("unread-file-exact-m", "reconstruct --config c.ini --n 10 --mx 10 --out out.csv",
     {"c.ini": _M1D + 'measurement_file = "none.csv"\n'}, 1,
     _USAGE + "[measurement_file] conflicts with the problem's exact measurement m; give one "
     "source\n"),
    *[(f"unread-file-{mode}", f"{mode} --config c.ini --n 10 --mx 10 --out out.csv",
       {"c.ini": _CONTAMINANT + 'measurement_file = "none.csv"\n'}, 1,
       f"{_USAGE}[measurement_file] {mode} mode generates its own measurement and reads no file\n")
      for mode in ("forward", "roundtrip")],
    # an option the run would not use, by its flag and by its [experiment] key
    *[(f"{name}-{how}", f"{mode} --config c.ini --n 10 --mx 10 --out out.csv{flagged}",
       {**inputs, "c.ini": inputs["c.ini"] + keyed}, 1,
       f"{_USAGE}{flag.split()[0]} ([experiment] {key.split()[0]}) has no effect{why}\n")
      for name, mode, inputs, flag, key, why in [
          ("roundtrip-derivative", "roundtrip", {"c.ini": _M1D}, "--derivative analytic",
           "derivative = analytic", " in roundtrip mode"),
          ("roundtrip-fine-factor", "roundtrip", {"c.ini": _CONTAMINANT}, "--fine-factor 3",
           "fine_factor = 3", " in roundtrip mode"),
          ("forward-fine-factor", "forward", {"c.ini": _CONTAMINANT}, "--fine-factor 7",
           "fine_factor = 7", " in forward mode"),
          ("forward-force", "forward", {"c.ini": _CONTAMINANT}, "--force", "force = true",
           " in forward mode"),
          ("forward-trace", "forward", {"c.ini": _CONTAMINANT}, "--trace", "trace = true",
           " in forward mode"),
          ("forward-denominator-sign", "forward", {"c.ini": _CONTAMINANT},
           "--kernel-denominator-sign minus", "kernel_denominator_sign = minus",
           " in forward mode"),
          ("exact-m-fine-factor", "reconstruct", {"c.ini": _M1D}, "--fine-factor 3",
           "fine_factor = 3", _BESIDE_DATA),
          ("measurement-file-fine-factor", "reconstruct", _FILE_INPUTS, "--fine-factor 3",
           "fine_factor = 3", _BESIDE_DATA),
          ("noise-sweep-derivative", "noise-sweep", {"c.ini": _M1D}, "--derivative analytic",
           "derivative = analytic", " in noise-sweep mode"),
          ("noise-sweep-derivative-discrete", "noise-sweep", {"c.ini": _CONTAMINANT},
           "--derivative discrete", "derivative = discrete", " in noise-sweep mode"),
          ("measurement-file-derivative", "reconstruct", _FILE_INPUTS, "--derivative discrete",
           "derivative = discrete", _FILE_DERIVATIVE),
          ("measurement-file-derivative-convergence", "convergence", _FILE_INPUTS,
           "--derivative discrete", "derivative = discrete", _FILE_DERIVATIVE),
      ] for how, flagged, keyed in [("flag", f" {flag}", ""),
                                    ("key", "", f"\n[experiment]\n{key}\n")]],
    # an output that names an input or the other output
    ("out-config", "reconstruct --config c.ini --n 10 --mx 10 --out c.ini", _FILE_INPUTS, 1,
     _USAGE + "--out ([experiment] out) and --config name the same file 'c.ini'\n"),
    ("json-config", "reconstruct --config c.ini --n 10 --mx 10 --json c.ini", _FILE_INPUTS, 1,
     _USAGE + "--json ([experiment] json) and --config name the same file 'c.ini'\n"),
    ("out-key-config", "reconstruct --config c.ini --n 10 --mx 10",
     {**_FILE_INPUTS, "c.ini": _FROM_FILE + '\n[experiment]\nout = "c.ini"\n'}, 1,
     _USAGE + "--out ([experiment] out) and --config name the same file 'c.ini'\n"),
    ("out-symlink-config", "reconstruct --config c.ini --n 10 --mx 10 --out link.ini",
     {**_FILE_INPUTS, "link.ini": _Link("c.ini")}, 1,
     _USAGE + "--out ([experiment] out) and --config name the same file 'link.ini'\n"),
    # sub/../x names x through a directory that exists
    ("out-json", "reconstruct --config c.ini --n 10 --mx 10 --out x --json sub/../x",
     {**_FILE_INPUTS, "sub/.keep": ""}, 1,
     _USAGE + "--out ([experiment] out) and --json ([experiment] json) name the same file 'x'\n"),
    ("out-json-key", "reconstruct --config c.ini --n 10 --mx 10 --out x",
     {**_FILE_INPUTS, "c.ini": _FROM_FILE + '\n[experiment]\njson = "x"\n'}, 1,
     _USAGE + "--out ([experiment] out) and --json ([experiment] json) name the same file 'x'\n"),
    ("out-measurement-file", "reconstruct --config c.ini --n 10 --mx 10 --out m.csv",
     _FILE_INPUTS, 1, _USAGE + "--out ([experiment] out) and [problem] measurement_file name "
     "the same file 'm.csv'\n"),
    ("json-key-measurement-file", "reconstruct --config c.ini --n 10 --mx 10",
     {**_FILE_INPUTS, "c.ini": _FROM_FILE + '\n[experiment]\njson = "./m.csv"\n'}, 1,
     _USAGE + "--json ([experiment] json) and [problem] measurement_file name the same file "
     "'./m.csv'\n"),
    # a problem number that is not finite, or a coefficient formed from one
    *[(name, f"reconstruct --config c.ini --n 10 --mx 10 --out k.csv{flags}", {"c.ini": config},
       3, _INVALID + message) for name, config, flags, message in [
          ("omega-nan", problem("manufactured1d", **WITH_M, omega="nan"), "",
           "floor must be positive and finite, got omega=nan\n"),
          ("omega-inf", problem("manufactured1d", **WITH_M, omega="inf"), "",
           "floor must be positive and finite, got omega=inf\n"),
          ("T-inf", problem("manufactured1d", **WITH_M, T="inf"), "",
           "time horizon must be positive and finite, got T=inf\n"),
          ("lx-nan", problem("manufactured1d", **WITH_M, lx="nan"), "",
           "bad domain extents (nan,)\n"),
          ("ly-inf", problem("manufactured1d", **WITH_M, ly="inf"), "",
           "bad domain extents (1.0, inf)\n"),
          ("preset-omega-nan", _M1D + "omega = nan\n", "",
           "floor must be positive and finite, got omega=nan\n"),
          ("kr-nan", _CONTAMINANT + "kr = nan\n", "",
           "contaminant parameter kr must be finite, got nan\n"),
          ("s0-inf", _CONTAMINANT + "s0 = inf\n", "",
           "contaminant parameter s0 must be finite, got inf\n"),
          ("cli-T-nan", problem("manufactured1d", **WITH_M), " --T nan",
           "time horizon must be positive and finite, got T=nan\n"),
          ("cli-T-inf", problem("manufactured1d", **WITH_M), " --T inf",
           "time horizon must be positive and finite, got T=inf\n"),
          ("contaminant-h-overflow", _CONTAMINANT + "s0 = 1e308\nkr = 1e-10\n", "",
           "contaminant h = -s0/(kr kd) is not finite (-inf)\n"),
          ("contaminant-rho_b-over-porosity-overflow",
           _CONTAMINANT + "rho_b = 1e300\nporosity = 1e-300\n", "",
           "contaminant kernel coefficient (rho_b/porosity) kr^2 kd is not finite (inf)\n"),
          ("contaminant-kr-squared-overflow", _CONTAMINANT + "kr = 1e200\n", "",
           "contaminant kernel coefficient (rho_b/porosity) kr^2 kd is not finite (inf)\n"),
      ]],
    # s0 = 0 gives h = -0.0: one message whatever else the section holds
    *[(f"contaminant-zero-h{name}", "reconstruct --config c.ini --n 10 --mx 4",
       {"c.ini": _CONTAMINANT + "s0 = 0\n" + extra}, 3,
       _INVALID + "contaminant h = -s0/(kr kd) is zero (-0.0), which leaves no positive floor\n")
      for name, extra in [("", ""), ("-unknown-key", "bogus = 1\n"), ("-omega", "omega = 1\n")]],
    ("zero-porosity", "reconstruct --config c.ini --n 10 --mx 8",
     {"c.ini": _CONTAMINANT + "porosity = 0\n"}, 3,
     _INVALID + "porosity must be positive, got 0.0\n"),
    ("threshold-violated", "reconstruct --config c.ini --n 20 --mx 10",
     {"c.ini": THRESHOLD_CONFIG}, 3,
     _INVALID + "tau = 0.05 exceeds tau0 = 0.01 (omega = 0.2, |m0| = 10); pass force to run "
     "anyway\n"),
    # 1/tau and 1/dx^2 enter the step's operator: each must be finite, and
    # so must the operator's eigenvalues
    ("tau-zero", "forward --preset contaminant --n 2 --T 5e-324 --mx 2", {}, 3,
     _INVALID + "time step tau = T/n = 4.94066e-324/2 = 0 has no finite 1/tau\n"),
    ("tau-reciprocal-overflows", "forward --preset contaminant --n 3 --T 1e-323 --mx 2", {}, 3,
     _INVALID + "time step tau = T/n = 9.88131e-324/3 = 4.94066e-324 has no finite 1/tau\n"),
    ("dx-square-overflows", "roundtrip --config c.ini --n 4 --mx 2",
     {"c.ini": problem("manufactured1d", **WITH_KERNEL, lx="1e300")}, 3,
     _INVALID + "cell size dx = lx/mx = 1e+300/2: its square overflows\n"),
    ("dx-square-underflows", "roundtrip --config c.ini --n 4 --mx 2",
     {"c.ini": problem("manufactured1d", **WITH_KERNEL, lx="1e-200")}, 3,
     _INVALID + "cell size dx = lx/mx = 1e-200/2: its square underflows\n"),
    ("dy-square-underflows", "roundtrip --config c.ini --n 4 --mx 2",
     {"c.ini": problem("manufactured2d", **variant(MANUFACTURED_2D, m=None, mprime=None,
                                                   ly="1e-200"))}, 3,
     _INVALID + "cell size dy = ly/my = 1e-200/2: its square underflows\n"),
    ("forward-step-operator-overflows",
     "forward --preset manufactured1d --n 10 --T 1e-307 --mx 2", {}, 3,
     _INVALID + "the step's operator overflows for tau = 1e-308, dx = 0.5\n"),
    ("reconstruct-step-operator-overflows",
     "reconstruct --preset manufactured1d --n 10 --T 1e-307 --mx 2", {}, 3,
     _INVALID + "the step's operator overflows for tau = 1e-308, dx = 0.5\n"),
    ("stencil-overflows", "roundtrip --config c.ini --n 4 --mx 2",
     {"c.ini": problem("manufactured2d", **variant(MANUFACTURED_2D, m=None, mprime=None,
                                                   lx="2e-154", ly="2e-154"))}, 3,
     _INVALID + "the step's operator overflows for tau = 0.25, dx = 1e-154, dy = 1e-154\n"),
    # a malformed measurement file is rejected as it is read: no step runs,
    # so no trace row prints
    *[(name, "reconstruct --config c.ini --n 2 --mx 4 --trace --out out.csv",
       {"c.ini": _FROM_FILE, "m.csv": data}, 3, _INVALID + message) for name, data, message in [
          ("row-not-a-number", "t,m\n0,1\n0.5,abc\n1.0,1\n",
           "measurement file data row 2: 'abc' is not a number\n"),
          ("row-missing-column", "t,m\n0,1\n0.5\n1.0,1\n",
           "measurement file data row 2 has 1 column(s), expected at least 2\n"),
          ("row-partial-mprime", "t,m\n0,1\n0.5,1,7\n1.0,1\n",
           "measurement file data row 3 has no m' although other rows after the first "
           "carry one\n"),
          ("row-nan-mprime0", "t,m,mprime\n0,1,nan\n0.5,1,0\n1.0,1,0\n",
           "measurement contains non-finite values\n"),
          ("row-inf-mprime0", "t,m,mprime\n0,1,inf\n0.5,1,0\n1.0,1,0\n",
           "measurement contains non-finite values\n"),
          # a row with a blank t counts, so the file has one row too many
          ("row-blank-t", "t,m\n0,1\n ,99,99\n0.5,1\n1.0,1\n",
           "measurement file has 4 rows (3 steps), expected 3 for n = 2\n"),
          ("row-fourth-value", "t,m,mprime\n0,1.5,1,junk\n0.5,1.5,1,junk\n1.0,1.5,1,junk\n",
           "measurement file data row 1 has a value after m'\n"),
      ]],
    # a convergence list must fit the file before any level runs: no trace row
    ("list-not-a-divisor", "convergence --config c.ini --n 5,6,20 --mx 10 --trace",
     {"c.ini": _KERNEL_FROM_FILE, "m.csv": _measurement_text("t,m", 20, 1.0, 0)}, 3,
     _INVALID + "--n entry 6 does not divide the measurement file's 20 steps\n"),
    ("list-last-is-not-the-file", "convergence --config c.ini --n 5,10 --mx 10 --trace",
     {"c.ini": _KERNEL_FROM_FILE, "m.csv": _measurement_text("t,m", 20, 1.0, 0)}, 3,
     _INVALID + "measurement file has 21 rows (20 steps), expected 11 for n = 10\n"),
    # numerical failures, with no numpy warning among the lines
    ("h0-below-threshold", "reconstruct --config c.ini --n 10 --mx 8",
     {"c.ini": problem("manufactured1d", **variant(WITH_M, h="1e-13", omega="1e-13", m="0"))},
     2, _FAILED + "(h(0),1) = 1.000e-13 too small to define the initial kernel value\n"),
    # the load f = 1e308 overflows in the first step's solve
    ("state-overflows", "reconstruct --config c.ini --n 10 --mx 10",
     {"c.ini": problem("overflow", f="1e308", kernel="0")}, 2, _FAILED + "state is not finite\n"),
    ("kernel-error-overflows", "reconstruct --config c.ini --n 4 --mx 4",
     {"c.ini": problem("kernelerror", kernel="1e200", m="0", mprime="0")}, 2,
     "kernrec: warning: initial kernel value 0 disagrees with the exact kernel at t=0 (1e+200)\n"
     + _FAILED + "errors.kernel_l2 is not finite\n"),
    ("state-error-overflows", "convergence --config c.ini --n 4,8 --mx 4 --force",
     {"c.ini": problem("stateerror", T="100", u0="1e307", kernel="0", m="1e307", mprime="0",
                       u_exact="-1.75e308")}, 2,
     "kernrec: warning: running with tau = 25 >= tau0 = 5e-308; the kernel update may be "
     "ill-conditioned\n"
     "kernrec: warning: running with tau = 12.5 >= tau0 = 5e-308; the kernel update may be "
     "ill-conditioned\n" + _FAILED + "rows[0].diagnostics.max_state_norm_sq is not finite\n"),
    # sigma = 5e-324, the least subnormal: err_inf / sigma overflows
    ("amplification-overflows", "noise-sweep --preset manufactured1d --n 20 --mx 10 "
     "--noise 5e-324 --seed 1 --out n.csv --json n.json", {}, 2,
     _FAILED + "rows[0].amplification is not finite\n"),
    # an output that cannot be written: a failed JSON write takes the CSV with it
    ("out-missing-directory",
     "reconstruct --preset manufactured1d --n 10 --mx 10 --out missing/k.csv", {}, 2,
     _FAILED + "[Errno 2] No such file or directory: 'missing/k.csv'\n"),
    ("json-missing-directory",
     "reconstruct --preset manufactured1d --n 10 --mx 4 --out k.csv --json missing/r.json", {},
     2, _FAILED + "[Errno 2] No such file or directory: 'missing/r.json'\n"),
    ("json-directory", "reconstruct --preset manufactured1d --n 10 --mx 4 --out k.csv --json .",
     {}, 2, _FAILED + "[Errno 21] Is a directory: '.'\n"),
    # runs that succeed
    ("discretization-from-config", "reconstruct --config c.ini --out k.csv",
     {"c.ini": _M1D + "\n[discretization]\nn = 20\nmx = 20\n"}, 0, ""),
    ("threshold-forced", "reconstruct --config c.ini --n 20 --mx 10 --force",
     {"c.ini": THRESHOLD_CONFIG}, 0, THRESHOLD_WARNING),
    ("threshold-forced-key", "reconstruct --config c.ini --n 20 --mx 10",
     {"c.ini": THRESHOLD_CONFIG + "\n[experiment]\nforce = On\n"}, 0, THRESHOLD_WARNING),
]


@pytest.mark.parametrize(
    "argv, inputs, code, stderr", [pytest.param(*row, id=name) for name, *row in CLI_CASES]
)
def test_cli_case(tmp_path, monkeypatch, capsys, argv, inputs, code, stderr):
    monkeypatch.chdir(tmp_path)
    for name, text in inputs.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if isinstance(text, _Link):
            path.symlink_to(text)
        else:
            path.write_text(text, encoding="utf-8")
    args = shlex.split(argv)
    assert run_cli(args) == code
    assert capsys.readouterr() == ("", stderr)
    left = {  # each file's text, and each link's target
        path.relative_to(tmp_path).as_posix():
            _Link(os.readlink(path)) if path.is_symlink() else path.read_text(encoding="utf-8")
        for path in tmp_path.rglob("*") if path.is_symlink() or path.is_file()
    }
    outputs = {name for flag, name in zip(args, args[1:]) if flag in ("--out", "--json")}
    assert set(left) == set(inputs) | (outputs if code == 0 else set())
    assert {name: left[name] for name in inputs} == inputs


class TestReconstructCommand:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "100",
             "--mx", "200", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == KERNEL_CSV_HEADER
        assert len(lines) - 1 == 101  # n+1 data rows
        last = lines[-1].split(",")
        assert abs(float(last[0]) - 1.0) < 1e-12
        assert float(last[3]) < 0.05  # abs_err column against exp(-t)

    def test_zero_problem_outputs_zero_column(self, tmp_path):
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "zero1d", "--n", "50", "--mx", "50",
             "--out", str(out)]
        )
        assert code == 0
        for line in _read(out).strip().split("\n")[1:]:
            assert line.split(",")[1] == "0"

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["reconstruct", "--preset", "manufactured1d", "--n", "40", "--mx", "40"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_report_schema(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--json", str(report_path)]
        )
        assert code == 0
        report = json.loads(_read(report_path))
        assert report["mode"] == "reconstruct"
        assert set(report["diagnostics"]) == {
            "max_abs_kernel",
            "max_state_norm_sq",
            "grad_energy",
            "state_increment_sum_sq",
            "max_grad_norm_sq",
            "time_derivative_energy",
            "grad_increment_sum_sq",
            "laplacian_energy",
            "kernel_derivative_energy",
            "min_denominator_magnitude",
            "max_compat_residual",
            "max_data_misfit",
            "initial_mismatch",
        }
        assert report["threshold"]["passed"] is True
        assert "kernel_inf" in report["errors"]
        assert "total_seconds" in report["timings"]

    def test_trace_rows_on_stderr(self, capsys):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
             "--trace"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("step=") == 10
        assert "den=" in err and "resid=" in err

    def test_trace_rows_before_a_fault(self, tmp_path, capsys):
        # f is read at t_{i-1}: step 6 meets t = 0.5 and fails; steps 1..5
        # have printed their rows, residual included, by then
        config = write_config(
            tmp_path, problem("fault", f="1/(t - 0.5)", m="0", mprime="0"), "fault.ini"
        )
        code = run_cli(["reconstruct", "--config", str(config), "--n", "10", "--mx", "8",
                        "--trace"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        rows = [line for line in lines if line.startswith("step=")]
        assert [row.split()[0] for row in rows] == [f"step={i}" for i in range(1, 6)]
        assert all(re.search(r"resid=\d\.\d{3}e[+-]\d+$", row) for row in rows)
        assert "division by zero" in lines[-1]

    def test_synthetic_data_path(self, tmp_path):
        # contaminant has no exact measurement: data must be generated
        # on a finer grid and restricted
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "contaminant", "--n", "50", "--mx", "40",
             "--fine-factor", "4", "--out", str(out)]
        )
        assert code == 0
        rows = _read(out).strip().split("\n")[1:]
        rec = np.array([float(r.split(",")[1]) for r in rows])
        ref = np.array([float(r.split(",")[2]) for r in rows])
        assert np.abs(rec - ref).max() < 0.1


class TestDataMisfit:
    """A measurement file that contradicts the problem reconstructs with an
    identity residual at roundoff; the report's misfit of M_i = (u_i,1) to
    the data m_i shows the contradiction."""

    @pytest.mark.parametrize("column, factor, misfit, mismatch", [
        (None, 1.0, 2.220446049250313e-16, 0.0),
        ("m", 1.5, 0.5, 0.5),  # m_0 = 1.5 against (u_0,1) = 1
        ("mprime", 2.0, 1.5816032632556543, 0.0),
    ], ids=["consistent", "m-times-1.5", "mprime-times-2"])
    def test_report_shows_the_misfit(self, tmp_path, column, factor, misfit, mismatch):
        data = tmp_path / "m.csv"
        grid = ["--n", "40", "--mx", "20"]
        assert run_cli(["forward", "--preset", "contaminant", *grid, "--out", str(data)]) == 0
        header, *rows = _read(data).splitlines()
        if column is not None:
            k = header.split(",").index(column)
            cells = [row.split(",") for row in rows]
            rows = [",".join([*c[:k], repr(float(c[k]) * factor), *c[k + 1 :]]) for c in cells]
        data.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, "[problem]\npreset = contaminant\nmeasurement_file = m.csv\n")
        report = tmp_path / "r.json"
        assert run_cli(["reconstruct", "--config", str(cfg), *grid, "--json", str(report)]) == 0
        diagnostics = json.loads(_read(report))["diagnostics"]
        assert diagnostics["max_compat_residual"] < 1e-13
        assert diagnostics["max_data_misfit"] == pytest.approx(misfit, rel=1e-9, abs=1e-15)
        assert diagnostics["initial_mismatch"] == pytest.approx(mismatch, rel=1e-9, abs=1e-15)


class TestForwardCommand:
    def test_writes_measurement_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run_cli(
            ["forward", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--out", str(out), "--derivative", "discrete"]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == MEASUREMENT_CSV_HEADER
        assert len(lines) - 1 == 41
        m_last = float(lines[-1].split(",")[1])
        assert abs(m_last - 2.0) < 0.05

    @pytest.mark.parametrize(
        "problem,n,mx",
        [(problem("manufactured1d", **WITH_KERNEL), 40, 40),
         (problem("manufactured2d", **variant(MANUFACTURED_2D, m=None, mprime=None)), 20, 12)],
        ids=["1d", "2d"],
    )
    def test_measurement_file_feeds_reconstruct(self, tmp_path, problem, n, mx):
        # the file of a discrete forward run reconstructs, bit for bit, to
        # the kernel that roundtrip gets from the same data in memory
        data, plain = tmp_path / "m.csv", write_config(tmp_path, problem)
        from_file = write_config(tmp_path, problem + f'measurement_file = "{data}"\n', "f.cfg")
        grid = ["--n", str(n), "--mx", str(mx)]
        assert run_cli(["forward", "--config", str(plain), *grid, "--out", str(data),
                        "--derivative", "discrete"]) == 0
        kernels = {}
        for mode, cfg in (("roundtrip", plain), ("reconstruct", from_file)):
            out = tmp_path / f"{mode}.csv"
            assert run_cli([mode, "--config", str(cfg), *grid, "--out", str(out)]) == 0
            kernels[mode] = [row.split(",")[:2] for row in _read(out).splitlines()]
        assert kernels["reconstruct"] == kernels["roundtrip"]
        # the file's n is a convergence list's last, restricted to each level
        levels = f"{n // 4},{n // 2},{n}"
        assert run_cli(["convergence", "--config", str(from_file), "--n", levels,
                        "--mx", str(mx)]) == 0


class TestRoundtripCommand:
    def test_roundtrip_small_error(self, tmp_path):
        out = tmp_path / "k.csv"
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["roundtrip", "--preset", "manufactured1d", "--n", "50", "--mx", "50",
             "--out", str(out), "--json", str(report_path)]
        )
        assert code == 0
        rows = _read(out).strip().split("\n")[1:]
        abs_err = max(float(r.split(",")[3]) for r in rows)
        assert abs_err <= 1e-8
        report = json.loads(_read(report_path))
        assert report["roundtrip"]["kernel_max_error"] <= 1e-8
        assert report["roundtrip"]["state_max_error"] <= 1e-8


class TestConvergenceCommand:
    def test_table_and_eoc(self, tmp_path):
        out = tmp_path / "table.csv"
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["convergence", "--preset", "manufactured1d", "--n", "25,50,100",
             "--mx", "100", "--out", str(out), "--json", str(report_path)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == TABLE_CSV_HEADER
        assert len(lines) - 1 == 3
        first_eoc = lines[1].split(",")[5]
        assert first_eoc == EOC_UNDEFINED
        later = [float(line.split(",")[5]) for line in lines[2:]]
        assert all(0.5 <= e <= 1.5 for e in later)
        report = json.loads(_read(report_path))
        assert len(report["rows"]) == 3
        assert report["rows"][1]["eoc"] is not None

    def test_single_row_has_no_eoc(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            ["convergence", "--preset", "manufactured1d", "--n", "20",
             "--mx", "40", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[5] == EOC_UNDEFINED

    def test_zero_errors_render_as_dash(self, tmp_path):
        # exact reconstruction of the zero problem: every error is 0,
        # so no EOC is defined anywhere in the table
        out = tmp_path / "table.csv"
        code = run_cli(
            ["convergence", "--preset", "zero1d", "--n", "10,20",
             "--mx", "10", "--out", str(out)]
        )
        assert code == 0
        for line in _read(out).strip().split("\n")[1:]:
            fields = line.split(",")
            assert float(fields[2]) == 0.0
            assert fields[5] == EOC_UNDEFINED

    def test_convergence_restricts_the_measurement_file(self, tmp_path, capsys):
        data = tmp_path / "m.csv"
        assert run_cli(["forward", "--preset", "manufactured1d", "--n", "200", "--mx", "20",
                        "--out", str(data)]) == 0
        cfg = write_config(
            tmp_path, problem("manufactured1d", **WITH_KERNEL, measurement_file=str(data)), "f.cfg"
        )
        table = tmp_path / "t.csv"
        argv = ["convergence", "--config", str(cfg), "--mx", "20"]
        assert run_cli([*argv, "--n", "50,100,200", "--out", str(table)]) == 0
        eoc = [row.split(",")[-1] for row in _read(table).splitlines()[1:]]
        assert eoc[0] == EOC_UNDEFINED and all(0.9 < float(e) < 1.2 for e in eoc[1:])
        # every level restricts the file's 200 steps
        capsys.readouterr()
        assert run_cli([*argv, "--n", "30,200"]) == 3
        assert capsys.readouterr().err == (
            "kernrec: validation failure: "
            "--n entry 30 does not divide the measurement file's 200 steps\n"
        )

    def test_convergence_parses_the_measurement_file_once(self, tmp_path, monkeypatch):
        data = tmp_path / "m.csv"
        assert run_cli(["forward", "--preset", "manufactured1d", "--n", "20", "--mx", "10",
                        "--out", str(data)]) == 0
        config = problem("manufactured1d", **WITH_KERNEL, measurement_file=str(data))
        file_config = write_config(tmp_path, config, "f.cfg")
        parsed = []

        def spy(text, timegrid):
            parsed.append(timegrid.n)
            return measurement_from_csv(text, timegrid)

        monkeypatch.setattr(harness, "measurement_from_csv", spy)
        argv = ["convergence", "--config", str(file_config), "--n", "5,10,20", "--mx", "10"]
        assert run_cli(argv) == 0
        assert parsed == [20]

    def test_relative_measurement_file_is_read_beside_its_config(self, tmp_path, monkeypatch):
        # sub/c.ini names m.csv beside it: run from sub's parent, the kernel
        # is the one of a run from inside sub
        sub = tmp_path / "sub"
        sub.mkdir()
        assert run_cli(["forward", "--preset", "manufactured1d", "--n", "20", "--mx", "10",
                        "--out", str(sub / "m.csv")]) == 0
        config = problem("manufactured1d", **WITH_KERNEL, measurement_file="m.csv")
        write_config(sub, config, "c.ini")
        kernels = []
        for cwd, path in ((tmp_path, "sub/c.ini"), (sub, "c.ini")):
            monkeypatch.chdir(cwd)
            argv = ["reconstruct", "--config", path, "--n", "20", "--mx", "10", "--out", "k.csv"]
            assert run_cli(argv) == 0
            kernels.append(_read(cwd / "k.csv"))
        assert kernels[0] == kernels[1]


class TestNoiseSweep:
    def test_reports_amplification(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run_cli(
            ["noise-sweep", "--preset", "manufactured1d", "--n", "50", "--mx", "50",
             "--noise", "0.0001,0.001", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == NOISE_CSV_HEADER
        assert len(lines) - 1 == 2
        for line in lines[1:]:
            sigma, err_inf, amp = (float(v) for v in line.split(","))
            assert err_inf > 0 and amp == pytest.approx(err_inf / sigma)

    def test_deterministic_given_seed(self, tmp_path):
        argv = ["noise-sweep", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
                "--noise", "0.001", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "problem,n,mx",
        [("[problem]\npreset = manufactured1d\n", 40, 20),
         ("[problem]\npreset = contaminant\n", 40, 20),
         ("[problem]\npreset = contaminant\nv = 0.5\n", 40, 20),
         (problem("manufactured2d", **variant(MANUFACTURED_2D, m=None, mprime=None)), 10, 6)],
        ids=["manufactured1d", "contaminant", "contaminant-advection", "manufactured2d"],
    )
    def test_rows_carry_their_own_evidence(self, tmp_path, problem, n, mx):
        # each JSON row's evidence is that of a direct reconstruct call on the
        # same sigma and the same draws of the seeded generator, whether f
        # reads no state (manufactured), u (contaminant) or p (advection)
        cfg_path, report = write_config(tmp_path, problem), tmp_path / "r.json"
        argv = ["noise-sweep", "--config", str(cfg_path), "--n", str(n), "--mx", str(mx),
                "--noise", "1e-4,1e-3", "--seed", "5", "--json", str(report)]
        assert run_cli(argv) == 0
        rows = json.loads(_read(report))["rows"]
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = cfg.grids()
        base = harness.acquire_measurement(cfg, grid, tg)
        ref = harness.kernel_reference(cfg.spec, tg)
        rng = np.random.default_rng(5)
        for sigma, row in zip([1e-4, 1e-3], rows, strict=True):
            result = kernrec.reconstruct(cfg.spec, grid, tg, base.with_noise(sigma, rng))
            err = np.abs(result.kernel - ref)
            assert row["sigma"] == sigma
            assert row["err_inf"] == float(np.max(err))
            assert row["err_inf_after_0"] == float(np.max(err[1:]))
            assert row["max_compat_residual"] == float(np.max(result.compat_residuals))
            assert row["min_denominator_magnitude"] == float(
                np.min(np.abs(result.denominators))
            )

    def test_traced_sweep_prints_level_by_level(self, capsys):
        # the levels march together, but each one's K_0 warning, then its
        # trace rows, come after the level before it, as when reconstructed
        # one after another
        sigmas = [1e-4, 1e-3, 1e-2]
        argv = ["noise-sweep", "--preset", "contaminant", "--n", "20", "--mx", "10",
                "--noise", ",".join(map(repr, sigmas)), "--seed", "5", "--trace"]
        assert harness.main(argv) == 0
        swept = capsys.readouterr().err
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = cfg.grids()
        base = harness.acquire_measurement(cfg, grid, tg)
        rng = np.random.default_rng(5)
        for sigma in sigmas:
            harness._run_reconstruction(cfg, grid, tg, base.with_noise(sigma, rng))
        assert swept == capsys.readouterr().err
        # a later level warns after the rows of the first
        assert "kernrec: warning" in swept[swept.index("step=20 "):]

    def test_fault_in_a_later_level_comes_after_the_levels_before_it(self, tmp_path, capsys):
        # with the minus sign, (h,1) - m0 tau = 1 - 10 * 0.1 is exactly 0: the
        # second level's noise is too small to move m0, so its first update
        # divides by 0; the first level's moves m0 and reconstructs
        cfg = write_config(tmp_path, CONFIGS["secondlevelfault.ini"])
        argv = ["noise-sweep", "--config", str(cfg), "--n", "10", "--mx", "4",
                "--noise", "0.1,1e-300", "--seed", "1", "--force",
                "--kernel-denominator-sign", "minus", "--trace"]
        code = harness.main(argv)
        swept = capsys.readouterr().err
        assert code == harness.EXIT_NUMERICAL
        config = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = config.grids()
        base = harness.acquire_measurement(config, grid, tg)
        rng = np.random.default_rng(1)
        first, second = (base.with_noise(sigma, rng) for sigma in (0.1, 1e-300))
        harness._run_reconstruction(config, grid, tg, first)
        with pytest.raises(errors.SingularUpdateError) as fault:
            harness._run_reconstruction(config, grid, tg, second)
        expected = capsys.readouterr().err + f"kernrec: numerical failure: {fault.value}\n"
        assert swept == expected
        assert swept.count("step=") == 10  # the first level's rows, and none of the second's
        assert swept.endswith(
            "kernrec: numerical failure: kernel-update denominator 0.000e+00 below 1e-12 "
            "at step 1\n"
        )

    def test_failed_draw_ends_the_sweep_after_the_levels_before_it(self, capsys):
        # the second level's samples overflow: the first level's rows, then
        # the draw's failure, as when the levels run one after another
        argv = ["noise-sweep", "--preset", "manufactured1d", "--n", "10", "--mx", "8",
                "--noise", "1e-3,1e308", "--seed", "2", "--trace"]
        assert run_cli(argv) == harness.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        # the first level's noisy K_0 disagrees with the exact kernel
        assert err[0].startswith("kernrec: warning: initial kernel value ")
        assert [line.split()[0] for line in err[1:-1]] == [f"step={i}" for i in range(1, 11)]
        assert err[-1] == ("kernrec: validation failure: noise of sigma = 1e+308 made the "
                           "measurement samples overflow")

    def test_batch_fault_is_raised_when_every_level_alone_succeeds(self, monkeypatch, capsys):
        # the march of the batch faults, but no level does when rerun alone:
        # the batch's error ends the sweep, after each level's warnings
        calls, reconstruct = [], harness.reconstruct

        def batch_faults(spec, grid, timegrid, measurement, **kwargs):
            calls.append(type(measurement))
            if isinstance(measurement, list):
                raise errors.NumericalError("the batch faults")
            return reconstruct(spec, grid, timegrid, measurement, **kwargs)

        monkeypatch.setattr(harness, "reconstruct", batch_faults)
        argv = ["noise-sweep", "--preset", "contaminant", "--n", "10", "--mx", "8",
                "--noise", "1e-6,1e-5", "--seed", "1"]
        assert harness.main(argv) == harness.EXIT_NUMERICAL
        assert calls == [list, MeasurementSeries, MeasurementSeries]
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "kernrec: numerical failure: the batch faults"
        assert len(err) == 3 and all(line.startswith("kernrec: warning: ") for line in err[:-1])


class TestConfigHandling:

    @pytest.mark.parametrize("key", ["", "T = 2.0\n", "T = abc\n"], ids=["none", "other", "bad"])
    def test_T_flag_is_the_problem_T(self, tmp_path, key):
        # --T stands in for a missing [problem] T, and wins over a given one unparsed
        out = tmp_path / "k.csv"
        cfg = write_config(tmp_path, problem("manufactured1d", **WITH_M, T=None) + key)
        argv = ["reconstruct", "--config", str(cfg), "--n", "4", "--mx", "8", "--out", str(out)]
        assert run_cli([*argv, "--T", "1"]) == 0
        flagged = _read(out)
        write_config(tmp_path, problem("manufactured1d", **WITH_M))
        assert run_cli(argv) == 0
        assert flagged == _read(out)

    def test_deep_nesting_is_usage_error(self, tmp_path):
        deep = "(" * 3000 + "0" + ")" * 3000
        cfg = write_config(tmp_path, problem("manufactured1d", **WITH_M, g=deep))
        proc = subprocess.run(
            [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
             "--n", "10", "--mx", "10"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert "usage error: [g] cannot parse expression" in proc.stderr
        assert "nested deeper" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flaw", ["byte-order mark", "latin-1 byte"])
    @pytest.mark.parametrize("target", ["config", "measurement file"])
    def test_text_input_decodes_or_fails_in_one_line(self, tmp_path, capsys, target, flaw):
        data = tmp_path / "m.csv"
        cfg = write_config(
            tmp_path, f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n'
        )
        # headerless, so that a mark read as text would turn row 1 into a
        # header; m' = -2 gives the contaminant's K_0 = -1
        nodes = np.linspace(0.0, 1.0, 11).tolist()
        data.write_text("".join(f"{t!r},{1 - 2 * t!r}\n" for t in nodes), encoding="utf-8")
        argv = ["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"]
        clean, out = tmp_path / "clean.csv", tmp_path / "out.csv"
        assert run_cli([*argv, "--out", str(clean)]) == 0
        path = cfg if target == "config" else data
        raw = path.read_bytes()
        if flaw == "byte-order mark":
            path.write_bytes(b"\xef\xbb\xbf" + raw)
        else:  # a Latin-1 comment line
            path.write_bytes(raw + b"# caf\xe9\n")
        capsys.readouterr()
        code = run_cli([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        if flaw == "byte-order mark":  # read past, as if it were not there
            assert (code, err) == (0, "")
            assert _read(out) == _read(clean)
        else:
            assert code == 1 and not out.exists()
            assert err == (f"kernrec: usage error: cannot read {target} {path}: 'utf-8' codec "
                           f"can't decode byte 0xe9 in position {len(raw) + 5}: "
                           "invalid continuation byte\n")

    @pytest.mark.parametrize("source", ["cli", "config"])
    @pytest.mark.parametrize(
        "mode,problem",
        [("reconstruct", "preset = contaminant"), ("forward", "preset = contaminant"),
         ("convergence", "preset = contaminant"),
         ("reconstruct", problem("manufactured1d", **variant(WITH_M, mprime=None))
          .removeprefix("[problem]\n"))],
        ids=["generated-data", "forward", "convergence", "exact-m"],
    )
    def test_analytic_derivative_without_exact_mprime_is_usage_error(
        self, tmp_path, capsys, mode, problem, source
    ):
        # the run would difference M instead, while the echo said analytic
        experiment = "derivative = analytic\n" if source == "config" else ""
        cfg = write_config(tmp_path, f"[problem]\n{problem}\n[experiment]\n{experiment}")
        out = tmp_path / "out.csv"
        argv = [mode, "--config", str(cfg), "--n", "10", "--mx", "10", "--out", str(out)]
        code = run_cli(argv + (["--derivative", "analytic"] if source == "cli" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "--derivative ([experiment] derivative) analytic needs an exact m'" in err
        assert not out.exists()
        # left to its default, the same run differences M and says so
        write_config(tmp_path, f"[problem]\n{problem}\n")
        assert run_cli([*argv, "--json", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert report["config"]["derivative"] == "discrete"
        if mode != "convergence":
            source_of = report.get("measurement", report).get("derivative_source")
            assert source_of == "discrete-difference"

    def test_config_echo_states_what_the_run_used(self, tmp_path):
        # a t,m file leaves --derivative and --fine-factor unused; m' = -2
        # gives the contaminant's K_0 = -1
        data = tmp_path / "m#1.csv"
        nodes = np.linspace(0.0, 1.0, 11).tolist()
        data.write_text("t,m\n" + "".join(f"{t!r},{1 - 2 * t!r}\n" for t in nodes),
                        encoding="utf-8")
        cfg = write_config(
            tmp_path,
            f'[problem]\npreset = contaminant  # comment\nmeasurement_file = "{data}"\n',
        )
        report = tmp_path / "r.json"
        argv = ["--config", str(cfg), "--n", "10", "--mx", "10", "--json", str(report)]
        assert run_cli(["reconstruct", *argv]) == 0
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert (echo["derivative"], echo["fine_factor"]) == (None, None)
        assert (echo["force"], echo["denominator_sign"]) == (False, 1.0)
        assert echo["measurement_file"] == str(data)
        # a forward run reconstructs nothing and reads no file
        write_config(tmp_path, "[problem]\npreset = contaminant\n")
        assert run_cli(["forward", *argv]) == 0
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert (echo["derivative"], echo["fine_factor"]) == ("discrete", None)
        assert (echo["force"], echo["denominator_sign"], echo["measurement_file"]) == (
            None, None, None
        )

    def test_out_of_range_literal_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, problem("manufactured1d", **WITH_M, kernel="2e308*t"))
        proc = subprocess.run(
            [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
             "--n", "10", "--mx", "10"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert "usage error: [kernel] cannot parse expression" in proc.stderr
        assert "'2e308' is out of range (byte offset 0)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_is_validated_on_construction(self):
        # convergence_study and the mode runners rely on a validated config
        spec = replace(make_preset("contaminant"), kernel_exact=None)
        with pytest.raises(errors.UsageError, match="needs an exact kernel"):
            harness.ExperimentConfig(mode="convergence", spec=spec, n_list=[10, 20], mx=10)


# The expected option x mode matrix, written out here and not read from the
# harness, so that a wrong row of harness.OPTIONS fails the test below.
_ALL_MODES = ("forward", "reconstruct", "roundtrip", "convergence", "noise-sweep")
_RECONSTRUCTING = ("reconstruct", "roundtrip", "convergence", "noise-sweep")
# key: (section, text, ExperimentConfig field, value it arrives as, modes that use it)
_OPTION_MATRIX = {
    "n": ("discretization", "12", "n_list", [12], _ALL_MODES),
    "mx": ("discretization", "12", "mx", 12, _ALL_MODES),
    "my": ("discretization", "6", "my", 6, _ALL_MODES),
    "out": ("experiment", "k.csv", "out", "k.csv", _ALL_MODES),
    "json": ("experiment", "r.json", "json_path", "r.json", _ALL_MODES),
    "derivative": ("experiment", "discrete", "derivative", "discrete",
                   ("forward", "reconstruct", "convergence")),
    "fine_factor": ("experiment", "3", "fine_factor", 3,
                    ("reconstruct", "convergence", "noise-sweep")),
    "noise": ("experiment", "0.01,0.02", "noise_sigmas", [0.01, 0.02], ("noise-sweep",)),
    "seed": ("experiment", "5", "seed", 5, ("noise-sweep",)),
    "force": ("experiment", "true", "force", True, _RECONSTRUCTING),
    "trace": ("experiment", "true", "trace", True, _RECONSTRUCTING),
    "kernel_denominator_sign": ("experiment", "minus", "denominator_sign", -1.0,
                                _RECONSTRUCTING),
}

# 2D, with an exact kernel and no measurement: every mode accepts it and
# generates its data, so only the mode decides whether an option is used
_MATRIX_PROBLEM = problem("matrix", u0="1", ly="1.0", kernel="exp(-t)")


@pytest.mark.parametrize("source", ["flag", "key"])
@pytest.mark.parametrize("mode", _ALL_MODES)
@pytest.mark.parametrize("key", list(_OPTION_MATRIX))
def test_option_mode_matrix(tmp_path, capsys, key, mode, source):
    section, text, field, value, used_by = _OPTION_MATRIX[key]
    flag = "--" + key.replace("_", "-")
    # what the mode needs besides the option under test
    needed = {"n": "4", "mx": "4"}
    if mode == "noise-sweep":
        needed.update(noise="0.001", seed="1")
    needed.pop(key, None)
    config = _MATRIX_PROBLEM
    argv = [mode]
    for name, given in needed.items():
        argv += [f"--{name}", given]
    if source == "key":
        config += f"\n[{section}]\n{key} = {text}\n"
    else:
        argv += [flag] if key in ("force", "trace") else [flag, text]
    argv += ["--config", str(write_config(tmp_path, config))]
    if mode in used_by:
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        assert getattr(cfg, field) == value
    else:
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag} ([{section}] {key}) has no effect in {mode} mode" in err


# Whole command lines through run_cli: a mode, a problem source, and each
# option unset, valid or invalid, given by its flag or by its config key.
_CLI_SOURCES = {  # name: [problem] section
    "manufactured1d": "preset = manufactured1d\n",
    "contaminant": "preset = contaminant\n",
    "zero1d": "preset = zero1d\n",
    "inline-2d": _MATRIX_PROBLEM.removeprefix("[problem]\n"),
    "inline-no-kernel": problem("manufactured1d", **WITH_M).removeprefix("[problem]\n"),
    # manufactured1d with its measurement read from a file the test writes
    "measurement-file": problem(
        "manufactured1d", **WITH_KERNEL, measurement_file="<measurement>"
    ).removeprefix("[problem]\n"),
}
_MEASUREMENT_FILE = "m#1.csv"  # a quoted config value may hold a #
# the modes that read a measurement file; convergence, which restricts it
# to each level, first, as a draw favours the first entry
_FILE_MODES = ["convergence", "reconstruct", "noise-sweep"]
# a valid t,m[,mprime] file, or one with a malformed data row
_MEASUREMENT_KINDS = ["t,m,mprime", "t,m", "m not a number", "no m", "value after m'",
                      "one row short"]
# the report's config echo names these options' fields otherwise
_ECHO_KEYS = {"n_list": "n", "noise_sigmas": "noise"}
# what each source's problem gives: an exact m, an exact m' and a second axis
_SOURCE_DATA = {
    "manufactured1d": (True, True, False),
    "contaminant": (False, False, False),
    "zero1d": (True, True, False),
    "inline-2d": (False, False, True),
    "inline-no-kernel": (True, True, False),
    "measurement-file": (False, False, False),
}
# _FRESH is a new file in the run's directory, _MISSING one in a directory
# that does not exist; no size is large enough to need a capped address space
_FRESH, _MISSING = "<fresh>", "<missing>"
_OUTPUT_NAMES = {"out": "k.csv", "json": "r.json"}
_CLI_VALUES = {  # key: (valid texts, invalid texts)
    "n": (["4", "20", "5,10"], ["0", "-2", "x", "10,5", ""]),
    "mx": (["3", "10"], ["0", "-1", "1.5"]),
    "my": (["4"], ["0", "y"]),
    "out": ([_FRESH], [_MISSING, ""]),
    "json": ([_FRESH], [_MISSING, ""]),
    "derivative": (["analytic", "discrete"], ["both"]),
    "fine_factor": (["1", "2"], ["0", "two"]),
    "noise": (["1e-3", "1e-4,1e-3"], ["-1", "nan", ""]),
    "seed": (["7"], ["-1", "x"]),
    "force": (["true", "off"], ["maybe"]),
    "trace": (["true"], ["maybe"]),
    "kernel_denominator_sign": (["plus", "minus"], ["up"]),
}


def test_cli_values_cover_every_option():
    assert set(_CLI_VALUES) == {opt.key for opt in harness.OPTIONS}


def _echo_of_unset(key: str, mode: str, source: str, mx: int):
    """The config echo of an option left unset: its default where the run
    uses it, else None."""
    exact_m, exact_mprime, two_axes = _SOURCE_DATA[source]
    from_file = source == "measurement-file"
    if key == "my":
        return mx if two_axes else None
    if key == "derivative" and mode in ("forward", "reconstruct", "convergence") and not from_file:
        return "analytic" if exact_mprime else "discrete"
    if key == "fine_factor" and mode in ("reconstruct", "convergence", "noise-sweep"):
        return None if exact_m or from_file else 4
    if mode != "forward":
        return {"force": False, "kernel_denominator_sign": 1.0}.get(key)
    return None


# lines before a config line, and a comment after it
_DECORATIONS = st.tuples(
    st.sampled_from([[], [""], ["# a comment line"]]), st.sampled_from(["", "  # a comment"])
)


def _config_text(data, sections: dict[str, str], valid: bool) -> tuple[str, str | None]:
    """``sections`` as config text, with blank and comment lines and
    trailing comments drawn in, and now and then, unless ``valid``, one key
    line given twice.  Returns the text and, for a repeated key, the error
    that must name it."""
    twice = not valid and data.draw(
        st.sampled_from([False] * 5 + [True]), label="a key given twice"
    )
    lines, repeated = [], None
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for line in body.splitlines():
            before, comment = data.draw(_DECORATIONS, label="decoration")
            lines += [*before, line + comment]
            if twice and repeated is None and data.draw(st.booleans(), label=f"{line} twice"):
                lines.append(line)
                repeated = f"key '{line.split('=')[0].strip()}' repeated in [{name}]"
    return "\n".join(lines) + "\n", repeated


def _cli_option_text(data, opt, mode, broken, unused_too, file_run):
    """The text drawn for one option, or None to leave it unset.  In a
    ``file_run``, n is a list in convergence, whose levels restrict the
    file's rows at its last n, and one step count in the other modes."""
    needed = {"n", "mx"} | ({"noise", "seed"} if mode == "noise-sweep" else set())
    valid, invalid = _CLI_VALUES[opt.key]
    if file_run and opt.key == "n":
        valid = [text for text in valid if ("," in text) == (mode == "convergence")]
    if opt.key == broken:  # leaving out a value the run needs is invalid too
        choices = invalid + [None] if opt.key in needed else invalid
    elif opt.key in needed:
        choices = valid
    elif not unused_too and (mode not in opt.modes or opt.rule is not None):
        choices = [None]  # an option the problem's data may leave unused has a rule
    else:
        choices = valid + [None]
    return data.draw(st.sampled_from(choices), label=opt.key)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_whole_command_lines(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("cli")
    source = data.draw(st.sampled_from(sorted(_CLI_SOURCES)), label="source")
    problem = _CLI_SOURCES[source]
    # most runs on a measurement file draw a valid file, a mode that reads
    # it and only valid options the run uses, so that the run can succeed
    file_run = source == "measurement-file" and data.draw(
        st.sampled_from([True] * 3 + [False]), label="a valid file run"
    )
    mode = data.draw(st.sampled_from(_FILE_MODES if file_run else _ALL_MODES), label="mode")
    # at most one invalid value, so that the run can get past the others
    broken, unused_too = None, False
    if not file_run:
        broken = data.draw(st.sampled_from([None] * 4 + ["T", *_CLI_VALUES]), label="invalid")
        unused_too = data.draw(
            st.sampled_from([False] * 3 + [True]), label="options it may not use"
        )
    argv = [mode]
    sections = {"problem": "", "discretization": "", "experiment": ""}
    if problem.startswith("preset") and data.draw(st.booleans(), label="--preset"):
        argv += ["--preset", source]
    else:
        sections["problem"] = problem
    horizon = data.draw(st.sampled_from(["nan", "-1"] if broken == "T" else [None, "0.5"]))
    if horizon is not None:
        argv += ["--T", horizon]
    outputs, tracing, stray, given = [], False, False, {}
    for opt in harness.OPTIONS:
        text = _cli_option_text(data, opt, mode, broken, unused_too, file_run)
        if text is None:
            continue
        if text in (_FRESH, _MISSING):
            path = work / ("missing" if text == _MISSING else "") / _OUTPUT_NAMES[opt.key]
            outputs.append(path)
            text = str(path)
        switch = opt.key in ("force", "trace") and opt.key != broken
        tracing |= opt.key == "trace" and switch
        if data.draw(st.booleans(), label=f"{opt.flag} by flag"):
            argv += [opt.flag] if switch else [opt.flag, text]
            text = "true" if switch else text
            # a switch's flag takes no value: the value is a stray argument
            stray |= opt.key in ("force", "trace") and not switch
        else:
            sections[opt.section] += f'{opt.key} = "{text}"\n'
        given[opt.key] = text
    kind = None
    if source == "measurement-file":
        kinds = _MEASUREMENT_KINDS[:2] if file_run else _MEASUREMENT_KINDS
        kind = data.draw(st.sampled_from(kinds), label="measurement file")
        # rows for T and the drawn n, a list's last, which convergence
        # restricts to each level; for n = 4 when n is not valid
        n = int(given["n"].split(",")[-1]) if broken != "n" else 4
        bad_row = data.draw(st.integers(0, n), label="malformed row")
        measurement = work / _MEASUREMENT_FILE
        measurement.write_text(
            _measurement_text(kind, n, 0.5 if horizon else 1.0, bad_row), encoding="utf-8"
        )
        sections["problem"] = problem.replace("<measurement>", str(measurement))
    repeated = None
    if any(sections.values()):
        text, repeated = _config_text(data, sections, valid=file_run)
        argv += ["--config", str(write_config(work, text))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    for line in err.getvalue().splitlines():
        assert line.startswith("kernrec: ") or (tracing and line.startswith("step="))
    if repeated and not stray:  # the config is read after the command line
        event("a key given twice")
        assert code == 1 and repeated in err.getvalue()
    if kind is not None:
        event(f"measurement file {kind!r}: exit {code}")
        assert code != 0 or kind in _MEASUREMENT_KINDS[:2]
    if file_run:
        assert code == 0, err.getvalue()
    for path in outputs:
        assert path.exists() == (code == 0)
    written = {p.name for p in work.iterdir()} - {"p.cfg", _MEASUREMENT_FILE}
    assert written == ({p.name for p in outputs if p.parent == work} if code == 0 else set())
    report = work / _OUTPUT_NAMES["json"]
    if report.exists():  # the config echo states the values the run used
        event("config echo checked" + (" with a measurement file" if kind else ""))
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert echo["mode"] == mode and echo["T"] == float(horizon or 1.0)  # every source's T
        assert echo["measurement_file"] == (None if kind is None else str(measurement))
        for opt in harness.OPTIONS:
            key = _ECHO_KEYS.get(opt.field, opt.field)
            if key not in echo:
                continue
            if opt.key in given:
                value = opt.cast(given[opt.key])
                assert echo[key] == (value[0] if key == "n" and mode != "convergence" else value)
            else:
                assert echo[key] == _echo_of_unset(opt.key, mode, source, int(given["mx"])), key


# valid [problem] sections that the fuzz below starts from
_CONFIG_BASES = [
    {"preset": "manufactured1d", "T": "1.0"},
    {"preset": "contaminant", "kr": "2", "s0": "0.5", "v": "0.25", "omega": "0.1"},
    {"name": '"inline"', "f": '"u*exp(-t) + cos(pi*x)*cos(pi*y)"', "h": '"1 + t*x"',
     "g": '"t*y"', "u0": '"1 + cos(pi*x)"', "lx": "1.0", "ly": "2.0", "T": "1.0",
     "omega": "1.0", "kernel": '"exp(-t)"', "m": '"1 + t"', "mprime": '"1"',
     "u_exact": '"(1+t)*x"'},
]
_CONFIG_KEYS = sorted(
    kernrec.problem._INLINE_KEYS | kernrec.problem._PRESET_KEYS
    | set().union(*kernrec.problem._PRESET_OPTIONS.values())
    | set().union(*harness._SECTION_KEYS.values()) | {"bogus"}
)
_CONFIG_FRAGMENTS = [
    "0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e999", "-0", "1e-320", "x", "y", "t", "u",
    "p", "q", "exp(-t)", "cos(pi*x)", "1/(t-0.5)", "log(x)", "sqrt(", ")", "+", "*", "^",
    "manufactured1d", "contaminant", "zero1d", "true", "plus", "reconstruct", '"', "#", "=", " ",
]
_CONFIG_VALUE = st.lists(st.sampled_from(_CONFIG_FRAGMENTS), max_size=4).map("".join)
_CONFIG_LINE = st.one_of(
    st.sampled_from(["[problem]", "[discretization]", "[experiment]", "[bogus]", "", "# note"]),
    st.builds(
        lambda key, sep, value, wrap: f"{key}{sep}{wrap[0]}{value}{wrap[1]}",
        st.sampled_from(_CONFIG_KEYS),
        st.sampled_from([" = ", "=", " "]),
        _CONFIG_VALUE,
        st.sampled_from([("", ""), ('"', '"'), ("", " # comment")]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_text_fuzz(data):
    # config text reaches a problem only through these two calls: whatever
    # the text, they may fail only with a kernrec error, which run_cli maps
    # to an exit code
    base = data.draw(st.sampled_from(_CONFIG_BASES), label="base")
    lines = []
    for key, value in base.items():  # most keys kept, some dropped or given a drawn value
        edit = data.draw(st.sampled_from(["keep"] * 8 + ["drop", "draw"]), label=key)
        if edit == "draw":
            value = data.draw(_CONFIG_VALUE, label=f"{key} value")
        if edit != "drop":
            lines.append(f"{key} = {value}")
    lines += data.draw(st.lists(_CONFIG_LINE, max_size=2), label="extra lines")
    text = "\n".join(["[problem]", *data.draw(st.permutations(lines), label="order")])
    try:
        spec_from_mapping(parse_config(text, harness._SECTION_KEYS)["problem"])
    except errors.KernrecError as exc:
        event(type(exc).__name__)
    else:
        event("accepted")


def test_eoc_value_edge_cases():
    assert eoc_value(0.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(1.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(float("nan"), 1.0, 0.1, 0.05) is None
    assert eoc_value(2.0, 1.0, 0.1, 0.05) == pytest.approx(1.0)


def test_table_csv_renders_dash_for_zero_errors(monkeypatch):
    rows = [
        {"n": 10, "tau": 0.1, "err_inf": 0.0, "err_l2": 0.0, "err_u": None, "eoc": None}
    ]
    monkeypatch.setattr(harness, "convergence_study", lambda cfg: rows)
    header, columns, report = harness.run_convergence_mode(None)
    assert report == {"rows": rows}
    text = csv_text(header, *columns)
    line = text.strip().split("\n")[1]
    assert line.endswith(EOC_UNDEFINED)
    assert line.split(",")[4] == ""


@pytest.mark.parametrize("with_out", [False, True])
def test_csv_formatted_only_for_out(monkeypatch, tmp_path, with_out):
    calls = []

    def spy(header, *columns):
        calls.append(header)
        return csv_text(header, *columns)

    monkeypatch.setattr(harness, "csv_text", spy)
    out = ["--out", str(tmp_path / "k.csv")] if with_out else []
    argv = ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
            "--json", str(tmp_path / "r.json"), *out]
    assert run_cli(argv) == 0
    assert calls == ([KERNEL_CSV_HEADER] if with_out else [])


def _fmt(x):
    return f"{x:.17g}"


def _row_by_row_kernel_csv(nodes, k_rec, k_ref):
    # the per-element writer that csv_text replaced
    fmt = _fmt
    lines = [KERNEL_CSV_HEADER]
    for i, t in enumerate(nodes):
        if k_ref is None:
            lines.append(f"{fmt(t)},{fmt(k_rec[i])},,")
        else:
            err = abs(k_rec[i] - k_ref[i])
            lines.append(f"{fmt(t)},{fmt(k_rec[i])},{fmt(k_ref[i])},{fmt(err)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_ref", [True, False])
def test_kernel_csv_equals_row_by_row_formatting(with_ref):
    rng = np.random.default_rng(11)
    nodes = np.linspace(0.0, 1.0, 201)
    k_rec = np.exp(-nodes) + rng.standard_normal(nodes.size) * 1e-5
    k_rec[3] = 0.0
    k_rec[4] = -1e-300
    k_ref = np.exp(-nodes) if with_ref else None
    # the columns the reconstruct and roundtrip runners pass
    blank = [None] * nodes.size
    refs = (k_ref, np.abs(k_rec - k_ref)) if with_ref else (blank, blank)
    assert csv_text(KERNEL_CSV_HEADER, nodes, k_rec, *refs) == _row_by_row_kernel_csv(
        nodes, k_rec, k_ref
    )


@pytest.mark.parametrize("initial", [0.25, None])
def test_measurement_csv_equals_row_by_row_formatting(initial):
    tg = TimeGrid(1.0, 100)
    values = 1.0 + tg.nodes + np.random.default_rng(12).standard_normal(101) * 1e-6
    series = MeasurementSeries(tg, values, None, initial)
    fmt = _fmt
    nodes = tg.nodes
    first = fmt(initial) if initial is not None else ""
    lines = [MEASUREMENT_CSV_HEADER, f"{fmt(nodes[0])},{fmt(values[0])},{first}"]
    for i in range(1, 101):
        lines.append(f"{fmt(nodes[i])},{fmt(values[i])},{fmt(series.derivatives[i - 1])}")
    # the columns the forward runner passes
    mprime = [series.initial_derivative, *series.derivatives.tolist()]
    text = csv_text(MEASUREMENT_CSV_HEADER, nodes, series.values, mprime)
    assert text == "\n".join(lines) + "\n"


# every exception class of kernrec.errors, plus OSError and MemoryError, and its exit code
_EXIT_CODES = [
    (errors.UsageError("bad flag"), 1),
    (errors.ConfigError("bad key", key="k"), 1),
    (errors.NumericalError("broke"), 2),
    (errors.SingularUpdateError("tiny denominator", step=1), 2),
    (errors.NonFiniteError("nan", step=1), 2),
    (errors.ExprError("bad expression"), 2),
    (errors.ExprSyntaxError("bad token", 0), 2),
    (errors.UnknownIdentifierError("zz", 0), 2),
    (errors.ArityError("sin", 1, 2, 0), 2),
    (errors.UnboundVariableError("x"), 2),
    (errors.DomainFaultError("log of non-positive value", "log(0)"), 2),
    (OSError("disk full"), 2),
    (MemoryError("Unable to allocate 7.28 TiB"), 2),
    (errors.ValidationError("bad data"), 3),
    (errors.FloorViolationError("below floor"), 3),
    (errors.StepThresholdError("tau too large"), 3),
    (errors.KernrecError("other"), 2),
]


@pytest.mark.parametrize(
    "exc,code", _EXIT_CODES, ids=[type(exc).__name__ for exc, _ in _EXIT_CODES]
)
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def runner(cfg):
        raise exc

    monkeypatch.setitem(harness._MODE_RUNNERS, "reconstruct", runner)
    assert run_cli(["reconstruct", "--preset", "zero1d", "--n", "10", "--mx", "10"]) == code
    assert str(exc) in capsys.readouterr().err


def test_exit_code_table_covers_every_error_class():
    # the table lists exactly the KernrecError classes that errors.py defines
    classes = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.KernrecError)
        and obj.__module__ == errors.__name__
    }
    assert classes == {type(exc) for exc, _ in _EXIT_CODES} - {OSError, MemoryError}


def _readme_block(language: str) -> str:
    """The README's one fenced block in ``language``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(rf"```{language}\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_runs(tmp_path, monkeypatch):
    # as the README gives it: its out and json keys name files in the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, _readme_block("ini"), "readme.cfg")
    assert run_cli(["reconstruct", "--config", str(cfg)]) == 0
    assert (tmp_path / "kernel.csv").is_file() and (tmp_path / "report.json").is_file()


def test_readme_python_block_runs(capsys):
    exec(_readme_block("python"), {})
    # it prints the kernel error, which the acceptance module bounds by 0.05
    assert 0.0 <= float(capsys.readouterr().out) < 0.05


def test_readme_preset_sections_are_the_presets():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```cfg\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    sections = [parse_config(textwrap.dedent(block))["problem"] for block in blocks]
    assert sorted(section["name"] for section in sections) == sorted(kernrec.problem.PRESETS)
    for section in sections:
        assert spec_from_mapping(section) == make_preset(section["name"])


class _FullDisk:
    """A file that takes the first bytes of a write and then fails, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("full", ["k.csv", "r.json"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, full):
    def open_on_full_disk(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _FullDisk(fh) if Path(path).name == full else fh

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "open", open_on_full_disk, raising=False)
    code = run_cli(["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "4",
                    "--out", "k.csv", "--json", "r.json"])
    assert code == 2
    full_disk = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"kernrec: numerical failure: {full_disk}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_an_output_link(tmp_path, monkeypatch):
    # only a regular file the run wrote is removed, never a link it wrote through
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.csv").symlink_to("target.csv")
    code = run_cli(["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "4",
                    "--out", "k.csv", "--json", "missing/r.json"])
    assert code == 2
    assert (tmp_path / "k.csv").is_symlink()
    assert (tmp_path / "target.csv").read_text(encoding="utf-8").startswith(KERNEL_CSV_HEADER)


def _child_env(**overrides):
    """Environment for a ``python -m kernrec.harness`` child process.

    Starts from this process's environment and puts the directory holding
    the imported ``kernrec`` package first on ``PYTHONPATH``, so the child
    runs the same code as the test session rather than another installed
    copy (or none at all, in a checkout that is not pip-installed).
    """
    env = dict(os.environ)
    src = str(Path(kernrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update(overrides)
    return env


def test_start_up_loads_no_module_a_run_may_not_need():
    # csv (a measurement file), numpy.fft (the first solve) and numpy.random
    # (a noise sweep) load on use, not with the harness or its parser
    script = (
        "import json, sys; import numpy; before = set(sys.modules); "
        "import kernrec.harness; kernrec.harness.build_parser(); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "kernrec.harness" in loaded
    assert {"csv", "numpy.fft", "numpy.random"}.isdisjoint(loaded)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--n", "10"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


# a run in a child whose address space is capped at 4 GiB, so that an
# allocation of several TiB is refused even where the host overcommits memory
def _capped_main(limit: int) -> str:
    """``python -c`` code that runs ``main`` with its address space capped at ``limit`` bytes."""
    return (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from kernrec.harness import main; sys.exit(main())")


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "manufactured1d", "--n", "1000000000000", "--mx", "10"],
        ["--preset", "manufactured1d", "--n", "10", "--mx", "1000000000000"],
        ["--preset", "contaminant", "--n", "10", "--mx", "10", "--fine-factor", "1000000000000"],
    ],
    ids=["n", "mx", "fine-factor"],
)
def test_run_too_large_to_allocate_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _capped_main(4 << 30), "reconstruct", *argv],
        capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"kernrec: out of memory: Unable to allocate [\d.]+ TiB .*\n", proc.stderr)


def test_forced_run_out_of_memory_prints_its_warning_first(tmp_path):
    # under a 512 MiB cap the 21 states of 4000001 nodes (641 MiB) do not
    # fit: an allocation fails after the forced run has warned
    cfg = write_config(tmp_path, THRESHOLD_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-c", _capped_main(1 << 29), "reconstruct", "--config", str(cfg),
         "--n", "20", "--mx", "4000000", "--force", "--trace"],
        capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 2
    warning, failure = proc.stderr.splitlines(keepends=True)
    assert warning == THRESHOLD_WARNING
    assert failure.startswith("kernrec: out of memory: Unable to allocate ")


def test_warning_is_one_kernrec_line(tmp_path):
    cfg = write_config(tmp_path, THRESHOLD_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
         "--n", "20", "--mx", "10", "--force"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("kernrec: warning: running with tau = ")
    assert proc.stderr.count("\n") == 1
    assert "RuntimeWarning" not in proc.stderr


# run_cli called in process, as the benchmark calls it: no warning filter or hook
_RUN_CLI = "import sys; from kernrec.harness import run_cli; sys.exit(run_cli(sys.argv[1:]))"


@pytest.mark.parametrize("argv, printed", [
    (["reconstruct", "--config", "{config}", "--n", "20", "--mx", "10", "--force"],
     THRESHOLD_WARNING),
    (["noise-sweep", "--preset", "contaminant", "--n", "20", "--mx", "10",
      "--noise", "1e-4,1e-3,1e-2", "--seed", "5"],
     "".join(f"kernrec: warning: initial kernel value {k0} disagrees with the exact "
             "kernel at t=0 (-1)\n" for k0 in ("-0.904211", "-0.915495", "-0.449177"))),
], ids=["forced", "noisy-k0"])
def test_in_process_run_cli_prints_each_warning_as_one_kernrec_line(tmp_path, argv, printed):
    config = write_config(tmp_path, THRESHOLD_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *(arg.format(config=config) for arg in argv)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0
    # one line per warning: no RuntimeWarning, and no source line
    assert proc.stderr == printed


def test_every_level_of_a_sweep_prints_its_warning(tmp_path):
    # m0 = 10 puts tau0 = 0.05 below tau = 0.1: each of the three levels
    # warns in the same words, and each warning is printed
    cfg = write_config(tmp_path, CONFIGS["secondlevelfault.ini"])
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "noise-sweep", "--config", str(cfg),
         "--n", "10", "--mx", "4", "--noise", "1e-12,1e-11,1e-10", "--seed", "1", "--force",
         "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    warning = ("kernrec: warning: running with tau = 0.1 >= tau0 = 0.05; "
               "the kernel update may be ill-conditioned\n")
    assert proc.stderr == 3 * warning


def test_non_finite_diagnostics_exit_2_and_write_nothing(tmp_path):
    # u0 = 1e200 keeps every state finite, but the squares in the diagnostics overflow
    cfg = write_config(tmp_path, CONFIGS["big1d.ini"], "big.cfg")
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "roundtrip", "--config", str(cfg),
         "--n", "4", "--mx", "4", "--force", "--out", "r.csv", "--json", "r.json"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 2
    warning, failure = proc.stderr.splitlines()  # no numpy warning in between
    assert warning.startswith("kernrec: warning: running with tau = ")
    assert failure == "kernrec: numerical failure: diagnostics.grad_energy is not finite"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]


@pytest.mark.parametrize(
    "columns, report, where",
    [
        ([np.array([1.0, np.inf])], {"b": [1.0, None, "text"], "a": {"c": 2, "d": -np.inf}},
         "a.d"),
        ([np.array([1.0, 2.0]), [None, "—"], [1.0, np.nan]], {"rows": [{"x": 1.0}]},
         "c[1]"),
        ([np.array([np.nan, 1.0])], {"e": math.inf}, "e"),
    ],
    ids=["report-sorted", "csv-column", "report-first"],
)
def test_first_non_finite_number_is_named(columns, report, where):
    header = ",".join("abc"[: len(columns)])
    with pytest.raises(errors.NonFiniteError, match=rf"^{re.escape(where)} is not finite$"):
        harness._check_finite(header, columns, report)
    harness._check_finite(header, [np.ones(2)] * len(columns), {"x": [1.0, None, "—", 2]})


def test_measurement_overflow_prints_no_numpy_warning(tmp_path):
    # finite samples whose backward difference overflows
    data = tmp_path / "m.csv"
    data.write_text("0,0\n0.5,1.7e308\n1,-1.7e308\n", encoding="utf-8")
    cfg = write_config(tmp_path, f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n')
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
         "--n", "2", "--mx", "4"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr == "kernrec: validation failure: measurement contains non-finite values\n"


def test_kernel_overflow_after_the_first_step_exits_2(tmp_path, capsys):
    # m'_2 = -1.7e308 over (h,1) + m_0 tau = 0.5 overflows: K_2 = inf
    data = tmp_path / "m.csv"
    data.write_text("t,m,mprime\n0,0,0\n0.25,0,0\n0.5,0,-1.7e308\n0.75,0,0\n1,0,0\n",
                    encoding="utf-8")
    cfg = write_config(
        tmp_path, problem("kerneloverflow", h="0.5", omega="0.5", measurement_file=str(data))
    )
    argv = ["reconstruct", "--config", str(cfg), "--n", "4", "--mx", "4", "--trace"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in err[:-1]] == ["step=1"]
    assert err[-1] == "kernrec: numerical failure: kernel value is not finite"


# the four benchmark workloads at their small sizes: the benchmark reads
# its identity residual off each reconstruct() the command makes
_WORKLOADS = {
    "fine1d": ["reconstruct", "--preset", "manufactured1d", "--n", "20", "--mx", "200"],
    "long1d": ["reconstruct", "--preset", "manufactured1d", "--n", "200", "--mx", "10"],
    "grid2d": ["reconstruct", "--config", "{config}", "--n", "10", "--mx", "16"],
    "sweep1d": ["noise-sweep", "--preset", "contaminant", "--n", "30", "--mx", "20",
                "--noise", "1e-06,1e-05,0.0001,0.001", "--seed", "0"],
}


@pytest.mark.parametrize("name", list(_WORKLOADS))
def test_benchmark_residual_is_the_reports(tmp_path, monkeypatch, name):
    config = write_config(tmp_path, CONFIGS["manufactured2d.ini"], "manufactured2d.ini")
    sampled, reconstruct = [], harness.reconstruct

    def wrapper(*args, **kwargs):
        result = reconstruct(*args, **kwargs)
        sampled.append(result.diagnostics.max_compat_residual)
        return result

    monkeypatch.setattr(harness, "reconstruct", wrapper)
    argv = [arg.format(config=config) for arg in _WORKLOADS[name]]
    report_path = tmp_path / "report.json"
    assert run_cli([*argv, "--out", str(tmp_path / "out.csv"), "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if "rows" in report:
        reported = max(row["max_compat_residual"] for row in report["rows"])
    else:
        reported = report["diagnostics"]["max_compat_residual"]
    assert sampled and max(sampled) == reported
