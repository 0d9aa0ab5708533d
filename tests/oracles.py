"""The problems that the tests and ``tools/compare_outputs.py`` run, and
the dense step operator that the tests check the fast paths against.

Every inline [problem] is ``BASE``, the zero problem on (0, 1), with keys
laid over it: ``problem`` renders one as config text, ``build_spec`` builds its
``ProblemSpec`` and ``write_config`` writes a config file.  Built-in
problems are read from ``kernrec.problem.PRESETS``, and ``variant`` states
a problem that differs from one in a few keys.  ``CONFIGS`` holds the
files beside which ``tools/compare_outputs.py`` runs its cases; the
comment on an entry says what it pins.

``dense_stiffness`` assembles A = sum_a K_a (x) M_others from the band
matrices of each axis, the P1 stiffness K and the consistent P1 mass M,
without calling ``kernrec``; ``dense_step_operator`` adds (1/tau) W, with W the row
sums of M (the trapezoid weights).  Both have (nodes)^2 entries.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Mapping

import numpy as np

from kernrec.problem import PRESETS, ProblemSpec, spec_from_mapping

# the zero problem on (0, 1), under every inline [problem]
BASE = {"f": "0", "h": "1", "g": "0", "u0": "0", "lx": "1.0", "T": "1.0", "omega": "1.0"}


def problem(name: str, **keys: str | None) -> str:
    """The inline [problem] ``name``: ``BASE`` with ``keys`` laid over it,
    and without a key given as None."""
    assert all(BASE.get(key) != value for key, value in keys.items()), keys  # only what differs
    lines = [f'{key} = "{value}"' for key, value in {"name": name, **BASE, **keys}.items()
             if value is not None]
    return "".join(f"{line}\n" for line in ["[problem]", *lines])


def build_spec(**keys: str) -> ProblemSpec:
    """The spec of ``BASE`` with ``keys`` laid over it."""
    return spec_from_mapping({**BASE, **keys})


def variant(section: Mapping[str, str], **keys: str | None) -> dict[str, str]:
    """The keys of ``section``, with ``keys`` laid over it, that differ from
    ``BASE``: its name and a key given as None aside."""
    return {key: value for key, value in {**section, **keys}.items()
            if key != "name" and value is not None and BASE.get(key) != value}


def write_config(directory: Path, text: str, name: str = "p.cfg") -> Path:
    """The config file ``directory / name``, holding ``text``."""
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


MANUFACTURED_1D = PRESETS["manufactured1d"]()
# manufactured1d with its exact m and m', but no kernel: a reconstruction
# without a reference
WITH_M = variant(MANUFACTURED_1D, kernel=None, u_exact=None)
# manufactured1d with its kernel, but no m and m': a forward run or a
# measurement file gives its data
WITH_KERNEL = variant(MANUFACTURED_1D, m=None, mprime=None, u_exact=None)

# The 2D counterpart of manufactured1d on the unit square: the state
# (1+t)(1+cos(pi x)cos(pi y)) with kernel exp(-t) satisfies the evolution
# problem with h = 1, g = 0 and this f, and m(t) = 1 + t.
MANUFACTURED_2D = {
    "name": "manufactured2d", "lx": "1.0", "ly": "1.0", "T": "1.0", "omega": "1.0",
    "f": "(1+cos(pi*x)*cos(pi*y)) + (1+t)*2*pi^2*cos(pi*x)*cos(pi*y)"
         " + exp(-t) + t*(1+cos(pi*x)*cos(pi*y))",
    "h": "1", "g": "0", "u0": "1+cos(pi*x)*cos(pi*y)",
    "kernel": "exp(-t)", "m": "1+t", "mprime": "1",
    "u_exact": "(1+t)*(1+cos(pi*x)*cos(pi*y))",
}

# A problem whose step threshold tau0 = omega / (2 |m0|) = 0.2 / 20 = 0.01
# refuses every step tau >= 0.01 (exit 3) unless the run is forced.
THRESHOLD = {"u0": "10", "omega": "0.2", "m": "10*exp(-t)", "mprime": "-10*exp(-t)"}
THRESHOLD_CONFIG = problem("threshold", **THRESHOLD)


def _measurement_text(n: int, initial_only: bool = False) -> str:
    nodes = np.linspace(0.0, 1.0, n + 1).tolist()  # the time grid's nodes
    if initial_only:
        rows = (f"{t:.17g},{1.0 + t:.17g}{',1' if k == 0 else ''}" for k, t in enumerate(nodes))
        return "".join(f"{row}\n" for row in rows)
    return "".join(["t,m,mprime\n", *(f"{t:.17g},{1.0 + t:.17g},1\n" for t in nodes)])


# the configs, and the measurement files, that the byte-identity tool's
# cases read, keyed by file name
CONFIGS = {
    "manufactured2d.ini": problem("manufactured2d", **variant(MANUFACTURED_2D)),
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
        "manufactured1d", **variant(MANUFACTURED_1D, m=None, mprime=None), measurement_file=file,
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


def _axis_matrices(grid):
    """(K, M) of each axis of a ``kernrec.grid.SpatialGrid``."""
    pairs = []
    for length, cells in zip(grid.extents, grid.cells):
        dx = length / cells
        diag = np.diag(np.r_[1.0, np.full(cells - 1, 2.0), 1.0])  # the cells at each node
        off = np.diag(np.ones(cells), 1) + np.diag(np.ones(cells), -1)
        pairs.append(((diag - off) / dx, (2.0 * diag + off) * dx / 6.0))
    return pairs


def dense_stiffness(grid):
    """A on the grid's nodes in C order."""
    pairs = _axis_matrices(grid)
    return functools.reduce(np.add, [
        functools.reduce(np.kron, [k if b == a else m for b, (k, m) in enumerate(pairs)])
        for a in range(grid.ndim)
    ])


def dense_step_operator(grid, tau):
    """(1/tau) W + A, the matrix of one backward-Euler step."""
    weights = functools.reduce(np.kron, [m.sum(axis=1) for _, m in _axis_matrices(grid)])
    return np.diag(weights / tau) + dense_stiffness(grid)
