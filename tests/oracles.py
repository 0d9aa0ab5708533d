"""The dense step operator that the tests check the fast paths against, the
manufactured 2D problem and the threshold problem.

``dense_stiffness`` assembles A = sum_a K_a (x) M_others from the band
matrices of each axis, the P1 stiffness K and the consistent P1 mass M,
without calling ``kernrec``; ``dense_step_operator`` adds (1/tau) W, with W the row
sums of M (the trapezoid weights).  Both have (nodes)^2 entries.
``MANUFACTURED_2D`` is a [problem] section with a closed-form solution,
read as the presets are read, by ``kernrec.problem.spec_from_mapping``.
``THRESHOLD_CONFIG`` is the one text of the threshold problem that the
acceptance and harness tests write as a config file.
"""

import functools

import numpy as np

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
THRESHOLD_CONFIG = """
[problem]
f = "0"
h = "1"
g = "0"
u0 = "10"
lx = 1.0
T = 1.0
omega = 0.2
m = "10*exp(-t)"
mprime = "-10*exp(-t)"
"""


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
