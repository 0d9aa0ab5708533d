"""Reference solvers that the tests compare the spectral solve against,
and the manufactured 2D problem.

``solve_tridiagonal`` (Thomas algorithm) solves the 1D backward-Euler
system (1/tau) W + A directly; ``solve_cg`` (Jacobi-preconditioned
conjugate gradients on an ``SpdOperator``) solves it matrix-free in 1D
and 2D, with ``stiffness_diagonal`` as the Jacobi preconditioner.  No
kernrec run calls them: every step is solved by
``kernrec.solver.SpectralSolver``.  ``MANUFACTURED_2D`` is a [problem]
section with a closed-form solution, read as the presets are read, by
``kernrec.problem.spec_from_mapping``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from kernrec.grid import SpatialGrid


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


class SingularMatrixError(Exception):
    """Zero pivot in a direct solve."""


class IterationLimitError(Exception):
    """Iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def stiffness_diagonal(grid: SpatialGrid) -> np.ndarray:
    """Diagonal of the assembled stiffness matrix (Jacobi preconditioning)."""

    def k_diag(length, m):
        dx = length / m
        d = np.full(m + 1, 2.0 / dx)
        d[0] = d[-1] = 1.0 / dx
        return d

    def m_diag(length, m):
        dx = length / m
        d = np.full(m + 1, 2.0 * dx / 3.0)
        d[0] = d[-1] = dx / 3.0
        return d

    if grid.ndim == 1:
        return k_diag(grid.extents[0], grid.cells[0])
    kx = k_diag(grid.extents[0], grid.cells[0])
    ky = k_diag(grid.extents[1], grid.cells[1])
    mx = m_diag(grid.extents[0], grid.cells[0])
    my = m_diag(grid.extents[1], grid.cells[1])
    return np.outer(kx, my) + np.outer(mx, ky)


def solve_tridiagonal(
    diag: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """Thomas algorithm for a tridiagonal system.

    ``lower``/``upper`` have one entry fewer than ``diag``; the system
    is assumed diagonally dominant or SPD, which makes the elimination
    stable without pivoting.  A zero pivot raises SingularMatrixError.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1 or rhs.size != n:
        raise ValueError("inconsistent tridiagonal array lengths")

    cp = np.empty(n - 1) if n > 1 else np.empty(0)
    dp = np.empty(n)
    pivot = diag[0]
    if pivot == 0.0:
        raise SingularMatrixError("zero pivot at row 0")
    if n > 1:
        cp[0] = upper[0] / pivot
    dp[0] = rhs[0] / pivot
    for i in range(1, n):
        pivot = diag[i] - lower[i - 1] * cp[i - 1]
        if pivot == 0.0:
            raise SingularMatrixError(f"zero pivot at row {i}")
        if i < n - 1:
            cp[i] = upper[i] / pivot
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return dp


@dataclass(frozen=True)
class SpdOperator:
    """Matrix-free shifted operator v -> shift * mass * v + A v."""

    shift: float  # 1/tau
    mass_weights: np.ndarray
    stiffness_matvec: Callable[[np.ndarray], np.ndarray]
    stiffness_diag: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.shift * self.mass_weights * v + self.stiffness_matvec(v)

    @property
    def diagonal(self) -> np.ndarray:
        return self.shift * self.mass_weights + self.stiffness_diag


def solve_cg(
    op: SpdOperator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 5000,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients.

    Stops when ||rhs - A x||_2 <= tol * ||rhs||_2 (immediately for a zero
    right-hand side).  ``callback(k, x, residual_norm)`` is invoked after
    every iteration.  Raises IterationLimitError carrying the final
    residual if the budget is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = np.asarray(rhs, dtype=float)
    b_norm = float(np.linalg.norm(rhs.ravel()))
    x = np.zeros_like(rhs)
    if b_norm == 0.0:
        return x
    inv_diag = 1.0 / op.diagonal
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(np.vdot(r.ravel(), z.ravel()))
    res = float(np.linalg.norm(r.ravel()))
    for k in range(1, max_iter + 1):
        ap = op.apply(p)
        alpha = rz / float(np.vdot(p.ravel(), ap.ravel()))
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r.ravel()))
        if callback is not None:
            callback(k, x, res)
        if res <= tol * b_norm:
            return x
        z = inv_diag * r
        rz_new = float(np.vdot(r.ravel(), z.ravel()))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterationLimitError(
        f"conjugate gradients did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {res / b_norm:.3e})",
        residual=res / b_norm,
        iterations=max_iter,
    )
