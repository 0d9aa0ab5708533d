"""Linear solvers for the backward-Euler elliptic step.

The operator is (1/tau) W + A with W the diagonal lumped mass and A the
stiffness matrix: symmetric and strictly positive definite for tau > 0.
On the uniform Neumann grids of ``grid`` the scaled operator W^-1 A is
diagonalised exactly by the DCT-I along each axis, so every step is
solved directly in O(N log N) by ``SpectralSolver`` (the classical fast
Poisson solver; Swarztrauber, SIAM Rev. 19, 1977).

``solve_tridiagonal`` (Thomas algorithm) and ``solve_cg``
(Jacobi-preconditioned conjugate gradients on an ``SpdOperator``) are
reference implementations that the tests compare the spectral solve
against; the time steppers do not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IterationLimitError, SingularMatrixError
from .grid import SpatialGrid


def _axis_eigenvalues(length: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the lumped-scaled stiffness and mass along one axis.

    For the DCT-I mode cos(pi k j / M), k = 0..M, the Neumann second
    difference W^-1 K has lambda_k = (2 - 2 cos(pi k / M)) / dx^2 and
    W^-1 times the consistent P1 mass has nu_k = (2 + cos(pi k / M)) / 3.
    """
    dx = length / cells
    cos = np.cos(np.pi * np.arange(cells + 1) / cells)
    return (2.0 - 2.0 * cos) / dx**2, (2.0 + cos) / 3.0


class SpectralSolver:
    """Direct solve of ((1/tau) W + A) u = b on a uniform grid.

    Built once per grid and step size.  ``solve`` scales b by 1/W, takes
    the DCT-I along each axis, divides by the eigenvalues of
    (1/tau) I + W^-1 A (1/tau + lambda in 1D, 1/tau + lambda_x nu_y +
    nu_x lambda_y for the Q1 form Kx(x)My + Mx(x)Ky in 2D) and takes the
    same DCT-I again.  The unnormalised DCT-I is its own inverse up to the
    factor 2M per axis, which is folded into the divisor.
    """

    def __init__(self, grid: SpatialGrid, tau: float):
        self._inv_weights = 1.0 / grid.weights
        # even extension v_0..v_M, v_{M-1}..v_1 of each axis, whose real
        # FFT is the DCT-I
        self._extension = tuple(np.r_[0 : m + 1, m - 1 : 0 : -1] for m in grid.cells)
        eig = [_axis_eigenvalues(length, m) for length, m in zip(grid.extents, grid.cells)]
        if grid.ndim == 1:
            lam, _ = eig[0]
            divisor = (1.0 / tau + lam) * (2 * grid.cells[0])
        else:
            (lam_x, nu_x), (lam_y, nu_y) = eig
            divisor = (
                1.0 / tau + np.outer(lam_x, nu_y) + np.outer(nu_x, lam_y)
            ) * (4 * grid.cells[0] * grid.cells[1])
        self._inv_divisor = 1.0 / divisor

    def _dct1(self, v: np.ndarray) -> np.ndarray:
        # np.fft loads on first use; importing numpy.fft at module level
        # would add its import time to every start-up
        for axis, index in enumerate(self._extension):
            v = np.fft.rfft(v.take(index, axis=axis), axis=axis).real
        return v

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dct1(self._dct1(rhs * self._inv_weights) * self._inv_divisor)


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
