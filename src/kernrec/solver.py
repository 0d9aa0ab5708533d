"""The linear solve of the backward-Euler elliptic step.

The operator is (1/tau) W + A with W the diagonal lumped mass and A the
stiffness matrix: symmetric and strictly positive definite for tau > 0.
On the uniform Neumann grids of ``grid`` the scaled operator W^-1 A is
diagonalised exactly by the DCT-I along each axis, so every step is
solved directly in O(N log N) by ``SpectralSolver`` (the classical fast
Poisson solver; Swarztrauber, SIAM Rev. 19, 1977).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ValidationError
from .grid import COORDINATES, SpatialGrid


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
    (1/tau) I + W^-1 A and takes the same DCT-I again.  For the stiffness
    A = sum_a K_a (x) M_others those eigenvalues are
    1/tau + sum_a lambda_a prod_{b != a} nu_b (1/tau + lambda in 1D).
    The unnormalised DCT-I is its own inverse up to the factor 2M per
    axis, which is folded into the divisor.  A tau or cell size for
    which 1/W or the divisor overflows is a ValidationError.
    """

    def __init__(self, grid: SpatialGrid, tau: float):
        # each grid axis, numbered from the back so that it is the same
        # trailing axis of every stack, with the even extension v_0..v_M,
        # v_{M-1}..v_1 whose real FFT is the DCT-I
        self._extension = tuple(
            (axis, np.r_[0 : m + 1, m - 1 : 0 : -1])
            for axis, m in enumerate(grid.cells, -grid.ndim)
        )
        # an overflow here is reported by the finiteness check below
        with np.errstate(all="ignore"):
            self._inv_weights = 1.0 / grid.weights
            eig = [_axis_eigenvalues(length, m) for length, m in zip(grid.extents, grid.cells)]
            # term a: lambda along axis a, nu along the others; added in axis order
            terms = [
                functools.reduce(
                    np.multiply.outer, [lam if b == a else nu for b, (lam, nu) in enumerate(eig)]
                )
                for a in range(grid.ndim)
            ]
            divisor = functools.reduce(np.add, terms, 1.0 / tau) * math.prod(
                2 * m for m in grid.cells
            )
            self._inv_divisor = 1.0 / divisor
        # a divisor that overflows would solve its mode as 0
        if not (np.isfinite(self._inv_weights).all() and np.isfinite(divisor).all()):
            cells = ", ".join(f"d{c} = {h:g}" for c, h in zip(COORDINATES, grid.spacing))
            raise ValidationError(
                f"the step's operator overflows for tau = {tau:g}, {cells}"
            )

    def _dct1(self, v: np.ndarray) -> np.ndarray:
        # the grid's axes are the trailing axes of v, so one call transforms
        # every field of a stack.  np.fft loads on first use; importing
        # numpy.fft at module level would add its import time to every
        # start-up
        for axis, index in self._extension:
            v = np.fft.rfft(v.take(index, axis=axis), axis=axis).real
        return v

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """u of each right-hand side of a stack; the grid's axes trail."""
        return self._dct1(self._dct1(rhs * self._inv_weights) * self._inv_divisor)
