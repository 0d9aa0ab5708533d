"""Uniform spatial grids on an interval or axis-aligned rectangle.

The discretization is lumped-mass P1 (1D) / Q1 tensor (2D): nodal
values with trapezoid quadrature weights for the volume inner product,
edge-trapezoid weights for the boundary functional, and the exact
piecewise-(bi)linear stiffness form for the gradient term.  Constants
lie in the discrete test space, so applying the stiffness operator to
a constant field gives exactly zero; that is what lets the per-step
measurement identity of the time steppers hold to machine precision.

A nodal field is a numpy array of shape ``grid.shape``; the volume and
boundary quadratures are ``sum(grid.weights * u)`` and
``sum(grid.boundary_weights * u)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _axis_weights(length: float, cells: int) -> np.ndarray:
    # trapezoid lumping: dx at interior nodes, dx/2 at the two ends
    dx = length / cells
    w = np.full(cells + 1, dx)
    w[0] = w[-1] = dx / 2
    return w


@dataclass(frozen=True)
class SpatialGrid:
    """Nodes, quadrature weights and boundary weights of a uniform grid."""

    extents: tuple[float, ...]
    cells: tuple[int, ...]
    axes: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    boundary_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.extents) not in (1, 2) or len(self.extents) != len(self.cells):
            raise ValueError("grid must be 1D or 2D with matching extents/cells")
        for length, m in zip(self.extents, self.cells):
            if length <= 0:
                raise ValueError(f"extent must be positive, got {length}")
            if m < 1:
                raise ValueError("need at least 2 nodes (1 cell) per dimension")
        axes = tuple(
            np.linspace(0.0, length, m + 1) for length, m in zip(self.extents, self.cells)
        )
        object.__setattr__(self, "axes", axes)
        axis_w = [_axis_weights(length, m) for length, m in zip(self.extents, self.cells)]
        if self.ndim == 1:
            weights = axis_w[0]
            bweights = np.zeros_like(weights)
            bweights[0] = bweights[-1] = 1.0
        else:
            weights = np.outer(axis_w[0], axis_w[1])
            bweights = np.zeros_like(weights)
            # vertical edges carry y-trapezoid weights, horizontal edges
            # x-trapezoid weights; corners accumulate one share per edge
            bweights[0, :] += axis_w[1]
            bweights[-1, :] += axis_w[1]
            bweights[:, 0] += axis_w[0]
            bweights[:, -1] += axis_w[0]
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "boundary_weights", bweights)

    # -- factories ---------------------------------------------------

    @classmethod
    def interval(cls, length: float, cells: int) -> "SpatialGrid":
        return cls((float(length),), (int(cells),))

    @classmethod
    def rectangle(cls, lx: float, ly: float, cells_x: int, cells_y: int) -> "SpatialGrid":
        return cls((float(lx), float(ly)), (int(cells_x), int(cells_y)))

    # -- geometry ----------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(m + 1 for m in self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(length / m for length, m in zip(self.extents, self.cells))

    def coordinate_fields(self) -> dict[str, np.ndarray]:
        """Node coordinates as full arrays keyed by variable name (x[, y])."""
        if self.ndim == 1:
            return {"x": self.axes[0].copy()}
        xx, yy = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return {"x": xx, "y": yy}


# -- stiffness -------------------------------------------------------
#
# 1D: assembled P1 stiffness K with rows (-1, 2, -1)/dx, ends (1, -1)/dx.
# 2D: Q1 stiffness Kx (x) My + Mx (x) Ky with M the consistent P1 mass
# (dx/6, 2dx/3, dx/6; halved diagonal at the ends).  Applying the 1D
# factors along each axis keeps everything matrix-free.


def _stiff_1d(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    u = np.moveaxis(values, axis, 0)
    out = np.empty_like(u)
    out[0] = u[0] - u[1]
    out[-1] = u[-1] - u[-2]
    if u.shape[0] > 2:
        out[1:-1] = 2.0 * u[1:-1] - u[:-2] - u[2:]
    return np.moveaxis(out, 0, axis) / dx


def _mass_1d(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    u = np.moveaxis(values, axis, 0)
    out = np.empty_like(u)
    out[0] = (2.0 * u[0] + u[1]) / 6.0
    out[-1] = (2.0 * u[-1] + u[-2]) / 6.0
    if u.shape[0] > 2:
        out[1:-1] = (u[:-2] + 4.0 * u[1:-1] + u[2:]) / 6.0
    return np.moveaxis(out, 0, axis) * dx


def stiffness_matvec(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Assembled stiffness matrix applied to nodal values (load form A u).

    The grid's axes are the trailing ``grid.ndim`` axes of ``values``, so
    one call applies A to every state of a stack.
    """
    if grid.ndim == 1:
        return _stiff_1d(values, grid.spacing[0], axis=-1)
    dx, dy = grid.spacing
    term_x = _mass_1d(_stiff_1d(values, dx, axis=-2), dy, axis=-1)
    term_y = _mass_1d(_stiff_1d(values, dy, axis=-1), dx, axis=-2)
    return term_x + term_y


def _gradient_1d(u: np.ndarray, dx: float, axis: int) -> np.ndarray:
    v = np.moveaxis(u, axis, 0)
    out = np.empty_like(v)
    n = v.shape[0]
    if n == 2:
        out[0] = out[1] = (v[1] - v[0]) / dx
    else:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return np.moveaxis(out, 0, axis)


def nodal_gradient(grid: SpatialGrid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """One partial derivative per axis of nodal values.

    Central differences inside, second-order one-sided at the ends.
    With only two nodes along an axis the one-sided first-order formula
    is used; it is still exact for linears.
    """
    return tuple(
        _gradient_1d(values, grid.spacing[axis], axis) for axis in range(grid.ndim)
    )
