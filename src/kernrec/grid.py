"""Uniform spatial grids on an interval or axis-aligned rectangle.

Lumped-mass P1 along each axis, in tensor product (Q1 on a rectangle),
by one code path for any number of axes: the volume weights are the
outer product of the axis trapezoid weights, each pair of opposite faces
carries the outer product of the other axes' weights, and the stiffness
form is sum_a K_a (x) M_others.  Constants lie in the discrete test
space, so applying the stiffness operator to a constant field gives
exactly zero; that is what lets the per-step measurement identity of the
time steppers hold to machine precision.

A nodal field is a numpy array of shape ``grid.shape``; its volume and
boundary quadratures (u,1) and (u,1)_Gamma are ``grid.integral(u)`` and
``grid.integral(u, boundary=True)``, the one place a weighted sum is
formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# each axis's variables, in axis order: its coordinate and u's derivative along it
COORDINATES = "xy"
DERIVATIVES = "pq"


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
    # the grid's axes as the trailing axes of a field or a stack of fields
    _trailing: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.extents) not in (1, 2) or len(self.extents) != len(self.cells):
            raise ValueError("grid must be 1D or 2D with matching extents/cells")
        for c, length, m in zip(COORDINATES, self.extents, self.cells):
            if not length > 0:  # NaN included
                raise ValueError(f"extent must be positive, got {length}")
            if m < 1:
                raise ValueError("need at least 2 nodes (1 cell) per dimension")
            # the stiffness holds 1/dx^2: dx^2 must be finite, and so its reciprocal
            dx_sq = (length / m) * (length / m)
            if not (0.0 < dx_sq < math.inf and 1.0 / dx_sq < math.inf):
                raise ValidationError(
                    f"cell size d{c} = l{c}/m{c} = {length:g}/{m}: its square "
                    f"{'overflows' if dx_sq == math.inf else 'underflows'}"
                )
        axes = tuple(
            np.linspace(0.0, length, m + 1) for length, m in zip(self.extents, self.cells)
        )
        object.__setattr__(self, "axes", axes)
        axis_w = [_axis_weights(length, m) for length, m in zip(self.extents, self.cells)]
        bweights = np.zeros(self.shape)
        for axis in range(self.ndim):
            # each pair of opposite faces carries the trapezoid weights of the
            # other axes (1.0 in 1D); corners get one share per face
            face = functools.reduce(
                np.multiply.outer, [w for a, w in enumerate(axis_w) if a != axis], 1.0
            )
            faces = np.moveaxis(bweights, axis, 0)
            faces[0] += face
            faces[-1] += face
        object.__setattr__(self, "weights", functools.reduce(np.multiply.outer, axis_w))
        object.__setattr__(self, "boundary_weights", bweights)
        object.__setattr__(self, "_trailing", tuple(range(-self.ndim, 0)))

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

    def integral(self, values: np.ndarray, boundary: bool = False):
        """(u,1), or (u,1)_Gamma with ``boundary``, of each field of a stack.

        The grid's axes are the trailing axes of ``values``.  np.add.reduce
        over them is np.sum's pairwise summation, so each field of a stack
        gets its own sum bit for bit; np.dot would sum in another order.
        """
        weights = self.boundary_weights if boundary else self.weights
        return np.add.reduce(weights * values, axis=self._trailing)

    def coordinate_fields(self) -> dict[str, np.ndarray]:
        """Node coordinates as full arrays keyed by variable name (x[, y])."""
        return dict(zip(COORDINATES, np.meshgrid(*self.axes, indexing="ij")))


# -- stiffness -------------------------------------------------------
#
# The assembled P1 stiffness K along one axis has rows (-1, 2, -1)/dx and
# ends (1, -1)/dx; the consistent P1 mass M has rows (dx/6, 2dx/3, dx/6)
# with a halved diagonal at the ends.  Applying these factors along each
# axis keeps the product sum_a K_a (x) M_others matrix-free.


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
    axes = tuple(zip(range(-grid.ndim, 0), grid.spacing))
    terms = []
    for axis, dx in axes:
        term = _stiff_1d(values, dx, axis)
        for other, h in axes:
            if other != axis:
                term = _mass_1d(term, h, other)
        terms.append(term)
    # summed from the first term, not from 0.0, which would turn -0.0 into +0.0
    return functools.reduce(np.add, terms)


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
    is used; it is still exact for linears.  The grid's axes are the
    trailing ``grid.ndim`` axes of ``values``, so one call differentiates
    every state of a stack.
    """
    return tuple(_gradient_1d(values, dx, axis) for axis, dx in zip(grid._trailing, grid.spacing))
