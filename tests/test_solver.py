import re
import warnings

import numpy as np
import pytest

from kernrec.errors import ValidationError
from kernrec.grid import SpatialGrid, stiffness_matvec
from kernrec.solver import SpectralSolver
from oracles import dense_step_operator


class TestSpectralSolver:
    @pytest.mark.parametrize(
        "extents,cells,bound",
        [((1.0,), (1,), 1e-12), ((1.0,), (2,), 1e-12), ((1.0,), (80,), 1e-12),
         ((1.0,), (2000,), 1e-10), ((1.0, 2.0), (9, 7), 1e-12),
         ((1.0, 2.0), (1, 7), 1e-12), ((1.0, 2.0), (8, 1), 1e-12)],
        ids=["1", "2", "80", "2000", "9x7", "1x7", "8x1"],
    )
    def test_agrees_with_dense_solve(self, extents, cells, bound):
        # pins the eigenvalues, lambda and nu alike, to the assembled operator;
        # 2000 cells' conditioning leaves the dense solve about 4e-12 off
        grid = SpatialGrid(extents, cells)
        tau = 0.02
        stack = np.random.default_rng(sum(cells)).normal(size=(3, *grid.shape))
        x = SpectralSolver(grid, tau).solve(stack)
        dense = np.linalg.solve(dense_step_operator(grid, tau), stack.reshape(3, -1).T).T
        assert np.abs(x - dense.reshape(stack.shape)).max() <= bound * np.abs(dense).max()

    @pytest.mark.parametrize(
        "grid",
        [SpatialGrid((1.0,), (1,)), SpatialGrid((2.0,), (80,)),
         SpatialGrid((1.0, 2.0), (9, 7)), SpatialGrid((1.0, 1.0), (64, 70))],
    )
    def test_residual_against_stencils(self, grid):
        # pins the eigenvalues to the assembled stiffness of grid.py
        tau = 0.05
        b = np.random.default_rng(3).normal(size=grid.shape)
        x = SpectralSolver(grid, tau).solve(b)
        residual = grid.weights / tau * x + stiffness_matvec(grid, x) - b
        assert np.linalg.norm(residual.ravel()) <= 1e-13 * np.linalg.norm(b.ravel())

    @pytest.mark.parametrize("rows", [1, 3, 8, 9])
    @pytest.mark.parametrize(
        "extents,cells",
        [((1.0,), (50,)), ((2.0,), (1,)), ((1.0, 2.0), (12, 30)), ((1.0, 2.0), (1, 7))],
    )
    def test_stack_is_solved_row_by_row(self, extents, cells, rows):
        # the grid's axes trail: one solve of a stack of right-hand sides,
        # contiguous or a march's strided view of one step, gives each row's
        # own solution bit for bit, for stacks as large as a sweep's levels
        grid = SpatialGrid(extents, cells)
        solver = SpectralSolver(grid, 0.05)
        states = np.random.default_rng(4).normal(size=(rows, 5, *grid.shape))[:, ::-1]
        for stack in (np.ascontiguousarray(states[:, 2]), states[:, 2]):
            solved = solver.solve(stack)
            assert solved.shape == stack.shape
            for row, b in zip(solved, stack, strict=True):
                assert np.array_equal(row, solver.solve(b))

    @pytest.mark.parametrize(
        "grid, tau, message",
        [(SpatialGrid((1.0,), (2,)), 1e-308,
          "the step's operator overflows for tau = 1e-308, dx = 0.5"),
         (SpatialGrid((2e-154, 2e-154), (2, 2)), 0.1,
          "the step's operator overflows for tau = 0.1, dx = 1e-154, dy = 1e-154")],
        ids=["reciprocal-step", "stencil"],
    )
    def test_operator_that_overflows_is_validation_failure(self, grid, tau, message):
        # 1/tau and 1/dx^2 are finite, but (1/tau) times the DCT's 2M, or the
        # stencil's 4/dx^2, is not: such a mode would be solved as 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                SpectralSolver(grid, tau)
