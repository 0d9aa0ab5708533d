import re
import warnings

import numpy as np
import pytest

from kernrec.errors import ValidationError
from kernrec.grid import SpatialGrid, stiffness_matvec
from kernrec.solver import SpectralSolver
from oracles import (
    IterationLimitError,
    SingularMatrixError,
    SpdOperator,
    solve_cg,
    solve_tridiagonal,
    stiffness_diagonal,
)


def _dense_from_bands(diag, lower, upper):
    n = len(diag)
    a = np.diag(diag)
    a += np.diag(lower, -1)
    a += np.diag(upper, 1)
    return a


class TestTridiagonal:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=7)
        x = solve_tridiagonal(np.ones(7), np.zeros(6), np.zeros(6), b)
        np.testing.assert_array_equal(x, b)

    def test_two_by_two(self):
        # dense elimination gives [2/3, 1/3]
        x = solve_tridiagonal(np.array([2.0, 2.0]), np.array([-1.0]), np.array([-1.0]),
                              np.array([1.0, 0.0]))
        oracle = np.linalg.solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, oracle, rtol=1e-14)
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 40, 200):
            lower = rng.normal(size=n - 1)
            upper = rng.normal(size=n - 1)
            diag = np.abs(rng.normal(size=n)) + np.abs(np.r_[0, lower]) + np.abs(np.r_[upper, 0]) + 1.0
            b = rng.normal(size=n)
            x = solve_tridiagonal(diag, lower, upper, b)
            dense = _dense_from_bands(diag, lower, upper)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10)
            residual = np.abs(dense @ x - b).max()
            assert residual <= 1e-10 * (np.abs(b).max() + 1.0)

    def test_zero_pivot(self):
        with pytest.raises(SingularMatrixError):
            solve_tridiagonal(np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]),
                              np.array([1.0, 1.0]))

    def test_singular_after_elimination(self):
        # second pivot becomes 1 - 1*1 = 0
        with pytest.raises(SingularMatrixError):
            solve_tridiagonal(np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0]),
                              np.array([1.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(np.ones(3), np.ones(3), np.ones(2), np.ones(3))


def _diag_operator(d):
    d = np.asarray(d, dtype=float)
    return SpdOperator(
        shift=1.0,
        mass_weights=d,
        stiffness_matvec=lambda v: np.zeros_like(v),
        stiffness_diag=np.zeros_like(d),
    )


def _backward_euler_operator(grid, tau):
    return SpdOperator(
        shift=1.0 / tau,
        mass_weights=grid.weights,
        stiffness_matvec=lambda v: stiffness_matvec(grid, v),
        stiffness_diag=stiffness_diagonal(grid),
    )


class TestConjugateGradient:
    def test_diagonal_system_single_iteration(self):
        rng = np.random.default_rng(5)
        d = np.abs(rng.normal(size=9)) + 0.5
        b = rng.normal(size=9)
        iterations = []
        x = solve_cg(_diag_operator(d), b, tol=1e-12,
                     callback=lambda k, xk, r: iterations.append(k))
        assert iterations[-1] == 1
        np.testing.assert_allclose(x, b / d, rtol=1e-12)

    def test_zero_rhs(self):
        x = solve_cg(_diag_operator(np.ones(4)), np.zeros(4))
        np.testing.assert_array_equal(x, 0.0)

    def test_agrees_with_tridiagonal_path(self):
        # the direct 1D solve is the oracle for the iterative path
        grid = SpatialGrid((1.0,), (60,))
        tau = 0.01
        rng = np.random.default_rng(9)
        b = rng.normal(size=grid.shape)
        op = _backward_euler_operator(grid, tau)
        dx = grid.spacing[0]
        diag = grid.weights / tau + stiffness_diagonal(grid)
        off = np.full(grid.cells[0], -1.0 / dx)
        x_direct = solve_tridiagonal(diag, off, off, b)
        x_cg = solve_cg(op, b, tol=1e-12)
        assert np.abs(x_cg - x_direct).max() <= 1e-8

    def test_solves_2d_operator(self):
        grid = SpatialGrid((1.0, 1.0), (12, 12))
        op = _backward_euler_operator(grid, 0.05)
        rng = np.random.default_rng(2)
        b = rng.normal(size=grid.shape)
        x = solve_cg(op, b, tol=1e-11)
        residual = np.linalg.norm((op.apply(x) - b).ravel())
        assert residual <= 1e-10 * np.linalg.norm(b.ravel())

    def test_iteration_limit_error_carries_residual(self):
        grid = SpatialGrid((1.0,), (200,))
        op = _backward_euler_operator(grid, 1e-6)  # poorly scaled on purpose
        b = np.sin(np.linspace(0, 20, 201))
        with pytest.raises(IterationLimitError) as err:
            solve_cg(op, b, tol=1e-14, max_iter=2)
        assert err.value.iterations == 2
        assert err.value.residual > 0

    def test_energy_decreases_monotonically(self):
        rng = np.random.default_rng(17)
        n = 30
        m = rng.normal(size=(n, n))
        a = m.T @ m + np.eye(n)
        op = SpdOperator(
            shift=0.0,
            mass_weights=np.zeros(n),
            stiffness_matvec=lambda v: a @ v,
            stiffness_diag=np.diag(a).copy(),
        )
        b = rng.normal(size=n)
        energies = []
        solve_cg(op, b, tol=1e-12, max_iter=500,
                 callback=lambda k, x, r: energies.append(0.5 * x @ (a @ x) - b @ x))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10 * np.abs(energies[0]))

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            solve_cg(_diag_operator(np.ones(3)), np.ones(3), tol=0.0)


class TestSpectralSolver:
    @pytest.mark.parametrize("cells", [1, 2, 80, 2000])
    def test_agrees_with_thomas(self, cells):
        grid = SpatialGrid((1.0,), (cells,))
        tau = 0.01
        b = np.random.default_rng(cells).normal(size=grid.shape)
        dx = grid.spacing[0]
        diag = grid.weights / tau + stiffness_diagonal(grid)
        off = np.full(cells, -1.0 / dx)
        x_direct = solve_tridiagonal(diag, off, off, b)
        x = SpectralSolver(grid, tau).solve(b)
        assert np.abs(x - x_direct).max() <= 1e-10 * np.abs(x_direct).max()

    @pytest.mark.parametrize("extents,cells", [((1.0, 2.0), (9, 7)), ((1.0, 1.0), (64, 70))])
    def test_agrees_with_cg_on_rectangles(self, extents, cells):
        grid = SpatialGrid(extents, cells)
        tau = 0.02
        b = np.random.default_rng(cells[0]).normal(size=grid.shape)
        x_cg = solve_cg(_backward_euler_operator(grid, tau), b, tol=1e-12)
        x = SpectralSolver(grid, tau).solve(b)
        assert np.abs(x - x_cg).max() <= 1e-8

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
