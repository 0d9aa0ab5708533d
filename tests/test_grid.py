import math

import numpy as np
import pytest

from kernrec.grid import SpatialGrid, nodal_gradient, stiffness_matvec
from oracles import dense_stiffness


@pytest.fixture
def unit_interval():
    return SpatialGrid((1.0,), (10,))


@pytest.fixture
def unit_square():
    return SpatialGrid((1.0, 1.0), (4, 4))


class TestConstruction:
    def test_weights_sum_to_measure_1d(self, unit_interval):
        assert abs(unit_interval.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("lx,ly,mx,my", [(1.0, 1.0, 4, 4), (2.0, 3.0, 7, 5)])
    def test_weights_sum_to_measure_2d(self, lx, ly, mx, my):
        g = SpatialGrid((lx, ly), (mx, my))
        assert abs(g.weights.sum() - lx * ly) < 1e-12 * lx * ly

    def test_boundary_weights_sum_1d(self, unit_interval):
        assert abs(unit_interval.boundary_weights.sum() - 2.0) < 1e-12

    @pytest.mark.parametrize("lx,ly,mx,my", [(1.0, 1.0, 4, 4), (2.0, 3.0, 7, 5)])
    def test_boundary_weights_sum_2d(self, lx, ly, mx, my):
        g = SpatialGrid((lx, ly), (mx, my))
        perimeter = 2 * (lx + ly)
        assert abs(g.boundary_weights.sum() - perimeter) < 1e-12 * perimeter

    def test_all_weights_positive(self, unit_square):
        assert np.all(unit_square.weights > 0)
        bw = unit_square.boundary_weights
        for edge in (bw[0, :], bw[-1, :], bw[:, 0], bw[:, -1]):
            assert np.all(edge > 0)
        assert np.all(bw[1:-1, 1:-1] == 0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            SpatialGrid((1.0,), (0,))

    @pytest.mark.parametrize(
        "extents,cells", [((1.0,), (4, 4)), ((1.0, 1.0), (4,)), ((1.0,) * 3, (4,) * 3)]
    )
    def test_one_or_two_axes_with_matching_cells(self, extents, cells):
        with pytest.raises(ValueError, match="^grid must be 1D or 2D with matching extents/cells$"):
            SpatialGrid(extents, cells)

    @pytest.mark.parametrize(
        "extents, shown",
        [((-1.0,), "-1.0"), ((float("nan"),), "nan"), ((1.0, float("nan")), "nan")],
        ids=["negative", "nan-x", "nan-y"],
    )
    def test_bad_extent(self, extents, shown):
        with pytest.raises(ValueError, match=f"^extent must be positive, got {shown}$"):
            SpatialGrid(extents, (4,) * len(extents))


@pytest.mark.parametrize(
    "extents, cells",
    [((1.0,), (50,)), ((1.0,), (8000,)), ((1.0,), (1,)),
     ((1.0, 1.0), (160, 160)), ((1.0, 2.0), (12, 6)), ((1.0, 2.0), (1, 7))],
)
@pytest.mark.parametrize("boundary", [False, True], ids=["volume", "boundary"])
def test_integral_of_a_stack_is_each_fields(extents, cells, boundary):
    # a stack, and the march's newest-first reversed view of it, gives each
    # field's own (u,1) bit for bit: the identity compares sums of both kinds
    g = SpatialGrid(extents, cells)
    weights = g.boundary_weights if boundary else g.weights
    stack = np.random.default_rng(8).standard_normal((7, *g.shape)) * 1e3
    for states in (stack, stack[::-1]):
        rows = g.integral(states, boundary)
        assert rows.shape == (7,)
        for u, row in zip(states, rows.tolist(), strict=True):
            assert row == g.integral(u, boundary) == np.sum(weights * u)
            assert row == np.add.reduce(weights * u, axis=None)


def _mean(g, u):
    """(u, 1) with the lumped quadrature."""
    return float(np.sum(g.weights * u))


def _energy(g, u, v):
    """Stiffness form a(u, v)."""
    return float(np.sum(stiffness_matvec(g, u) * v))


class TestInner:
    def test_constants(self, unit_interval):
        assert abs(_mean(unit_interval, np.ones(unit_interval.shape)) - 1.0) < 1e-12

    def test_linear_exact(self):
        # trapezoid quadrature integrates linears exactly
        for cells in (3, 10, 17):
            g = SpatialGrid((1.0,), (cells,))
            assert abs(_mean(g, g.axes[0]) - 0.5) < 1e-14

    def test_cosine_mean_vanishes(self):
        g = SpatialGrid((1.0,), (100,))
        assert abs(_mean(g, np.cos(np.pi * g.axes[0]))) < 1e-4


class TestStiffness:
    def test_annihilates_constants_exactly(self, unit_interval, unit_square):
        for g in (unit_interval, unit_square):
            r = stiffness_matvec(g, np.full(g.shape, 7.0))
            assert np.all(r == 0.0)

    def test_linear_energy_exact(self):
        g = SpatialGrid((1.0,), (13,))
        u = g.axes[0]
        assert abs(_energy(g, u, u) - 1.0) < 1e-12

    def test_cosine_energy(self):
        # region integral of (d/dx cos(pi x))^2 over (0,1) is pi^2/2
        g = SpatialGrid((1.0,), (200,))
        u = np.cos(np.pi * g.axes[0])
        assert abs(_energy(g, u, u) - math.pi**2 / 2) < 1e-3

    def test_cosine_energy_2d(self):
        g = SpatialGrid((1.0, 1.0), (64, 64))
        xx, _ = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
        u = np.cos(np.pi * xx)
        assert abs(_energy(g, u, u) - math.pi**2 / 2) < 1e-3

    def test_interior_is_second_difference(self):
        # in the 1D interior A u / w is -(u_{j-1} - 2 u_j + u_{j+1}) / dx^2
        g = SpatialGrid((1.0,), (8,))
        rng = np.random.default_rng(1)
        v = rng.normal(size=g.shape)
        r = stiffness_matvec(g, v) / g.weights
        dx = g.spacing[0]
        expected = -(v[:-2] - 2 * v[1:-1] + v[2:]) / dx**2
        np.testing.assert_allclose(r[1:-1], expected, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetry(self, dim):
        g = SpatialGrid((1.0,), (20,)) if dim == 1 else SpatialGrid((1.0, 2.0), (9, 7))
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.normal(size=g.shape)
            v = rng.normal(size=g.shape)
            a_uv = _energy(g, u, v)
            a_vu = _energy(g, v, u)
            assert abs(a_uv - a_vu) <= 1e-12 * max(1.0, abs(a_uv))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_positive_semidefinite(self, dim):
        g = SpatialGrid((1.0,), (20,)) if dim == 1 else SpatialGrid((1.0, 1.0), (8, 8))
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.normal(size=g.shape)
            assert _energy(g, u, u) >= -1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_green_compatibility(self, dim):
        # constant test function annihilates the stiffness form
        g = SpatialGrid((1.0,), (50,)) if dim == 1 else SpatialGrid((1.0, 1.0), (12, 12))
        rng = np.random.default_rng(11)
        one = np.ones(g.shape)
        for _ in range(10):
            u = rng.normal(size=g.shape)
            scale = np.abs(stiffness_matvec(g, u)).max()
            assert abs(_energy(g, u, one)) <= 1e-12 * max(1.0, scale)

    @pytest.mark.parametrize(
        "extents,cells",
        [((1.0,), (10,)), ((1.0,), (1,)), ((1.0, 2.0), (4, 3)), ((1.0, 2.0), (1, 3))],
        ids=["10", "1", "4x3", "1x3"],
    )
    def test_matvec_is_the_assembled_matrix(self, extents, cells):
        # A applied to each unit field, as one stack, is A column by column
        g = SpatialGrid(extents, cells)
        dense = dense_stiffness(g)
        units = np.eye(len(dense)).reshape(-1, *g.shape)
        columns = stiffness_matvec(g, units).reshape(len(dense), -1).T
        assert np.abs(columns - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_grad_seminorm_of_constant(self, unit_interval):
        u = np.full(unit_interval.shape, 5.0)
        assert _energy(unit_interval, u, u) == 0.0


class TestNodalGradient:
    def test_linear_exact_everywhere(self):
        g = SpatialGrid((1.0,), (9,))
        (p,) = nodal_gradient(g, 2.0 * g.axes[0] + 1.0)
        np.testing.assert_allclose(p, 2.0, rtol=1e-12)

    def test_constant_gives_zero(self, unit_interval):
        (p,) = nodal_gradient(unit_interval, np.full(unit_interval.shape, 4.0))
        assert np.all(p == 0.0)

    def test_quadratic_central_exact(self):
        g = SpatialGrid((1.0,), (10,))
        (p,) = nodal_gradient(g, g.axes[0] ** 2)
        mid = 5  # x = 0.5
        assert abs(p[mid] - 1.0) < 1e-12

    def test_two_node_fallback(self):
        g = SpatialGrid((1.0,), (1,))
        (p,) = nodal_gradient(g, np.array([0.0, 3.0]))
        np.testing.assert_allclose(p, 3.0, rtol=1e-14)

    def test_2d_components(self):
        g = SpatialGrid((1.0, 1.0), (6, 6))
        xx, yy = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
        p, q = nodal_gradient(g, xx + 2.0 * yy)
        np.testing.assert_allclose(p, 1.0, rtol=1e-12)
        np.testing.assert_allclose(q, 2.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "extents,cells",
        [((1.0,), (50,)), ((2.0,), (1,)), ((1.0, 2.0), (12, 30)), ((1.0, 2.0), (1, 7))],
    )
    def test_stack_is_differentiated_row_by_row(self, extents, cells):
        # the grid's axes trail: the gradient of a stack of states, contiguous
        # or a march's strided view of one step, is each state's bit for bit
        g = SpatialGrid(extents, cells)
        states = np.random.default_rng(6).normal(size=(3, 5, *g.shape))[:, ::-1]
        for stack in (np.ascontiguousarray(states[:, 2]), states[:, 2]):
            components = nodal_gradient(g, stack)
            assert len(components) == g.ndim
            for k, u in enumerate(stack):
                for stacked, alone in zip(components, nodal_gradient(g, u), strict=True):
                    assert stacked.shape == stack.shape
                    assert np.array_equal(stacked[k], alone)

