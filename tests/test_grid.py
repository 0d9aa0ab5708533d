import math

import numpy as np
import pytest

from kernrec.grid import SpatialGrid, nodal_gradient, stiffness_diagonal, stiffness_matvec


@pytest.fixture
def unit_interval():
    return SpatialGrid.interval(1.0, 10)


@pytest.fixture
def unit_square():
    return SpatialGrid.rectangle(1.0, 1.0, 4, 4)


class TestConstruction:
    def test_weights_sum_to_measure_1d(self, unit_interval):
        assert abs(unit_interval.weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("lx,ly,mx,my", [(1.0, 1.0, 4, 4), (2.0, 3.0, 7, 5)])
    def test_weights_sum_to_measure_2d(self, lx, ly, mx, my):
        g = SpatialGrid.rectangle(lx, ly, mx, my)
        assert abs(g.weights.sum() - lx * ly) < 1e-12 * lx * ly

    def test_boundary_weights_sum_1d(self, unit_interval):
        assert abs(unit_interval.boundary_weights.sum() - 2.0) < 1e-12

    @pytest.mark.parametrize("lx,ly,mx,my", [(1.0, 1.0, 4, 4), (2.0, 3.0, 7, 5)])
    def test_boundary_weights_sum_2d(self, lx, ly, mx, my):
        g = SpatialGrid.rectangle(lx, ly, mx, my)
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
            SpatialGrid.interval(1.0, 0)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            SpatialGrid.interval(-1.0, 4)


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
            g = SpatialGrid.interval(1.0, cells)
            assert abs(_mean(g, g.axes[0]) - 0.5) < 1e-14

    def test_cosine_mean_vanishes(self):
        g = SpatialGrid.interval(1.0, 100)
        assert abs(_mean(g, np.cos(np.pi * g.axes[0]))) < 1e-4


class TestStiffness:
    def test_annihilates_constants_exactly(self, unit_interval, unit_square):
        for g in (unit_interval, unit_square):
            r = stiffness_matvec(g, np.full(g.shape, 7.0))
            assert np.all(r == 0.0)

    def test_linear_energy_exact(self):
        g = SpatialGrid.interval(1.0, 13)
        u = g.axes[0]
        assert abs(_energy(g, u, u) - 1.0) < 1e-12

    def test_cosine_energy(self):
        # region integral of (d/dx cos(pi x))^2 over (0,1) is pi^2/2
        g = SpatialGrid.interval(1.0, 200)
        u = np.cos(np.pi * g.axes[0])
        assert abs(_energy(g, u, u) - math.pi**2 / 2) < 1e-3

    def test_cosine_energy_2d(self):
        g = SpatialGrid.rectangle(1.0, 1.0, 64, 64)
        xx, _ = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
        u = np.cos(np.pi * xx)
        assert abs(_energy(g, u, u) - math.pi**2 / 2) < 1e-3

    def test_interior_is_second_difference(self):
        # in the 1D interior A u / w is -(u_{j-1} - 2 u_j + u_{j+1}) / dx^2
        g = SpatialGrid.interval(1.0, 8)
        rng = np.random.default_rng(1)
        v = rng.normal(size=g.shape)
        r = stiffness_matvec(g, v) / g.weights
        dx = g.spacing[0]
        expected = -(v[:-2] - 2 * v[1:-1] + v[2:]) / dx**2
        np.testing.assert_allclose(r[1:-1], expected, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symmetry(self, dim):
        g = SpatialGrid.interval(1.0, 20) if dim == 1 else SpatialGrid.rectangle(1.0, 2.0, 9, 7)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.normal(size=g.shape)
            v = rng.normal(size=g.shape)
            a_uv = _energy(g, u, v)
            a_vu = _energy(g, v, u)
            assert abs(a_uv - a_vu) <= 1e-12 * max(1.0, abs(a_uv))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_positive_semidefinite(self, dim):
        g = SpatialGrid.interval(1.0, 20) if dim == 1 else SpatialGrid.rectangle(1.0, 1.0, 8, 8)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.normal(size=g.shape)
            assert _energy(g, u, u) >= -1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_green_compatibility(self, dim):
        # constant test function annihilates the stiffness form
        g = SpatialGrid.interval(1.0, 50) if dim == 1 else SpatialGrid.rectangle(1.0, 1.0, 12, 12)
        rng = np.random.default_rng(11)
        one = np.ones(g.shape)
        for _ in range(10):
            u = rng.normal(size=g.shape)
            scale = np.abs(stiffness_matvec(g, u)).max()
            assert abs(_energy(g, u, one)) <= 1e-12 * max(1.0, scale)

    def test_diagonal_matches_matvec(self, unit_square):
        d = stiffness_diagonal(unit_square)
        for flat in (0, 7, 12):
            e = np.zeros(unit_square.shape)
            e.ravel()[flat] = 1.0
            assert abs(stiffness_matvec(unit_square, e).ravel()[flat] - d.ravel()[flat]) < 1e-12

    def test_grad_seminorm_of_constant(self, unit_interval):
        u = np.full(unit_interval.shape, 5.0)
        assert _energy(unit_interval, u, u) == 0.0


class TestNodalGradient:
    def test_linear_exact_everywhere(self):
        g = SpatialGrid.interval(1.0, 9)
        (p,) = nodal_gradient(g, 2.0 * g.axes[0] + 1.0)
        np.testing.assert_allclose(p, 2.0, rtol=1e-12)

    def test_constant_gives_zero(self, unit_interval):
        (p,) = nodal_gradient(unit_interval, np.full(unit_interval.shape, 4.0))
        assert np.all(p == 0.0)

    def test_quadratic_central_exact(self):
        g = SpatialGrid.interval(1.0, 10)
        (p,) = nodal_gradient(g, g.axes[0] ** 2)
        mid = 5  # x = 0.5
        assert abs(p[mid] - 1.0) < 1e-12

    def test_two_node_fallback(self):
        g = SpatialGrid.interval(1.0, 1)
        (p,) = nodal_gradient(g, np.array([0.0, 3.0]))
        np.testing.assert_allclose(p, 3.0, rtol=1e-14)

    def test_2d_components(self):
        g = SpatialGrid.rectangle(1.0, 1.0, 6, 6)
        xx, yy = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
        p, q = nodal_gradient(g, xx + 2.0 * yy)
        np.testing.assert_allclose(p, 1.0, rtol=1e-12)
        np.testing.assert_allclose(q, 2.0, rtol=1e-12)
