"""Forward time stepping with a known convolution kernel.

Each step solves the backward-Euler elliptic problem: find u_i with

    (u_i/tau, phi) + a(u_i, phi)
        = (f_{i-1} + u_{i-1}/tau - K_i h_i - conv_i, phi) - (g_i, phi)_Gamma

for all nodal test functions phi, where conv_i is the rectangle-rule
convolution sum_{k=1..i} K_k u_{i-k} tau (fully explicit in the state)
and f_{i-1} is evaluated at time t_{i-1} with state (u_{i-1}, grad u_{i-1}).

Because constants lie in the nodal test space, every computed step
satisfies the measurement identity

    dM_i + (g_i,1)_Gamma + K_i (h_i,1) + (conv_i,1) - (f_{i-1},1) = 0

up to solver roundoff, with M_i = (u_i, 1).  The relative size of that
residual is recorded per step.

``run_forward`` and ``inverse.reconstruct`` share one stepping loop,
``_march``: per step it evaluates f_{i-1}, h_i and g_i and their means
once, lets the reconstruction read K_i off those means, forms conv_i
once (it includes K_i), and feeds the same values to the load and to
the identity residual.

The elliptic system ((1/tau) W + A) u_i = b is solved directly, in 1D
and 2D alike, by the DCT-I solver of ``solver.SpectralSolver``, which
``TimeStepper`` builds once per grid and step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import NonFiniteError, ValidationError
from .grid import SpatialGrid, nodal_gradient
from .problem import MeasurementSeries, ProblemSpec, TimeGrid
from .solver import SpectralSolver


@dataclass(frozen=True)
class KernelSeries:
    """Kernel samples K_0..K_n aligned with a time grid."""

    timegrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.timegrid.n + 1,):
            raise ValidationError(
                f"expected {self.timegrid.n + 1} kernel samples, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("kernel series contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_expression(cls, tree: expr.Expression, timegrid: TimeGrid) -> "KernelSeries":
        values = np.asarray(expr.evaluate(tree, {"t": timegrid.nodes}), dtype=float)
        values = np.broadcast_to(values, (timegrid.n + 1,)).copy()
        return cls(timegrid, values)


@dataclass(frozen=True)
class Trajectory:
    """States u_0..u_n; u_0 is the interpolated initial expression."""

    grid: SpatialGrid
    timegrid: TimeGrid
    values: np.ndarray  # shape (n+1, *grid.shape)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = (self.timegrid.n + 1, *self.grid.shape)
        if values.shape != expected:
            raise ValidationError(f"trajectory shape {values.shape} != {expected}")
        object.__setattr__(self, "values", values)


def interpolate(tree: expr.Expression, grid: SpatialGrid, t: float | None = None) -> np.ndarray:
    """Evaluate an expression at the grid nodes (optionally at time t)."""
    env: dict[str, object] = dict(grid.coordinate_fields())
    if t is not None:
        env["t"] = t
    out = np.asarray(expr.evaluate(tree, env), dtype=float)
    return np.broadcast_to(out, grid.shape).copy()


def _convolution_values(
    kernel_values: np.ndarray, state_values: np.ndarray, i: int, tau: float
) -> np.ndarray:
    """Rectangle-rule memory term sum_{k=1..i} K_k u_{i-k} tau at step i."""
    # pairs (K_1, u_{i-1}) ... (K_i, u_0)
    history = state_values[i - 1 :: -1]
    return np.tensordot(kernel_values[1 : i + 1], history, axes=([0], [0])) * tau


class TimeStepper:
    """Cached assembly for repeated backward-Euler steps on one grid."""

    def __init__(self, spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self.timegrid = timegrid
        self.nodes = timegrid.nodes  # TimeGrid.nodes builds a new array per access
        self.coords = grid.coordinate_fields()
        self.weights = grid.weights
        self.bweights = grid.boundary_weights
        self._solver = SpectralSolver(grid, timegrid.tau)
        self._f_vars = expr.variables(spec.f)
        self._h_static = self._static_field(spec.h)
        self._g_static = self._static_field(spec.g)

    def _static_field(self, tree: expr.Expression) -> np.ndarray | None:
        if "t" in expr.variables(tree):
            return None
        return interpolate(tree, self.grid)

    def h_field(self, t: float) -> np.ndarray:
        if self._h_static is not None:
            return self._h_static
        return interpolate(self.spec.h, self.grid, t)

    def g_field(self, t: float) -> np.ndarray:
        if self._g_static is not None:
            return self._g_static
        return interpolate(self.spec.g, self.grid, t)

    def f_field(self, t: float, u_values: np.ndarray) -> np.ndarray:
        env: dict[str, object] = dict(self.coords)
        env["t"] = t
        env["u"] = u_values
        if "p" in self._f_vars or "q" in self._f_vars:
            grads = nodal_gradient(self.grid, u_values)
            env["p"] = grads[0]
            env["q"] = grads[1] if self.grid.ndim == 2 else 0.0
        else:
            env["p"] = 0.0
            env["q"] = 0.0
        out = np.asarray(expr.evaluate(self.spec.f, env), dtype=float)
        return np.broadcast_to(out, self.grid.shape)

    def mean(self, field: np.ndarray) -> float:
        """(field, 1) with the lumped quadrature."""
        return float(np.sum(self.weights * field))

    def boundary_mean(self, field: np.ndarray) -> float:
        """(field, 1)_Gamma with the edge-trapezoid quadrature."""
        return float(np.sum(self.bweights * field))

    def initial_state(self) -> np.ndarray:
        return interpolate(self.spec.u0, self.grid)

    def step(
        self,
        k_i: float,
        u_prev: np.ndarray,
        f_prev: np.ndarray,
        conv: np.ndarray,
        h_i: np.ndarray,
        g_i: np.ndarray,
    ) -> np.ndarray:
        """Solve for u_i given K_i, u_{i-1}, f_{i-1}, conv_i, h_i and g_i."""
        load = f_prev + u_prev / self.timegrid.tau - k_i * h_i - conv
        rhs = self.weights * load - self.bweights * g_i
        return self._solver.solve(rhs)

    def compat_residual(
        self,
        i: int,
        k_i: float,
        f_mean: float,
        h_mean: float,
        g_mean: float,
        conv: np.ndarray,
        measured: np.ndarray,
    ) -> float:
        """Relative size of the per-step measurement identity residual.

        ``f_mean``, ``h_mean`` and ``g_mean`` are (f_{i-1},1), (h_i,1) and
        (g_i,1)_Gamma, and ``conv`` is conv_i, all as the step used them.
        """
        terms = (
            (measured[i] - measured[i - 1]) / self.timegrid.tau,
            g_mean,
            k_i * h_mean,
            self.mean(conv),
            -f_mean,
        )
        residual = abs(sum(terms))
        scale = max(abs(term) for term in terms)
        return residual / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class ForwardRun:
    """Trajectory plus the discrete measurement it induces."""

    trajectory: Trajectory
    kernel: KernelSeries
    measured: np.ndarray  # M_i = (u_i, 1)
    compat_residuals: np.ndarray  # relative, one per step i = 1..n


def _march(
    stepper: TimeStepper,
    kernel_values: np.ndarray,
    kernel_update: Callable[[int, float, float, float], float] | None = None,
    on_step: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance u_0..u_n; return the states, M_i = (u_i,1) and the residuals.

    Without ``kernel_update`` the kernel values K_1..K_n are given.  With
    it, ``kernel_update(i, (f_{i-1},1), (h_i,1), (g_i,1)_Gamma)`` supplies
    K_i before step i and the loop stores it in ``kernel_values``.
    ``on_step(i, residual)`` runs after each step.
    """
    timegrid = stepper.timegrid
    n = timegrid.n
    tau = timegrid.tau
    states = np.empty((n + 1, *stepper.grid.shape))
    states[0] = stepper.initial_state()
    measured = np.empty(n + 1)
    measured[0] = stepper.mean(states[0])
    residuals = np.empty(n)
    for i in range(1, n + 1):
        u_prev = states[i - 1]
        f_prev = stepper.f_field(stepper.nodes[i - 1], u_prev)
        f_mean = stepper.mean(f_prev)
        h_i = stepper.h_field(stepper.nodes[i])
        g_i = stepper.g_field(stepper.nodes[i])
        h_mean = stepper.mean(h_i)
        g_mean = stepper.boundary_mean(g_i)
        if kernel_update is not None:
            kernel_values[i] = kernel_update(i, f_mean, h_mean, g_mean)
        # conv_i includes K_i, so it is formed after the update
        conv = _convolution_values(kernel_values, states, i, tau)
        states[i] = stepper.step(kernel_values[i], u_prev, f_prev, conv, h_i, g_i)
        if not np.all(np.isfinite(states[i])):
            raise NonFiniteError("state is not finite", step=i)
        measured[i] = stepper.mean(states[i])
        residuals[i - 1] = stepper.compat_residual(
            i, kernel_values[i], f_mean, h_mean, g_mean, conv, measured
        )
        if on_step is not None:
            on_step(i, residuals[i - 1])
    return states, measured, residuals


def run_forward(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    kernel: KernelSeries,
) -> ForwardRun:
    """Advance the full trajectory with a prescribed kernel."""
    if kernel.timegrid != timegrid:
        raise ValidationError("kernel series is not aligned with the time grid")
    stepper = TimeStepper(spec, grid, timegrid)
    states, measured, residuals = _march(stepper, kernel.values)
    trajectory = Trajectory(grid, timegrid, states)
    return ForwardRun(trajectory, kernel, measured, residuals)


def measurement_from_run(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    run: ForwardRun,
    derivative: str = "analytic",
) -> MeasurementSeries:
    """Wrap a forward run's M_i = (u_i, 1) as a measurement series.

    ``derivative="analytic"`` uses the spec's exact derivative
    expression when present; otherwise the backward difference of the
    computed measurement is substituted.  In the discrete case the
    value at t = 0 is pinned through the initial-time identity
    m'(0) = (f_0,1) - (g_0,1)_Gamma - K_0 (h_0,1), which the generator
    can evaluate because it knows K_0.
    """
    if derivative == "analytic" and spec.mprime_exact is not None:
        nodes = timegrid.nodes
        derivs = np.asarray(expr.evaluate(spec.mprime_exact, {"t": nodes[1:]}), dtype=float)
        derivs = np.broadcast_to(derivs, (timegrid.n,)).copy()
        initial = float(expr.evaluate(spec.mprime_exact, {"t": 0.0}))
        return MeasurementSeries(timegrid, run.measured, derivs, "analytic", initial)
    stepper = TimeStepper(spec, grid, timegrid)
    u0 = run.trajectory.values[0]
    initial = (
        stepper.mean(stepper.f_field(0.0, u0))
        - stepper.boundary_mean(stepper.g_field(0.0))
        - run.kernel.values[0] * stepper.mean(stepper.h_field(0.0))
    )
    return MeasurementSeries.from_samples(timegrid, run.measured, initial)


def generate_measurement(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    kernel: KernelSeries | expr.Expression | None = None,
    derivative: str = "analytic",
) -> MeasurementSeries:
    """Synthetic measurement from a forward run with a known kernel.

    Restriction onto a coarser reconstruction grid is done by the
    returned series' ``restrict`` (fine n must be a multiple of the
    coarse n).
    """
    if kernel is None:
        if spec.kernel_exact is None:
            raise ValidationError("no kernel available to generate data")
        kernel = spec.kernel_exact
    if not isinstance(kernel, KernelSeries):
        kernel = KernelSeries.from_expression(kernel, timegrid)
    run = run_forward(spec, grid, timegrid, kernel)
    return measurement_from_run(spec, grid, timegrid, run, derivative)
