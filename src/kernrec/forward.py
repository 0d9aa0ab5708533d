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

``run_forward`` is the one way to synthetic data: its ``ForwardRun``
carries M_i as a ``MeasurementSeries``, with the spec's exact m' or the
backward difference, whose m'(0) comes from the identity at t = 0
through the run's own ``TimeStepper.initial_means`` (the same means
``inverse.reconstruct`` uses for K_0).

``run_forward`` and ``inverse.reconstruct`` share one stepping loop,
``_march``, and each step does only the work that varies with the step.
Once per run, in ``TimeStepper.__init__``: f, h and g are compiled with
the node coordinates bound (``expr.compile``).  The stepper serves h
and g as coefficient pairs per time node, ``h_pair(j) = (h(t_j),
(h(t_j),1))`` and ``g_pair(j) = (w_Gamma g(t_j), (g(t_j),1)_Gamma)``,
where w_Gamma g is the boundary load and (g,1)_Gamma the sum of that
same product, and f as ``f_pair(j, u) = (f_j, (f_j,1))``.  A pair of a
tree without t is formed once, in ``__init__``.  A tree of t, x and y
alone (h, g, and an f that reads no u, p or q) is evaluated for a block
of time nodes at once: t is bound as a column, so one call of the
compiled tree gives the fields at up to BLOCK_VALUES / N nodes and one
``np.add.reduce`` over the trailing axes their sums, each bit for bit
the value a single node would give.  A block is computed when the
march first reaches one of its nodes, and a block that faults is
evaluated again node by node, so a ``DomainFaultError`` surfaces at the
step where it occurs, after the steps before it.  A node behind the
block held (t_0, read for m'(0) after the march) is evaluated alone.
Only an f that reads the state is evaluated per step (``f_field``).
Once per step: the pairs of f_{i-1}, h_i and g_i, K_i (read off those
means by the reconstruction), conv_i (formed after K_i, which it
includes), the elliptic solve, the finiteness check of u_i and
(conv_i,1), the only mean the loop forms.  The step records
(f_{i-1},1), (h_i,1), (g_i,1)_Gamma and (conv_i,1) as it used them.
Once per run, after the loop: M_i = (u_i,1) for all states, in blocks
of at most BLOCK_VALUES values, and from them and the recorded sums
the identity residuals of all steps (``TimeStepper.compat_residual``);
a traced step gets its residual from the same function, applied to
that step alone, as soon as the step is done.

The states are stored newest-first: the loop allocates its
(n+1, *grid.shape) buffer and works on the reversed view, so
``states[i]`` is u_i while step i's history u_{i-1}, ..., u_0 is the
contiguous slice ``states[i-1::-1]``.  One matrix-vector product takes
that block as it is instead of copying i x N values every step, and the
states the loop returns are the same view, in forward order.

The elliptic system ((1/tau) W + A) u_i = b is solved directly, in 1D
and 2D alike, by the DCT-I solver of ``solver.SpectralSolver``, which
``TimeStepper`` builds once per grid and step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import DomainFaultError, NonFiniteError, ValidationError
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


def interpolate(tree: expr.Expression, grid: SpatialGrid) -> np.ndarray:
    """Evaluate a time-independent expression at the grid nodes."""
    out = np.asarray(expr.evaluate(tree, grid.coordinate_fields()), dtype=float)
    return np.broadcast_to(out, grid.shape).copy()


# a coefficient at one time node: (h, (h,1)), (w_Gamma g, (g,1)_Gamma) or (f, (f,1))
Pair = tuple[np.ndarray, float]

# Values per block of a coefficient of t: one call of the compiled tree
# for many time nodes saves its per-call cost, but a block that leaves
# the cache is slower than node by node.  200 values of manufactured1d's
# f on 8001 nodes took 8-10 ms node by node, 7-9 ms with 2**14 values per
# block, 7-12 ms with 2**17 and 11-13 ms in one block (best of 60, on
# 2 vCPU with numpy 2.4).
BLOCK_VALUES = 1 << 14


def _pairs(
    compiled: expr.Compiled, t: np.ndarray | None, weights: np.ndarray, load: bool
) -> tuple[np.ndarray, list[float]]:
    """Fields of ``compiled`` at the times of the column ``t``, and their weighted sums.

    Without ``t`` there is one row.  The fields are served as they are,
    or as ``weights * field`` (the boundary load of g) when ``load`` is
    set.  np.add.reduce over the trailing axes is np.sum's pairwise
    summation without its Python wrapper, row by row; np.dot would sum
    in a different order.
    """
    shape = (1 if t is None else len(t), *weights.shape)
    out = np.asarray(expr.evaluate(compiled, {} if t is None else {"t": t}), dtype=float)
    values = out if out.shape == shape else np.broadcast_to(out, shape).copy()
    weighted = weights * values
    sums = np.add.reduce(weighted, axis=tuple(range(1, values.ndim)))
    return (weighted if load else values), sums.tolist()


class _Blocks:
    """Pairs of a coefficient of t at ``nodes[j]``, evaluated in blocks."""

    def __init__(
        self, compiled: expr.Compiled, weights: np.ndarray, load: bool, nodes: np.ndarray
    ):
        self._compiled = compiled
        self._weights = weights
        self._load = load
        self._nodes = nodes
        self._rows = max(1, BLOCK_VALUES // weights.size)
        self._column = (-1,) + (1,) * weights.ndim
        self._start = self._stop = 0  # the block held covers nodes start..stop-1
        self._stepwise_stop = 0  # nodes before it are evaluated one at a time

    def __call__(self, j: int) -> Pair:
        if not self._start <= j < self._stop:
            self._fill(j)
        k = j - self._start
        return self._values[k], self._sums[k]

    def _fill(self, j: int) -> None:
        stop = min(j + self._rows, len(self._nodes))
        # a node behind the block held is a lone read, not the march moving on
        if j >= self._start and j >= self._stepwise_stop:
            try:
                self._hold(j, stop)
                return
            except DomainFaultError:
                # the fault belongs to one node of the block; going node by
                # node lets the march reach it, and fail there, in order
                self._stepwise_stop = stop
        self._hold(j, j + 1)

    def _hold(self, start: int, stop: int) -> None:
        t = self._nodes[start:stop].reshape(self._column)
        self._values, self._sums = _pairs(self._compiled, t, self._weights, self._load)
        self._start, self._stop = start, stop


def _coefficient(
    compiled: expr.Compiled, weights: np.ndarray, load: bool, nodes: np.ndarray
) -> Callable[[int], Pair]:
    """``j -> pair at nodes[j]``; formed here once for a tree without t."""
    if "t" in compiled.free:
        return _Blocks(compiled, weights, load, nodes)
    values, sums = _pairs(compiled, None, weights, load)
    fixed = values[0], sums[0]
    return lambda j: fixed


def _convolution_values(
    kernel_values: np.ndarray, state_values: np.ndarray, i: int, tau: float
) -> np.ndarray:
    """Rectangle-rule memory term sum_{k=1..i} K_k u_{i-k} tau at step i."""
    # pairs (K_1, u_{i-1}) ... (K_i, u_0); contiguous for newest-first storage
    history = state_values[i - 1 :: -1]
    # the gemv that np.tensordot makes, without its per-call shape handling
    conv = kernel_values[1 : i + 1] @ history.reshape(i, -1) * tau
    return conv.reshape(history.shape[1:])


class TimeStepper:
    """Cached assembly for repeated backward-Euler steps on one grid."""

    def __init__(self, spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid):
        self.grid = grid
        self.timegrid = timegrid
        self.nodes = timegrid.nodes  # TimeGrid.nodes builds a new array per access
        self.tau = timegrid.tau
        self.weights = grid.weights
        self.bweights = grid.boundary_weights
        self._solver = SpectralSolver(grid, timegrid.tau)
        # compiled once with the node coordinates bound, so the sub-trees
        # over x and y alone are evaluated once per run, not once per step
        coords = grid.coordinate_fields()
        self._f = expr.compile(spec.f, coords)
        self._f_grad = not self._f.free.isdisjoint({"p", "q"})
        self.u0 = interpolate(spec.u0, grid)
        # f is needed at t_0..t_{n-1}, h and g at t_1..t_n (and t_0 for K_0)
        self._f_pairs = None
        if self._f.free.isdisjoint({"u", "p", "q"}):
            self._f_pairs = _coefficient(self._f, self.weights, False, self.nodes[:-1])
        self.h_pair = _coefficient(expr.compile(spec.h, coords), self.weights, False, self.nodes)
        self.g_pair = _coefficient(expr.compile(spec.g, coords), self.bweights, True, self.nodes)

    def f_field(self, t: float, u_values: np.ndarray) -> np.ndarray:
        env: dict[str, object] = {"t": t, "u": u_values}
        if self._f_grad:
            grads = nodal_gradient(self.grid, u_values)
            env["p"] = grads[0]
            env["q"] = grads[1] if self.grid.ndim == 2 else 0.0
        out = np.asarray(expr.evaluate(self._f, env), dtype=float)
        if out.shape == self.grid.shape:
            return out
        return np.broadcast_to(out, self.grid.shape)

    def f_pair(self, j: int, u_values: np.ndarray) -> Pair:
        """(f_j, (f_j,1)) at t_j and state u; from blocks when f reads no state."""
        if self._f_pairs is not None:
            return self._f_pairs(j)
        f = self.f_field(self.nodes[j], u_values)
        return f, self.mean(f)

    def mean(self, field: np.ndarray) -> float:
        """(field, 1) with the lumped quadrature."""
        return float(np.add.reduce(self.weights * field, axis=None))

    def initial_means(self) -> tuple[float, float, float]:
        """(f_0,1), (g_0,1)_Gamma and (h_0,1) of the identity at t = 0."""
        return self.f_pair(0, self.u0)[1], self.g_pair(0)[1], self.h_pair(0)[1]

    def step(
        self,
        k_i: float,
        u_prev: np.ndarray,
        f_prev: np.ndarray,
        conv: np.ndarray,
        h_i: np.ndarray,
        g_load: np.ndarray,
    ) -> np.ndarray:
        """Solve for u_i given K_i, u_{i-1}, f_{i-1}, conv_i, h_i and w_Gamma g_i."""
        load = f_prev + u_prev / self.tau - k_i * h_i - conv
        return self._solver.solve(self.weights * load - g_load)

    def compat_residual(
        self,
        states: np.ndarray,
        kernel_values: np.ndarray,
        sums: list[tuple[float, float, float, float]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """M = (u,1) of consecutive states, and the relative measurement
        identity residual of each step between them.

        ``states`` holds u_{i-1}..u_{i+m}, ``kernel_values`` K_{i-1}..K_{i+m},
        and row k of ``sums`` the (f_{j-1},1), (h_j,1), (g_j,1)_Gamma and
        (conv_j,1) that step j = i+k used.  The means are formed in blocks
        of at most BLOCK_VALUES values, each as ``mean`` forms it, and each
        residual |dM_j + (g_j,1)_Gamma + K_j (h_j,1) + (conv_j,1) - (f_{j-1},1)|,
        summed in that order, is divided by the largest of its terms.
        """
        measured = np.empty(states.shape[0])
        rows = max(1, BLOCK_VALUES // self.weights.size)
        axes = tuple(range(1, states.ndim))
        for lo in range(0, states.shape[0], rows):
            block = self.weights * states[lo : lo + rows]
            measured[lo : lo + rows] = np.add.reduce(block, axis=axes)
        f_mean, h_mean, g_mean, conv_mean = np.asarray(sums, dtype=float).T
        terms = np.stack((
            (measured[1:] - measured[:-1]) / self.tau,
            g_mean,
            kernel_values[1:] * h_mean,
            conv_mean,
            -f_mean,
        ))
        residual = np.abs(terms[0] + terms[1] + terms[2] + terms[3] + terms[4])
        scale = np.max(np.abs(terms), axis=0)
        # a step whose terms are all zero has residual 0; a NaN stays NaN
        out = np.zeros_like(residual)
        return measured, np.divide(residual, scale, out=out, where=scale != 0)


@dataclass(frozen=True)
class ForwardRun:
    """States u_0..u_n plus the discrete measurement they induce."""

    states: np.ndarray  # shape (n+1, *grid.shape); u_0 is the interpolated u0
    kernel: KernelSeries
    measurement: MeasurementSeries  # M_i = (u_i, 1)
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
    n = stepper.timegrid.n
    tau = stepper.tau
    # newest-first storage (see the module docstring)
    states = np.empty((n + 1, *stepper.grid.shape))[::-1]
    states[0] = stepper.u0
    u_prev = states[0]
    sums = []  # (f_{i-1},1), (h_i,1), (g_i,1)_Gamma and (conv_i,1) per step
    for i in range(1, n + 1):
        f_prev, f_mean = stepper.f_pair(i - 1, u_prev)
        h_i, h_mean = stepper.h_pair(i)
        g_load, g_mean = stepper.g_pair(i)
        if kernel_update is not None:
            kernel_values[i] = kernel_update(i, f_mean, h_mean, g_mean)
        # conv_i includes K_i, so it is formed after the update
        conv = _convolution_values(kernel_values, states, i, tau)
        states[i] = stepper.step(kernel_values[i], u_prev, f_prev, conv, h_i, g_load)
        u_prev = states[i]
        if not np.isfinite(u_prev).all():
            raise NonFiniteError("state is not finite", step=i)
        sums.append((f_mean, h_mean, g_mean, stepper.mean(conv)))
        if on_step is not None:
            window = slice(i - 1, i + 1)
            _, residual = stepper.compat_residual(states[window], kernel_values[window], sums[-1:])
            on_step(i, residual[0])
    measured, residuals = stepper.compat_residual(states, kernel_values, sums)
    return states, measured, residuals


def run_forward(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    kernel: KernelSeries | None = None,
    derivative: str = "analytic",
) -> ForwardRun:
    """Advance u_0..u_n with a prescribed kernel.

    ``kernel`` defaults to the spec's exact kernel sampled on
    ``timegrid``.  The run's measurement M_i = (u_i, 1) carries the
    spec's exact m' when ``derivative="analytic"`` and the spec has one;
    otherwise the backward difference of M, with m'(0) pinned by the
    identity at t = 0, m'(0) = (f_0,1) - (g_0,1)_Gamma - K_0 (h_0,1).
    Restriction onto a coarser time grid is the measurement's
    ``restrict``.
    """
    if derivative not in ("analytic", "discrete"):
        raise ValidationError(
            f"derivative must be 'analytic' or 'discrete', got {derivative!r}"
        )
    if kernel is None:
        if spec.kernel_exact is None:
            raise ValidationError("no kernel available to generate data")
        kernel = KernelSeries.from_expression(spec.kernel_exact, timegrid)
    if kernel.timegrid != timegrid:
        raise ValidationError("kernel series is not aligned with the time grid")
    stepper = TimeStepper(spec, grid, timegrid)
    states, measured, residuals = _march(stepper, kernel.values)
    if derivative == "analytic" and spec.mprime_exact is not None:
        derivs = expr.evaluate(spec.mprime_exact, {"t": stepper.nodes[1:]})
        derivs = np.broadcast_to(np.asarray(derivs, dtype=float), (timegrid.n,)).copy()
        initial = float(expr.evaluate(spec.mprime_exact, {"t": 0.0}))
        measurement = MeasurementSeries(timegrid, measured, derivs, "analytic", initial)
    else:
        f_mean, g_mean, h_mean = stepper.initial_means()
        initial = f_mean - g_mean - kernel.values[0] * h_mean
        measurement = MeasurementSeries.from_samples(timegrid, measured, initial)
    return ForwardRun(states, kernel, measurement, residuals)
