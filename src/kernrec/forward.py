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

up to solver roundoff, with M_i = (u_i, 1).  Every (.,1) in it is
``SpatialGrid.integral``, one lumped quadrature summed in one order.
The relative size of that residual is recorded per step.

``run_forward`` is the one way to synthetic data: it marches with the
spec's exact kernel, sampled at the time nodes (``TimeGrid.sample``),
and its ``ForwardRun`` carries that array and M_i as a
``MeasurementSeries``, with the spec's exact m' or the
backward difference, whose m'(0) comes from the identity at t = 0
through the run's own ``TimeStepper.initial_means`` (the same means
``inverse.reconstruct`` uses for K_0).

``run_forward`` and ``inverse.reconstruct`` share one stepping loop,
``_march``, and each step does only the work that varies with the step.
Once per run, in ``TimeStepper.__init__``: f, h and g are compiled with
the node coordinates bound (``expr.compile``).  The march visits the
time nodes in order and pulls, per step, the pairs (f_{i-1},
(f_{i-1},1)), (h_i, (h_i,1)) and (w_Gamma g_i, (g_i,1)_Gamma), the
boundary load with the sum of that same product, from one iterator
(``TimeStepper.coefficients``).  h, g and an f that reads no state
come from ``problem.node_pairs``, which the floor check reads too: in
blocks of time nodes, each computed when the march reaches it, served
node by node after a fault, so the fault surfaces at its own step.  An
f that reads the state is evaluated per step (``f_field``), at the
u_{i-1} that step i pulls.  t_0, which K_0 and the discrete m'(0)
read, is evaluated on its own (``TimeStepper.initial_means``).  Once
per step: the pairs, K_i (read off their means by the reconstruction),
conv_i (formed after K_i, which it includes), the elliptic solve, the
finiteness check of u_i and (conv_i,1), the only mean the loop forms.
The step records (f_{i-1},1), (h_i,1), (g_i,1)_Gamma and (conv_i,1) as
it used them.  Once per run, after the loop, in one call for all
series (``TimeStepper.compat_residual``): M_i = (u_i,1) for the states
of the steps done, all of them or those before a fault, in the blocks of
``problem.block_slices``, and from them and the recorded sums the
identity residuals of those steps.

The loop advances a stack of series on one grid and step size at once,
such as the levels of a noise sweep; a forward run or a single
reconstruction is a stack of one, marched on arrays without the series
axis.  The series share the pairs of h, g and an f that reads no state,
and each call that is elementwise per series: one ``TimeStepper.step``,
one elliptic solve whose transforms run along the grid's trailing axes,
one ``f_field`` call for an f that reads the state and one
``SpatialGrid.integral`` for the means, and one convolution: one
stacked product, whose rows are each series' own gemv.  Each series
keeps its own kernel update, so every number of a series is the one a
march of that series alone computes.  A fault in any series ends the
march at once, and the march returns it with what the steps before it
computed.

The states are stored newest-first: the loop allocates its
(series, n+1, *grid.shape) buffer and works on the view reversed in
time, so ``states[r, i]`` is u_i of series r while step i's history
u_{i-1}, ..., u_0 is the contiguous slice ``states[r, i-1::-1]``.  The
stacked product takes each series' block as it is instead of copying
i x N values every step, and the states the loop returns are the same
view, in forward order.

The elliptic system ((1/tau) W + A) u_i = b is solved directly, in 1D
and 2D alike, by the DCT-I solver of ``solver.SpectralSolver``, which
``TimeStepper`` builds once per grid and step size.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import expr, problem
from .errors import KernrecError, NonFiniteError, ValidationError
from .grid import DERIVATIVES, SpatialGrid, nodal_gradient
from .problem import MeasurementSeries, ProblemSpec, TimeGrid
from .solver import SpectralSolver


def _convolution_values(
    kernel_values: np.ndarray, state_values: np.ndarray, i: int, tau: float, out: np.ndarray
) -> np.ndarray:
    """Rectangle-rule memory term sum_{k=1..i} K_k u_{i-k} tau at step i,
    written into ``out`` and returned.

    The leading axes ``...`` number the series of a stack, and are absent
    for one series: ``kernel_values`` (..., 1, n+1) holds each series' K
    as a row, ``state_values`` (n+1, ..., N) each step's nodes, and
    ``out`` is (..., 1, N).  Row r of the product is the gemv of series r's
    K_1..K_i with its own history, the one a series alone computes.
    """
    # pairs (K_1, u_{i-1}) ... (K_i, u_0); each series' (i, N) block is
    # contiguous for newest-first storage
    history = state_values[i - 1 :: -1].swapaxes(0, -2)
    np.matmul(kernel_values[..., 1 : i + 1], history, out=out)
    out *= tau
    return out


# the bindings of f that are finite when f_field runs: t is a time node,
# and u is u_0, finite by expr.sample, or a state the march has checked.
# A gradient of a finite u can overflow, so p and q are checked.
_CHECKED = frozenset({"t", "u"})


def _check_domain(spec: ProblemSpec, grid: SpatialGrid) -> None:
    """A grid on other extents would pose another problem than ``spec``."""
    if grid.extents != spec.extents:
        raise ValidationError(f"grid extents {grid.extents} are not the domain {spec.extents}")


class TimeStepper:
    """Cached assembly for repeated backward-Euler steps on one grid."""

    def __init__(self, spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid):
        self.grid = grid
        self.timegrid = timegrid
        self.tau = timegrid.tau
        self._solver = SpectralSolver(grid, timegrid.tau)
        # compiled once with the node coordinates bound, so the sub-trees
        # over x and y alone are evaluated once per run, not once per step
        coords = grid.coordinate_fields()
        self._f = expr.compile(spec.f, coords)
        self._f_grad = not self._f.free.isdisjoint(DERIVATIVES)
        self._f_state = self._f_grad or "u" in self._f.free
        self._h = expr.compile(spec.h, coords)
        self._g = expr.compile(spec.g, coords)
        self.u0 = expr.sample(spec.u0, coords, grid.shape)

    def f_field(self, t: float, u_values: np.ndarray) -> np.ndarray:
        env: dict[str, object] = {"t": t, "u": u_values}
        if self._f_grad:
            env.update(zip(DERIVATIVES, nodal_gradient(self.grid, u_values)))
        return expr.evaluate(self._f, env, _CHECKED)

    def coefficients(
        self, f_nodes: np.ndarray, nodes: np.ndarray, states: Iterable[np.ndarray]
    ) -> Iterator[tuple[tuple[np.ndarray, float | list[float]], ...]]:
        """The pairs of f at ``f_nodes[k]`` and state ``states[k]``, then of
        h and g at ``nodes[k]``, for k in order.

        An f that reads the state takes ``states[k]``, a field or a stack,
        when k is pulled, and gives one mean per field of a stack; any other
        f, and h and g, come from ``problem.node_pairs``.
        """
        if self._f_state:
            f = ((f, self.grid.integral(f).tolist()) for f in map(self.f_field, f_nodes, states))
        else:
            f = problem.node_pairs(self._f, self.grid, False, f_nodes)
        h = problem.node_pairs(self._h, self.grid, False, nodes)
        return zip(f, h, problem.node_pairs(self._g, self.grid, True, nodes))

    def initial_means(self) -> tuple[float, float, float]:
        """(f_0,1), (g_0,1)_Gamma and (h_0,1) of the identity at t = 0."""
        t0 = self.timegrid.nodes[:1]
        f, h, g = next(self.coefficients(t0, t0, [self.u0]))
        return f[1], g[1], h[1]

    def step(
        self,
        k_i: np.ndarray,
        u_prev: np.ndarray,
        f_prev: np.ndarray,
        conv: np.ndarray,
        h_i: np.ndarray,
        g_load: np.ndarray,
    ) -> np.ndarray:
        """Solve for u_i given K_i, u_{i-1}, f_{i-1}, conv_i, h_i and w_Gamma g_i.

        Each row of the stacks ``u_prev`` and ``conv`` is one series, with
        its K_i in the column ``k_i``; f_{i-1} is one field or one row per
        series.
        """
        load = f_prev + u_prev / self.tau - k_i * h_i - conv
        return self._solver.solve(self.grid.weights * load - g_load)

    def compat_residual(
        self, states: np.ndarray, kernel_values: np.ndarray, sums: list[tuple]
    ) -> tuple[np.ndarray, np.ndarray]:
        """M = (u,1) of the states u_0..u_s, and the relative measurement
        identity residual of each step 1..s, for one series or a stack.

        ``kernel_values`` holds K_0..K_s, and row j-1 of ``sums`` the
        (f_{j-1},1), (h_j,1), (g_j,1)_Gamma and (conv_j,1) that step j
        used; s may be 0.  Leading axes of ``states`` and
        ``kernel_values`` number the series of a stack; a step's
        (f_{j-1},1) and (conv_j,1) are then one per series, or (f_{j-1},1)
        one for all.  The means are formed step-major in blocks of
        ``problem.block_slices``, each as the step's own, and each
        residual |dM_j + (g_j,1)_Gamma + K_j (h_j,1) + (conv_j,1) - (f_{j-1},1)|,
        summed in that order, is divided by the largest of its terms.
        """
        by_step = np.moveaxis(states, -1 - self.grid.ndim, 0)
        measured = np.empty(by_step.shape[: -self.grid.ndim])
        for rows in problem.block_slices(by_step.shape[0], by_step[0].size):
            measured[rows] = self.grid.integral(by_step[rows])
        measured = np.moveaxis(measured, 0, -1)
        # each mean of all steps: (steps,), or (series, steps) if one per series
        columns = zip(*sums) if sums else [()] * 4  # no step done: empty columns
        f_mean, h_mean, g_mean, conv_mean = (np.array(c, dtype=float).T for c in columns)
        terms = np.stack(np.broadcast_arrays(
            (measured[..., 1:] - measured[..., :-1]) / self.tau,
            g_mean,
            kernel_values[..., 1:] * h_mean,
            conv_mean,
            -f_mean,
        ))
        residual = np.abs(terms[0] + terms[1] + terms[2] + terms[3] + terms[4])
        scale = np.max(np.abs(terms), axis=0)
        # a step whose terms are all zero has residual 0; a NaN stays NaN
        out = np.zeros_like(residual)
        return measured, np.divide(residual, scale, out=out, where=scale != 0)


class ForwardRun(NamedTuple):
    """States u_0..u_n plus the discrete measurement they induce."""

    states: np.ndarray  # shape (n+1, *grid.shape); u_0 is the interpolated u0
    kernel: np.ndarray  # K_0..K_n, the spec's exact kernel at the time nodes
    measurement: MeasurementSeries  # M_i = (u_i, 1)
    compat_residuals: np.ndarray  # relative, one per step i = 1..n


def _update_each(
    updates: Sequence[Callable[[int, float, float, float], None]],
    i: int, f_mean: float | list[float], h_mean: float, g_mean: float,
) -> None:
    """Each series' kernel update of a stack, in order of the series."""
    # an f that reads the state of several series gives one mean per series
    f_means = f_mean if isinstance(f_mean, list) else repeat(f_mean)
    for update, f in zip(updates, f_means):
        update(i, f, h_mean, g_mean)


def _march(
    stepper: TimeStepper,
    kernel_values: np.ndarray,
    kernel_update: Sequence[Callable[[int, float, float, float], None]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, KernrecError | MemoryError | None]:
    """Advance u_0..u_n of a stack of series; return the states, M_i =
    (u_i,1), the residuals and the fault that ended the march, or None.

    Row r of ``kernel_values``, shape (series, n+1), is series r's kernel.
    Without ``kernel_update`` the kernel values K_1..K_n are given.  With
    it, ``kernel_update[r](i, (f_{i-1},1), (h_i,1), (g_i,1)_Gamma)``
    stores series r's K_i in row r of ``kernel_values`` before step i.
    A KernrecError of an update or of f, a state that is not finite, or
    a MemoryError ends the march at once, whatever its series.
    The states have shape (series, n+1, *grid.shape); M, (series, s+1),
    and the residuals, (series, s), cover the s steps done: all n, or
    those before the fault.
    """
    batch, n = kernel_values.shape[0], stepper.timegrid.n
    grid, tau = stepper.grid, stepper.tau
    # newest-first storage per series (see the module docstring)
    states = np.empty((batch, n + 1, *grid.shape))[:, ::-1]
    states[:, 0] = stepper.u0
    conv = np.empty((batch, *grid.shape))
    update = None
    # u_rows, k_rows and conv_rows are the operands of _convolution_values,
    # views of states, kernel_values and conv
    if batch == 1:
        # without the series axis, so that the calls are those of the series alone
        u_by_step, k_by_step, conv_all = states[0], kernel_values[0], conv[0]
        u_rows = u_by_step.reshape(n + 1, -1)
        k_rows, conv_rows = kernel_values, conv.reshape(1, -1)
        if kernel_update is not None:
            (update,) = kernel_update
    else:
        # u_i of every series by step, and K_i as a column
        u_by_step, conv_all = states.swapaxes(0, 1), conv
        k_by_step = np.expand_dims(kernel_values.T, tuple(range(2, conv.ndim + 1)))
        u_rows = u_by_step.reshape(n + 1, batch, -1)
        k_rows, conv_rows = kernel_values[:, None], conv.reshape(batch, 1, -1)
        if kernel_update is not None:
            update = partial(_update_each, kernel_update)
    # per step: (f_{i-1},1), (h_i,1), (g_i,1)_Gamma and (conv_i,1); in a
    # stack of several series, one (conv_i,1) and, for an f that reads the
    # state, one (f_{i-1},1) per series
    steps = []
    nodes = stepper.timegrid.nodes
    coefficients = stepper.coefficients(nodes[:-1], nodes[1:], u_by_step)
    step, integral, isfinite = stepper.step, grid.integral, np.isfinite
    convolution = _convolution_values
    fault = None
    # an overflow or NaN in a step is reported by the finiteness check
    # below, one in the residuals by the run's check of what it writes,
    # not by numpy's floating-point warnings
    with np.errstate(all="ignore"):
        try:
            for i in range(1, n + 1):
                # next(), not enumerate(): under enumerate, zip's cached result
                # tuple keeps every other step's old pairs, and their block, alive
                (f_prev, f_mean), (h_i, h_mean), (g_load, g_mean) = next(coefficients)
                if update is not None:
                    update(i, f_mean, h_mean, g_mean)
                # conv_i includes K_i, so it is formed after the update
                convolution(k_rows, u_rows, i, tau, conv_rows)
                u_by_step[i] = step(k_by_step[i], u_by_step[i - 1], f_prev, conv_all, h_i, g_load)
                if not isfinite(u_by_step[i]).all():
                    raise NonFiniteError("state is not finite", step=i)
                steps.append((f_mean, h_mean, g_mean, integral(conv_all)))
        except (KernrecError, MemoryError) as exc:
            fault = exc
        done = slice(len(steps) + 1)  # u_0 and the states of the steps done
        measured, residuals = stepper.compat_residual(states[:, done], kernel_values[:, done], steps)
    return states, measured, residuals, fault


def run_forward(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    derivative: str = "analytic",
) -> ForwardRun:
    """Advance u_0..u_n with the spec's exact kernel sampled on ``timegrid``.

    The run's measurement M_i = (u_i, 1) carries the spec's exact m'
    when ``derivative="analytic"`` and the spec has one; otherwise the
    backward difference of M, with m'(0) pinned by the identity at
    t = 0, m'(0) = (f_0,1) - (g_0,1)_Gamma - K_0 (h_0,1).  Restriction
    onto a coarser time grid is the measurement's ``restrict``.
    """
    if derivative not in ("analytic", "discrete"):
        raise ValidationError(
            f"derivative must be 'analytic' or 'discrete', got {derivative!r}"
        )
    if spec.kernel_exact is None:
        raise ValidationError("no kernel available to generate data")
    _check_domain(spec, grid)
    kernel = timegrid.sample(spec.kernel_exact)
    stepper = TimeStepper(spec, grid, timegrid)
    (states,), (measured,), (residuals,), fault = _march(stepper, kernel[None])
    if fault is not None:
        raise fault
    if derivative == "analytic" and spec.mprime_exact is not None:
        measurement = MeasurementSeries.analytic(timegrid, measured, spec.mprime_exact)
    else:
        f_mean, g_mean, h_mean = stepper.initial_means()
        initial = f_mean - g_mean - kernel[0] * h_mean
        measurement = MeasurementSeries(timegrid, measured, None, initial)
    return ForwardRun(states, kernel, measurement, residuals)
