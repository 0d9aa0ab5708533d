"""Kernel reconstruction from the integral measurement.

Each step is decoupled: first the scalar kernel value at t_i is read
off the discrete measurement identity,

    K_i = [ (f_{i-1},1) - m'_i - (g_i,1)_Gamma
            - sum_{k=1..i-1} K_k m_{i-k} tau ] / [ (h_i,1) + m_0 tau ],

then the elliptic field problem is solved with the now-known K_i.
Both happen inside the stepping loop that ``forward.run_forward`` also
uses, so (f_{i-1},1), (h_i,1), (g_i,1)_Gamma and conv_i are computed
once per step and serve the update, the load and, recorded by the
loop, the identity residual formed after it.  The denominator carries
the plus sign that falls out of splitting the k = i term from the
convolution sum; a debug switch flips it to minus for comparison
runs.  The update is well defined for tau below

    tau0 = min(1, omega / (2 |m_0|)),

which is checked up front (overridable with ``force``).

The value K_0 is pinned by the identity at t = 0,
K_0 = [ (f_0,1) - m'(0) - (g_0,1)_Gamma ] / (h_0,1), using the supplied
initial derivative when the series carries one and m'_1 otherwise; the
means and the exact K(0) are formed once per call, for all its series.
K_0 never enters the time stepping; it only completes the reported kernel.

The stability functionals of ``Diagnostics`` are computed from the
finished trajectory after the loop, in the blocks of states that
``problem.block_slices`` cuts, with one stiffness product per block;
the last state of a block and its A u are carried into the next for
the increments, so no state is multiplied by A twice.  Each value is
formed row by row, so it does not depend on the block size.
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import expr
from .errors import NonFiniteError, SingularUpdateError, StepThresholdError, ValidationError
from .forward import TimeStepper, _march
from .grid import SpatialGrid, stiffness_matvec
from .problem import MeasurementSeries, ProblemSpec, TimeGrid, block_slices, validate_floor

DENOMINATOR_GUARD = 1e-12


class ThresholdReport(NamedTuple):
    """Outcome of the step-size admissibility check."""

    omega: float
    m0: float
    tau: float
    tau0: float
    margin: float  # omega - |m0| tau
    passed: bool


def check_step_threshold(spec: ProblemSpec, m0: float, tau: float) -> ThresholdReport:
    """tau must stay below tau0 = min(1, omega / (2 |m0|))."""
    omega = spec.omega_floor
    tau0 = 1.0 if m0 == 0.0 else min(1.0, omega / (2.0 * abs(m0)))
    return ThresholdReport(
        omega=omega,
        m0=m0,
        tau=tau,
        tau0=tau0,
        margin=omega - abs(m0) * tau,
        passed=tau < tau0,
    )


class Diagnostics(NamedTuple):
    """Discrete stability functionals accumulated over a reconstruction."""

    max_abs_kernel: float
    max_state_norm_sq: float
    grad_energy: float  # sum ||grad u_i||^2 tau
    state_increment_sum_sq: float  # sum ||u_i - u_{i-1}||^2
    max_grad_norm_sq: float
    time_derivative_energy: float  # sum ||du_i||^2 tau
    grad_increment_sum_sq: float  # sum ||grad(u_i - u_{i-1})||^2
    laplacian_energy: float  # sum ||lumped stiffness residual||^2 tau
    kernel_derivative_energy: float  # sum |dK_i|^2 tau
    min_denominator_magnitude: float
    max_compat_residual: float  # relative, worst step


class ReconstructionResult(NamedTuple):
    """Recovered kernel and states u_0..u_n with run metadata.

    From a sequence of series, the arrays gain a leading axis, one row
    per series, ``threshold`` is a tuple of one report per series and
    ``diagnostics`` the worst over the series.
    """

    kernel: np.ndarray  # K_0..K_n
    states: np.ndarray  # shape (n+1, *grid.shape)
    diagnostics: Diagnostics
    denominators: np.ndarray  # per step i = 1..n
    compat_residuals: np.ndarray  # relative, per step i = 1..n
    threshold: ThresholdReport | tuple[ThresholdReport, ...]


def kernel_difference_energy(values: np.ndarray, tau: float) -> float:
    """sum_i ((K_i - K_{i-1}) / tau)^2 tau over the kernel samples K_0..K_n."""
    return float(np.sum(np.diff(values) ** 2)) / tau


def _diagnostics(
    grid: SpatialGrid,
    tau: float,
    states: np.ndarray,
    kernel_values: np.ndarray,
    denominators: np.ndarray,
    residuals: np.ndarray,
) -> Diagnostics:
    """Stability functionals of a finished reconstruction.

    One stiffness product per block gives A u_i, and A (u_i - u_{i-1}) =
    A u_i - A u_{i-1}; the increment into a block's first state takes
    A u_{i-1} carried from the block before.
    """
    n = states.shape[0] - 1
    axes = tuple(range(1, grid.ndim + 1))
    state_sq = np.empty(n + 1)  # ||u_i||^2
    grad_sq = np.empty(n + 1)  # ||grad u_i||^2 = (A u_i, u_i)
    lap_sq = np.empty(n + 1)  # ||lumped stiffness residual of u_i||^2
    inc_sq = np.empty(n)  # ||u_i - u_{i-1}||^2
    grad_inc_sq = np.empty(n)  # ||grad(u_i - u_{i-1})||^2
    for rows in block_slices(n + 1, grid.weights.size):
        lo, hi = rows.start, rows.stop
        u = states[rows]
        au = stiffness_matvec(grid, u)
        state_sq[lo:hi] = grid.integral(u**2)
        grad_sq[lo:hi] = np.sum(au * u, axis=axes)
        lap_sq[lo:hi] = grid.integral((au / grid.weights) ** 2)
        # increments i = first..hi-1, from the previous block's last state on
        first = max(lo, 1)
        du = u[first - lo :] - states[first - 1 : hi - 1]
        dau = np.empty_like(du)
        if lo:
            np.subtract(au[0], au_last, out=dau[0])
        np.subtract(au[1:], au[:-1], out=dau[1 if lo else 0 :])
        inc_sq[first - 1 : hi - 1] = grid.integral(du**2)
        grad_inc_sq[first - 1 : hi - 1] = np.sum(dau * du, axis=axes)
        au_last = au[-1].copy()
    state_increment = float(np.sum(inc_sq))
    return Diagnostics(
        max_abs_kernel=float(np.max(np.abs(kernel_values))),
        max_state_norm_sq=float(np.max(state_sq)),
        grad_energy=float(np.sum(grad_sq[1:])) * tau,
        state_increment_sum_sq=state_increment,
        max_grad_norm_sq=float(np.max(grad_sq)),
        time_derivative_energy=state_increment / tau,
        grad_increment_sum_sq=float(np.sum(grad_inc_sq)),
        laplacian_energy=float(np.sum(lap_sq[1:])) * tau,
        kernel_derivative_energy=kernel_difference_energy(kernel_values, tau),
        min_denominator_magnitude=float(np.min(np.abs(denominators))),
        max_compat_residual=float(np.max(residuals)),
    )


def _kernel_update(
    measurement: MeasurementSeries,
    kernel_values: np.ndarray,
    denominators: np.ndarray,
    tau: float,
    denominator_sign: float,
) -> Callable[[int, float, float, float], None]:
    """The update of one series: K_i from (f_{i-1},1), (h_i,1) and
    (g_i,1)_Gamma, stored with its denominator in that series' rows."""
    m = measurement.values
    mprime = measurement.derivatives.tolist()  # m'_1..m'_n
    m0_term = denominator_sign * measurement.m0 * tau

    def update(i: int, f_mean: float, h_mean: float, g_mean: float) -> None:
        history = float(np.dot(kernel_values[1:i], m[i - 1 : 0 : -1])) * tau
        numerator = f_mean - mprime[i - 1] - g_mean - history
        denominator = h_mean + m0_term
        if abs(denominator) < DENOMINATOR_GUARD:
            raise SingularUpdateError(
                f"kernel-update denominator {denominator:.3e} below "
                f"{DENOMINATOR_GUARD:g} at step {i}",
                step=i,
            )
        k_i = numerator / denominator
        if not math.isfinite(k_i):
            raise NonFiniteError("kernel value is not finite", step=i)
        kernel_values[i] = k_i
        denominators[i - 1] = denominator

    return update


def _worst(diagnostics: list[Diagnostics]) -> Diagnostics:
    """Each functional's largest value over the series, and the smallest
    denominator magnitude."""
    table = np.array(diagnostics)
    worst = np.max(table, axis=0)
    column = Diagnostics._fields.index("min_denominator_magnitude")
    worst[column] = np.min(table[:, column])
    return Diagnostics(*worst.tolist())


def reconstruct(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    measurement: MeasurementSeries | Iterable[MeasurementSeries],
    force: bool = False,
    denominator_sign: float = 1.0,
    trace: Callable[[int, float, float, float, float], None] | None = None,
) -> ReconstructionResult:
    """Recover the kernel, as the array K_0..K_n, and the state trajectory
    from measurement data.

    Raises StepThresholdError when tau >= tau0 unless ``force`` is set,
    FloorViolationError if |(h(t_i),1)| dips below the asserted floor,
    SingularUpdateError / NonFiniteError on numerical breakdown.

    Any other iterable is read once, into a list of series marched
    together, in one stepping loop, each with its own arithmetic.  The
    alignment, the floor and threshold checks, the stepper, its t = 0
    means and the exact K(0) serve all series; each has its own K_0,
    warnings and update.  The kernel values, states, denominators and
    residuals of the result then gain a leading axis, ``threshold`` holds
    one report per series, and ``diagnostics`` is the worst over the
    series (``_worst``).  A single series' warnings and trace rows come as
    they happen; a sequence's come once the march is done, each series'
    warnings and then its trace rows, series by series.  A fault raises
    at once, before any of them.
    """
    live = isinstance(measurement, MeasurementSeries)
    series = [measurement] if live else list(measurement)
    if not series:
        raise ValidationError("no measurement series to reconstruct")
    if any(data.timegrid != timegrid for data in series):
        raise ValidationError("measurement is not aligned with the time grid")
    validate_floor(spec, grid, timegrid)
    n, tau = timegrid.n, timegrid.tau
    kernel_values = np.empty((len(series), n + 1))
    denominators = np.empty((len(series), n))
    # a sequence's warnings, held until its march is done
    held: list[list[str]] = [[] for _ in series]

    def warn(row: int, text: str) -> None:
        if live:
            # past warn and reconstruct: their caller
            warnings.warn(text, RuntimeWarning, stacklevel=3)
        else:
            held[row].append(text)

    def trace_row(row: int, i: int, residual: float) -> None:
        trace(i, timegrid.nodes[i], kernel_values[row, i], denominators[row, i - 1], residual)

    thresholds = [check_step_threshold(spec, data.m0, tau) for data in series]
    for row, threshold in enumerate(thresholds):
        if not threshold.passed:
            if not force:
                raise StepThresholdError(
                    f"tau = {tau:g} exceeds tau0 = {threshold.tau0:g} "
                    f"(omega = {threshold.omega:g}, |m0| = {abs(threshold.m0):g}); "
                    "pass force to run anyway"
                )
            warn(row, f"running with tau = {tau:g} >= tau0 = {threshold.tau0:g}; "
                      "the kernel update may be ill-conditioned")
    stepper = TimeStepper(spec, grid, timegrid)
    f_mean, g_mean, h_mean = stepper.initial_means()
    if abs(h_mean) < DENOMINATOR_GUARD:
        raise SingularUpdateError(
            f"(h(0),1) = {h_mean:.3e} too small to define the initial kernel value",
            step=0,
        )
    for row, data in enumerate(series):
        # K_0 from the identity at t = 0; m'_1, given or the backward
        # difference (m_1 - m_0)/tau, stands in for an m'(0) not given
        given = data.initial_derivative
        mprime0 = float(data.derivatives[0]) if given is None else given
        kernel_values[row, 0] = k0 = (f_mean - mprime0 - g_mean) / h_mean
        if not math.isfinite(k0):
            raise NonFiniteError("kernel value is not finite", step=0)
    if spec.kernel_exact is not None:
        k0_ref = float(expr.evaluate(spec.kernel_exact, {"t": 0.0}))
        for row, k0 in enumerate(kernel_values[:, 0].tolist()):
            if abs(k0 - k0_ref) > 1e-3 * (1.0 + abs(k0_ref)):
                warn(row, f"initial kernel value {k0:.6g} disagrees with the exact "
                          f"kernel at t=0 ({k0_ref:.6g})")
    updates = [_kernel_update(data, kernel_values[row], denominators[row], tau, denominator_sign)
               for row, data in enumerate(series)]
    on_step = partial(trace_row, 0) if live and trace is not None else None
    states, _, residuals = _march(stepper, kernel_values, updates, on_step)
    # freed here, the solver's arrays do not add to the diagnostics' peak memory
    del stepper
    for row, texts in enumerate([] if live else held):
        # each series' warnings, then its trace rows: the floats that
        # on_step would have passed
        for text in texts:
            warnings.warn(text, RuntimeWarning, stacklevel=2)
        for i in range(1, n + 1) if trace is not None else ():
            trace_row(row, i, residuals[row, i - 1])
    # a functional that overflows is reported by the run's finiteness check
    with np.errstate(all="ignore"):
        diagnostics = [
            _diagnostics(grid, tau, *rows)
            for rows in zip(states, kernel_values, denominators, residuals)
        ]
    if live:
        return ReconstructionResult(kernel_values[0], states[0], diagnostics[0],
                                    denominators[0], residuals[0], thresholds[0])
    return ReconstructionResult(kernel_values, states, _worst(diagnostics), denominators,
                                residuals, tuple(thresholds))
