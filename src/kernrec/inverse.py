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
finished trajectories of all series after the loop, in one walk over
the blocks of steps that ``problem.block_slices`` cuts, with one
stiffness product per block; the last states of a block and their A u
are carried into the next for the increments, so no state is
multiplied by A twice.  Each value is formed state by state, and each
series' sums run along its own row, so no value depends on the block
size or on the other series; a stack reports the worst over its series.
Beside them stands the misfit of the march's M_i = (u_i,1) to the data
m_i, which the identity residual, holding for any data, does not see.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import expr
from .errors import (
    KernrecError, NonFiniteError, SingularUpdateError, StepThresholdError, ValidationError,
)
from .forward import TimeStepper, _check_domain, _march
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
    max_data_misfit: float  # max_i |M_i - m_i|, M_i = (u_i,1)
    initial_mismatch: float  # m_0 - (u_0,1); of a stack, the largest in magnitude


class ReconstructionResult(NamedTuple):
    """Recovered kernel and states u_0..u_n with run metadata.

    From a sequence of series, the arrays gain a leading axis, one row
    per series, ``threshold`` and ``warnings`` are tuples of one entry
    per series and ``diagnostics`` the worst over the series.
    """

    kernel: np.ndarray  # K_0..K_n
    states: np.ndarray  # shape (n+1, *grid.shape)
    diagnostics: Diagnostics
    denominators: np.ndarray  # per step i = 1..n
    compat_residuals: np.ndarray  # relative, per step i = 1..n
    threshold: ThresholdReport | tuple[ThresholdReport, ...]
    warnings: tuple[str, ...] | tuple[tuple[str, ...], ...]  # the texts, in order


def kernel_difference_energy(values: np.ndarray, tau: float) -> float | np.ndarray:
    """sum_i ((K_i - K_{i-1}) / tau)^2 tau over the kernel samples K_0..K_n,
    the last axis, of one series or of each series of a stack."""
    return np.sum(np.diff(values) ** 2, axis=-1) / tau


def _diagnostics(
    grid: SpatialGrid,
    tau: float,
    states: np.ndarray,
    kernel_values: np.ndarray,
    denominators: np.ndarray,
    residuals: np.ndarray,
    measured: np.ndarray,
    data: np.ndarray,
) -> Diagnostics:
    """Stability functionals of a finished reconstruction, and the misfit
    of M_i = (u_i,1), ``measured``, to the data m_i, the worst over the
    series of a stack.

    Leading axes of the arrays number the series.  The states are walked
    step-major, one stiffness product per block for all series: A u_i, and
    A (u_i - u_{i-1}) = A u_i - A u_{i-1}, the increment into a block's
    first state taking A u_{i-1} carried from the block before.  Each
    series' values per state then become one contiguous row, summed along
    it, as a series alone sums them.
    """
    by_step = np.moveaxis(states, -1 - grid.ndim, 0)
    n, lead = by_step.shape[0] - 1, by_step.shape[1 : -grid.ndim]
    axes = tuple(range(-grid.ndim, 0))
    # ||u_i||^2, ||grad u_i||^2 = (A u_i, u_i), ||lumped stiffness residual of u_i||^2
    state_sq, grad_sq, lap_sq = per_state = np.empty((3, n + 1, *lead))
    # ||u_i - u_{i-1}||^2, ||grad(u_i - u_{i-1})||^2
    inc_sq, grad_inc_sq = per_step = np.empty((2, n, *lead))
    for rows in block_slices(n + 1, by_step[0].size):
        lo, hi = rows.start, rows.stop
        u = by_step[rows]
        au = stiffness_matvec(grid, u)
        state_sq[lo:hi] = grid.integral(u**2)
        grad_sq[lo:hi] = np.sum(au * u, axis=axes)
        lap_sq[lo:hi] = grid.integral((au / grid.weights) ** 2)
        # increments i = first..hi-1, from the previous block's last state on
        first = max(lo, 1)
        du = u[first - lo :] - by_step[first - 1 : hi - 1]
        dau = np.empty_like(du)
        if lo:
            np.subtract(au[0], au_last, out=dau[0])
        np.subtract(au[1:], au[:-1], out=dau[1 if lo else 0 :])
        inc_sq[first - 1 : hi - 1] = grid.integral(du**2)
        grad_inc_sq[first - 1 : hi - 1] = np.sum(dau * du, axis=axes)
        au_last = au[-1].copy()
    # each series' values as one contiguous row: numpy sums a strided axis in another order
    state_sq, grad_sq, lap_sq = np.moveaxis(per_state, 1, -1).copy()
    inc_sq, grad_inc_sq = np.moveaxis(per_step, 1, -1).copy()
    state_increment = np.sum(inc_sq, axis=-1)
    mismatch = data[..., 0] - measured[..., 0]
    return Diagnostics(
        max_abs_kernel=float(np.max(np.abs(kernel_values))),
        max_state_norm_sq=float(np.max(state_sq)),
        grad_energy=float(np.max(np.sum(grad_sq[..., 1:], axis=-1) * tau)),
        state_increment_sum_sq=float(np.max(state_increment)),
        max_grad_norm_sq=float(np.max(grad_sq)),
        time_derivative_energy=float(np.max(state_increment / tau)),
        grad_increment_sum_sq=float(np.max(np.sum(grad_inc_sq, axis=-1))),
        laplacian_energy=float(np.max(np.sum(lap_sq[..., 1:], axis=-1) * tau)),
        kernel_derivative_energy=float(np.max(kernel_difference_energy(kernel_values, tau))),
        min_denominator_magnitude=float(np.min(np.abs(denominators))),
        max_compat_residual=float(np.max(residuals)),
        max_data_misfit=float(np.max(np.abs(measured - data))),
        initial_mismatch=float(mismatch[np.argmax(np.abs(mismatch))]),
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


def trace_rows(
    timegrid: TimeGrid, kernel: np.ndarray, denominators: np.ndarray, residuals: np.ndarray
) -> Iterator[tuple[int, float, float, float, float]]:
    """(i, t_i, K_i, den_i, resid_i) of one series' steps 1.. that ``residuals`` covers."""
    return zip(range(1, len(residuals) + 1), timegrid.nodes[1:], kernel[1:], denominators, residuals)


def reconstruct(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    measurement: MeasurementSeries | Iterable[MeasurementSeries],
    force: bool = False,
    denominator_sign: float = 1.0,
) -> ReconstructionResult:
    """Recover the kernel, as the array K_0..K_n, and the state trajectory
    from measurement data.

    Raises StepThresholdError when tau >= tau0 unless ``force`` is set,
    FloorViolationError if |(h(t_i),1)| dips below the asserted floor,
    SingularUpdateError / NonFiniteError on numerical breakdown.  A forced
    run, or a K_0 off the exact kernel, warns in the result's ``warnings``;
    a single series' error, or MemoryError, carries them and its trace rows.

    Any other iterable is read once, into a list of series marched
    together, in one stepping loop, each with its own arithmetic.  The
    alignment, the floor and threshold checks, the stepper, its t = 0
    means and the exact K(0) serve all series; each has its own K_0,
    warnings and update.  The kernel values, states, denominators and
    residuals of the result then gain a leading axis, ``threshold`` and
    ``warnings`` hold one entry per series, and ``diagnostics`` is the
    worst over the series.  A fault in any series raises at once, and
    its error carries no warning and no row.
    """
    single = isinstance(measurement, MeasurementSeries)
    series = [measurement] if single else list(measurement)
    if not series:
        raise ValidationError("no measurement series to reconstruct")
    if any(data.timegrid != timegrid for data in series):
        raise ValidationError("measurement is not aligned with the time grid")
    _check_domain(spec, grid)
    validate_floor(spec, grid, timegrid)
    n, tau = timegrid.n, timegrid.tau
    kernel_values = np.empty((len(series), n + 1))
    denominators = np.empty((len(series), n))
    # each series' warnings, in the order they arise
    texts: list[list[str]] = [[] for _ in series]
    thresholds = [check_step_threshold(spec, data.m0, tau) for data in series]
    for row, threshold in enumerate(thresholds):
        if not threshold.passed:
            if not force:
                raise StepThresholdError(
                    f"tau = {tau:g} exceeds tau0 = {threshold.tau0:g} "
                    f"(omega = {threshold.omega:g}, |m0| = {abs(threshold.m0):g}); "
                    "pass force to run anyway"
                )
            texts[row].append(f"running with tau = {tau:g} >= tau0 = {threshold.tau0:g}; "
                              "the kernel update may be ill-conditioned")
    residuals = np.empty((len(series), 0))  # of the steps done, until the march returns
    try:
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
                    texts[row].append(f"initial kernel value {k0:.6g} disagrees with the "
                                      f"exact kernel at t=0 ({k0_ref:.6g})")
        updates = [_kernel_update(data, kernel_values[row], denominators[row], tau, denominator_sign)
                   for row, data in enumerate(series)]
        states, measured, residuals, fault = _march(stepper, kernel_values, updates)
        if fault is not None:
            raise fault
    except (KernrecError, MemoryError) as exc:
        if single:
            exc.warnings = tuple(texts[0])
            exc.trace = tuple(trace_rows(timegrid, kernel_values[0], denominators[0],
                                         residuals[0]))
        raise
    # freed here, the solver's arrays do not add to the diagnostics' peak memory
    del stepper
    # a functional that overflows is reported by the run's finiteness check
    with np.errstate(all="ignore"):
        diagnostics = _diagnostics(grid, tau, states, kernel_values, denominators, residuals,
                                   measured, np.array([data.values for data in series]))
    warned = tuple(map(tuple, texts))
    if single:
        return ReconstructionResult(kernel_values[0], states[0], diagnostics,
                                    denominators[0], residuals[0], thresholds[0], warned[0])
    return ReconstructionResult(kernel_values, states, diagnostics, denominators,
                                residuals, tuple(thresholds), warned)
