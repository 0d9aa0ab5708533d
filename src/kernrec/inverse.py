"""Kernel reconstruction from the integral measurement.

Each step is decoupled: first the scalar kernel value at t_i is read
off the discrete measurement identity,

    K_i = [ (f_{i-1},1) - m'_i - (g_i,1)_Gamma
            - sum_{k=1..i-1} K_k m_{i-k} tau ] / [ (h_i,1) + m_0 tau ],

then the elliptic field problem is solved with the now-known K_i.
Both happen inside the stepping loop that ``forward.run_forward`` also
uses, so (f_{i-1},1), (h_i,1), (g_i,1)_Gamma and conv_i are computed
once per step and serve the update, the load and the identity residual
alike.  The denominator carries the plus sign that falls out of
splitting the k = i term from the convolution sum; a debug switch flips
it to minus for comparison runs.  The update is well defined for tau below

    tau0 = min(1, omega / (2 |m_0|)),

which is checked up front (overridable with ``force``).

The value K_0 is pinned by the identity at t = 0,
K_0 = [ (f_0,1) - m'(0) - (g_0,1)_Gamma ] / (h_0,1), using the supplied
initial derivative when the series carries one and the first forward
difference otherwise.  K_0 never enters the time stepping; it only
completes the reported kernel.

The stability functionals of ``Diagnostics`` are computed from the
finished trajectory after the loop, in row blocks of fixed size.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import expr
from .errors import (
    NonFiniteError,
    SingularUpdateError,
    StepThresholdError,
    ValidationError,
)
from .forward import KernelSeries, TimeStepper, Trajectory, _march
from .grid import SpatialGrid, stiffness_matvec
from .problem import MeasurementSeries, ProblemSpec, TimeGrid, validate_floor

DENOMINATOR_GUARD = 1e-12
# trajectory values per block of the post-loop diagnostics; bounds their
# temporaries whatever the step count
DIAGNOSTICS_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of the step-size admissibility check."""

    omega: float
    m0: float
    tau: float
    tau0: float
    margin: float  # omega - |m0| tau
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


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


@dataclass(frozen=True)
class Diagnostics:
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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered kernel/trajectory pair with run metadata."""

    kernel: KernelSeries
    trajectory: Trajectory
    diagnostics: Diagnostics
    denominators: np.ndarray  # per step i = 1..n
    compat_residuals: np.ndarray  # relative, per step i = 1..n
    measured: np.ndarray  # (u_i, 1) of the reconstructed trajectory
    derivative_source: str
    threshold: ThresholdReport
    config: dict


def kernel_difference_energy(values: np.ndarray, tau: float) -> float:
    """sum_i ((K_i - K_{i-1}) / tau)^2 tau over the kernel samples K_0..K_n."""
    if values.size < 2:
        return 0.0
    return float(np.sum(np.diff(values) ** 2)) / tau


def initial_kernel_value(
    stepper: TimeStepper, measurement: MeasurementSeries
) -> float:
    """K_0 from the measurement identity at t = 0."""
    if measurement.initial_derivative is not None:
        mprime0 = measurement.initial_derivative
    else:
        # first forward difference as the stand-in for m'(0)
        mprime0 = measurement.derivative_at(1)
    u0 = stepper.initial_state()
    f_mean = stepper.mean(stepper.f_field(0.0, u0))
    g_mean = stepper.boundary_mean(stepper.g_field(0.0))
    h_mean = stepper.mean(stepper.h_field(0.0))
    if abs(h_mean) < DENOMINATOR_GUARD:
        raise SingularUpdateError(
            f"(h(0),1) = {h_mean:.3e} too small to define the initial kernel value",
            step=0,
        )
    return (f_mean - mprime0 - g_mean) / h_mean


def _diagnostics(
    grid: SpatialGrid,
    tau: float,
    states: np.ndarray,
    kernel_values: np.ndarray,
    denominators: np.ndarray,
    residuals: np.ndarray,
) -> Diagnostics:
    """Stability functionals of a finished reconstruction.

    The trajectory is walked in blocks of DIAGNOSTICS_BLOCK_VALUES values
    that overlap by one state for the increments; one stiffness product
    per block gives A u_i, and A (u_i - u_{i-1}) = A u_i - A u_{i-1}.
    """
    n = states.shape[0] - 1
    w = grid.weights
    axes = tuple(range(1, grid.ndim + 1))
    state_sq = np.empty(n + 1)  # ||u_i||^2
    grad_sq = np.empty(n + 1)  # ||grad u_i||^2 = (A u_i, u_i)
    lap_sq = np.empty(n + 1)  # ||lumped stiffness residual of u_i||^2
    inc_sq = np.empty(n)  # ||u_i - u_{i-1}||^2
    grad_inc_sq = np.empty(n)  # ||grad(u_i - u_{i-1})||^2
    rows = max(1, DIAGNOSTICS_BLOCK_VALUES // w.size)
    for start in range(0, n + 1, rows):
        lo, hi = max(start - 1, 0), min(start + rows, n + 1)
        u = states[lo:hi]
        au = stiffness_matvec(grid, u)
        state_sq[lo:hi] = np.sum(w * u**2, axis=axes)
        grad_sq[lo:hi] = np.sum(au * u, axis=axes)
        lap_sq[lo:hi] = np.sum(w * (au / w) ** 2, axis=axes)
        du = np.diff(u, axis=0)
        inc_sq[lo : hi - 1] = np.sum(w * du**2, axis=axes)
        grad_inc_sq[lo : hi - 1] = np.sum(np.diff(au, axis=0) * du, axis=axes)
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


def reconstruct(
    spec: ProblemSpec,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    measurement: MeasurementSeries,
    force: bool = False,
    denominator_sign: float = 1.0,
    trace: Callable[[int, float, float, float, float], None] | None = None,
) -> ReconstructionResult:
    """Recover the kernel and state trajectory from measurement data.

    Raises StepThresholdError when tau >= tau0 unless ``force`` is set,
    FloorViolationError if |(h(t_i),1)| dips below the asserted floor,
    SingularUpdateError / NonFiniteError on numerical breakdown.
    """
    if measurement.timegrid != timegrid:
        raise ValidationError("measurement is not aligned with the time grid")
    validate_floor(spec, grid, timegrid)
    threshold = check_step_threshold(spec, measurement.m0, timegrid.tau)
    if not threshold.passed:
        if not force:
            raise StepThresholdError(
                f"tau = {timegrid.tau:g} exceeds tau0 = {threshold.tau0:g} "
                f"(omega = {threshold.omega:g}, |m0| = {abs(threshold.m0):g}); "
                "pass force to run anyway"
            )
        warnings.warn(
            f"running with tau = {timegrid.tau:g} >= tau0 = {threshold.tau0:g}; "
            "the kernel update may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )

    stepper = TimeStepper(spec, grid, timegrid)
    n = timegrid.n
    tau = timegrid.tau

    kernel_values = np.empty(n + 1)
    kernel_values[0] = initial_kernel_value(stepper, measurement)
    if spec.kernel_exact is not None:
        k0_ref = float(expr.evaluate(spec.kernel_exact, {"t": 0.0}))
        if abs(kernel_values[0] - k0_ref) > 1e-3 * (1.0 + abs(k0_ref)):
            warnings.warn(
                f"initial kernel value {kernel_values[0]:.6g} disagrees with the "
                f"exact kernel at t=0 ({k0_ref:.6g})",
                RuntimeWarning,
                stacklevel=2,
            )

    m = measurement.values
    denominators = np.empty(n)

    def update(i: int, f_mean: float, h_mean: float, g_mean: float) -> float:
        history = float(np.dot(kernel_values[1:i], m[i - 1 : 0 : -1])) * tau
        numerator = f_mean - measurement.derivative_at(i) - g_mean - history
        denominator = h_mean + denominator_sign * measurement.m0 * tau
        if abs(denominator) < DENOMINATOR_GUARD:
            raise SingularUpdateError(
                f"kernel-update denominator {denominator:.3e} below "
                f"{DENOMINATOR_GUARD:g} at step {i}",
                step=i,
            )
        k_i = numerator / denominator
        if not np.isfinite(k_i):
            raise NonFiniteError("kernel value is not finite", step=i)
        denominators[i - 1] = denominator
        return k_i

    on_step = None
    if trace is not None:

        def on_step(i: int, residual: float) -> None:
            trace(i, stepper.nodes[i], kernel_values[i], denominators[i - 1], residual)

    states, measured, residuals = _march(stepper, kernel_values, update, on_step)
    diagnostics = _diagnostics(grid, tau, states, kernel_values, denominators, residuals)
    return ReconstructionResult(
        kernel=KernelSeries(timegrid, kernel_values),
        trajectory=Trajectory(grid, timegrid, states),
        diagnostics=diagnostics,
        denominators=denominators,
        compat_residuals=residuals,
        measured=measured,
        derivative_source=measurement.provenance,
        threshold=threshold,
        config={
            "problem": spec.name,
            "extents": list(spec.extents),
            "cells": list(grid.cells),
            "n": timegrid.n,
            "T": timegrid.T,
            "omega": spec.omega_floor,
            "denominator_sign": denominator_sign,
            "forced": bool(force and not threshold.passed),
            "derivative_source": measurement.provenance,
        },
    )
