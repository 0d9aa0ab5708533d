"""Recovery of time-convolution kernels in semilinear parabolic problems.

The state u and scalar kernel K solve

    d/dt u - Lap(u) + K(t) h + (K * u)(t) = f(x, t, u, grad u)

with Neumann data g and initial state u0; the kernel is identified from
the integral measurement m(t) = integral of u over the domain.  The
solver advances one implicit Euler step at a time, first reading K_i
off the scalar measurement identity and then solving the elliptic
problem for u_i.
"""

from .errors import KernrecError
from .forward import (
    ForwardRun,
    KernelSeries,
    Trajectory,
    generate_measurement,
    run_forward,
)
from .grid import SpatialGrid, nodal_gradient
from .inverse import (
    Diagnostics,
    ReconstructionResult,
    check_step_threshold,
    kernel_difference_energy,
    reconstruct,
)
from .problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    make_preset,
    preset_contaminant,
    preset_manufactured_1d,
    preset_zero_1d,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostics",
    "ForwardRun",
    "KernelSeries",
    "KernrecError",
    "MeasurementSeries",
    "ProblemSpec",
    "ReconstructionResult",
    "SpatialGrid",
    "TimeGrid",
    "Trajectory",
    "check_step_threshold",
    "generate_measurement",
    "kernel_difference_energy",
    "make_preset",
    "nodal_gradient",
    "preset_contaminant",
    "preset_manufactured_1d",
    "preset_zero_1d",
    "reconstruct",
    "run_forward",
]
