"""Acceptance suite.

Each test enforces one criterion at its stated tolerance and prints a
single ``[criterion N] PASS/FAIL`` line (run with ``pytest -s`` to see
the lines for passing runs too).
"""

import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from kernrec import expr
from kernrec.errors import ExprError
from kernrec.forward import KernelSeries, measurement_from_run, run_forward
from kernrec.grid import SpatialGrid, stiffness_diagonal, stiffness_matvec
from kernrec.harness import ExperimentConfig, convergence_study, run_cli
from kernrec.inverse import reconstruct
from kernrec.problem import (
    MeasurementSeries,
    TimeGrid,
    preset_manufactured_1d,
    preset_zero_1d,
)
from kernrec.solver import SpdOperator, SpectralSolver, solve_cg, solve_tridiagonal


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {title}: {detail}")


@dataclass
class _TimedRun:
    duration: float
    payload: object


@pytest.fixture(scope="module")
def zero_run():
    spec = preset_zero_1d()
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(100)
    series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
    start = time.perf_counter()
    result = reconstruct(spec, grid, tg, series)
    return _TimedRun(time.perf_counter() - start, result)


@pytest.fixture(scope="module")
def roundtrip_run():
    spec = preset_manufactured_1d()
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(100)
    start = time.perf_counter()
    kernel_in = KernelSeries.from_expression(spec.kernel_exact, tg)
    fwd = run_forward(spec, grid, tg, kernel_in)
    series = measurement_from_run(spec, grid, tg, fwd, derivative="discrete")
    result = reconstruct(spec, grid, tg, series)
    duration = time.perf_counter() - start
    return _TimedRun(duration, (kernel_in, fwd, result))


@pytest.fixture(scope="module")
def manufactured_run():
    spec = preset_manufactured_1d()
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(400)
    series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
    start = time.perf_counter()
    result = reconstruct(spec, grid, tg, series)
    return _TimedRun(time.perf_counter() - start, result)


@pytest.fixture(scope="module")
def refinement_study():
    spec = preset_manufactured_1d()
    cfg = ExperimentConfig(
        mode="convergence", spec=spec, n_list=[50, 100, 200, 400], mx=400
    )
    cfg.validate()
    start = time.perf_counter()
    rows = convergence_study(cfg)
    return _TimedRun(time.perf_counter() - start, rows)


def test_criterion_1_zero_problem_exactness(zero_run):
    result = zero_run.payload
    kernel_max = float(np.abs(result.kernel.values).max())
    state_max = float(np.abs(result.trajectory.values).max())
    ok = kernel_max <= 1e-12 and state_max <= 1e-12 and zero_run.duration < 1.0
    _verdict(
        1,
        "zero-problem exactness",
        ok,
        f"max|K|={kernel_max:.3e}, max|u|={state_max:.3e}, "
        f"{zero_run.duration:.2f}s (budget 1s)",
    )
    assert kernel_max <= 1e-12
    assert state_max <= 1e-12
    assert zero_run.duration < 1.0


def test_criterion_2_same_grid_roundtrip(roundtrip_run):
    kernel_in, fwd, result = roundtrip_run.payload
    kernel_err = float(np.abs(result.kernel.values - kernel_in.values).max())
    state_err = float(np.abs(result.trajectory.values - fwd.trajectory.values).max())
    ok = kernel_err <= 1e-8 and state_err <= 1e-8 and roundtrip_run.duration < 5.0
    _verdict(
        2,
        "same-grid round trip",
        ok,
        f"kernel={kernel_err:.3e}, state={state_err:.3e}, "
        f"{roundtrip_run.duration:.2f}s (budget 5s)",
    )
    assert kernel_err <= 1e-8
    assert state_err <= 1e-8
    assert roundtrip_run.duration < 5.0


def test_criterion_3_manufactured_accuracy(manufactured_run):
    result = manufactured_run.payload
    nodes = result.kernel.timegrid.nodes
    err = float(np.abs(result.kernel.values - np.exp(-nodes)).max())
    ok = err <= 0.05 and manufactured_run.duration < 10.0
    _verdict(
        3,
        "manufactured-solution accuracy",
        ok,
        f"max|K - exp(-t)|={err:.3e} (tol 0.05), "
        f"{manufactured_run.duration:.2f}s (budget 10s)",
    )
    assert err <= 0.05
    assert manufactured_run.duration < 10.0


def test_criterion_4_temporal_convergence(refinement_study):
    rows = refinement_study.payload
    eocs = [row["eoc"] for row in rows[1:]]
    in_range = [e is not None and 0.8 <= e <= 1.2 for e in eocs]
    ok = sum(in_range) >= 2 and refinement_study.duration < 60.0
    _verdict(
        4,
        "temporal convergence",
        ok,
        f"EOCs={[None if e is None else round(e, 3) for e in eocs]} "
        f"(need >=2 in [0.8,1.2]), {refinement_study.duration:.1f}s (budget 60s)",
    )
    assert sum(in_range) >= 2
    assert refinement_study.duration < 60.0


def test_criterion_5_compatibility_identity(
    zero_run, roundtrip_run, manufactured_run, refinement_study
):
    worst = {
        "zero": zero_run.payload.diagnostics.max_compat_residual,
        "roundtrip": roundtrip_run.payload[2].diagnostics.max_compat_residual,
        "manufactured": manufactured_run.payload.diagnostics.max_compat_residual,
    }
    for row in refinement_study.payload:
        worst[f"study-n{row['n']}"] = row["diagnostics"]["max_compat_residual"]
    overall = max(worst.values())
    ok = overall <= 1e-9
    _verdict(
        5,
        "per-step measurement identity",
        ok,
        f"worst relative residual {overall:.3e} over {len(worst)} runs (tol 1e-9)",
    )
    assert overall <= 1e-9, worst


def test_criterion_6_diagnostics_boundedness(refinement_study):
    rows = refinement_study.payload
    watched = [
        "max_abs_kernel",
        "max_state_norm_sq",
        "grad_energy",
        "time_derivative_energy",
        "kernel_derivative_energy",
    ]
    worst_key, worst_change = None, 0.0
    for key in watched:
        values = [row["diagnostics"][key] for row in rows]
        for a, b in zip(values, values[1:]):
            change = abs(b - a) / abs(a)
            if change > worst_change:
                worst_key, worst_change = key, change
    ok = worst_change <= 0.10
    _verdict(
        6,
        "diagnostics boundedness",
        ok,
        f"worst successive change {worst_change:.2%} ({worst_key}), tol 10%",
    )
    assert worst_change <= 0.10


THRESHOLD_CONFIG = """
[problem]
f = "0"
h = "1"
g = "0"
u0 = "10"
lx = 1.0
T = 1.0
omega = 0.2
m = "10*exp(-t)"
mprime = "-10*exp(-t)"
"""


def test_criterion_7_step_threshold_guard(tmp_path):
    cfg = tmp_path / "threshold.cfg"
    cfg.write_text(THRESHOLD_CONFIG, encoding="utf-8")
    argv = ["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10"]
    code_plain = run_cli(argv)
    with pytest.warns(RuntimeWarning):
        code_forced = run_cli(argv + ["--force"])
    ok = code_plain == 3 and code_forced == 0
    _verdict(
        7,
        "step-threshold guard",
        ok,
        f"exit={code_plain} without --force (want 3), {code_forced} with (want 0); "
        "omega=0.2, m0=10, tau=0.05 > tau0=0.01",
    )
    assert code_plain == 3
    assert code_forced == 0


_FUZZ_TOKENS = [
    "sin", "cos", "exp", "log", "sqrt", "abs", "tanh", "min", "max",
    "x", "y", "t", "u", "p", "q", "pi", "bogus",
    "(", ")", ",", "+", "-", "*", "/", "^",
    "0", "1", "2.5", ".5", "1e3", "1e", "..", "$", "@", " ", "\t",
]


def test_criterion_8_unit_properties():
    # CG agrees with the direct tridiagonal path
    grid = SpatialGrid.interval(1.0, 80)
    tau = 0.02
    rng = np.random.default_rng(123)
    rhs = rng.normal(size=grid.shape)
    dx = grid.spacing[0]
    diag = grid.weights / tau + stiffness_diagonal(grid)
    off = np.full(grid.cells[0], -1.0 / dx)
    direct = solve_tridiagonal(diag, off, off, rhs)
    op = SpdOperator(
        shift=1.0 / tau,
        mass_weights=grid.weights,
        stiffness_matvec=lambda v: stiffness_matvec(grid, v),
        stiffness_diag=stiffness_diagonal(grid),
    )
    iterative = solve_cg(op, rhs, tol=1e-12)
    cg_gap = float(np.abs(iterative - direct).max())

    # and so does the spectral solve the time steppers use
    spectral = SpectralSolver(grid, tau).solve(rhs)
    spectral_gap = float(np.abs(spectral - direct).max())

    # the stiffness operator annihilates constants without roundoff
    exact_zero = True
    for g in (grid, SpatialGrid.rectangle(1.0, 2.0, 9, 7)):
        r = stiffness_matvec(g, np.full(g.shape, 3.7))
        exact_zero = exact_zero and bool(np.all(r == 0.0))

    # parser fuzz: 10^4 random token soups may only raise located errors
    fuzz_rng = random.Random(987654321)
    crashes = 0
    for _ in range(10_000):
        source = "".join(fuzz_rng.choices(_FUZZ_TOKENS, k=fuzz_rng.randint(0, 24)))
        try:
            expr.parse(source)
        except ExprError:
            pass
        except Exception:  # noqa: BLE001 - the point is to catch anything else
            crashes += 1

    ok = cg_gap <= 1e-8 and spectral_gap <= 1e-10 and exact_zero and crashes == 0
    _verdict(
        8,
        "solver/parser unit properties",
        ok,
        f"CG-vs-Thomas gap {cg_gap:.2e} (tol 1e-8), spectral-vs-Thomas gap "
        f"{spectral_gap:.2e} (tol 1e-10), constants annihilated={exact_zero}, "
        f"fuzz crashes={crashes}/10000",
    )
    assert cg_gap <= 1e-8
    assert spectral_gap <= 1e-10
    assert exact_zero
    assert crashes == 0
