"""Acceptance suite.

Each test enforces one criterion at its stated tolerance and prints a
single ``[criterion N] PASS/FAIL`` line (run with ``pytest -s`` to see
the lines for passing runs too).
"""

import math
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from kernrec import expr
from kernrec.errors import ExprError
from kernrec.forward import run_forward
from kernrec.grid import SpatialGrid, stiffness_matvec
from kernrec.harness import ExperimentConfig, convergence_study, run_cli
from kernrec.inverse import reconstruct
from kernrec.problem import (
    MeasurementSeries,
    TimeGrid,
    make_preset,
    spec_from_mapping,
)
from kernrec.solver import SpectralSolver
from oracles import MANUFACTURED_2D, THRESHOLD_CONFIG, dense_step_operator, write_config


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {title}: {detail}")


@dataclass
class _TimedRun:
    duration: float
    payload: object


@pytest.fixture(scope="module")
def zero_run():
    spec = make_preset("zero1d")
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(100)
    series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
    start = time.perf_counter()
    result = reconstruct(spec, grid, tg, series)
    return _TimedRun(time.perf_counter() - start, result)


@pytest.fixture(scope="module")
def roundtrip_run():
    spec = make_preset("manufactured1d")
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(100)
    start = time.perf_counter()
    kernel_in = tg.sample(spec.kernel_exact)
    fwd = run_forward(spec, grid, tg, derivative="discrete")
    series = fwd.measurement
    result = reconstruct(spec, grid, tg, series)
    duration = time.perf_counter() - start
    return _TimedRun(duration, (kernel_in, fwd, result))


@pytest.fixture(scope="module")
def manufactured_run():
    spec = make_preset("manufactured1d")
    tg = TimeGrid(1.0, 100)
    grid = spec.make_grid(400)
    series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
    start = time.perf_counter()
    result = reconstruct(spec, grid, tg, series)
    return _TimedRun(time.perf_counter() - start, result)


@pytest.fixture(scope="module")
def refinement_study():
    spec = make_preset("manufactured1d")
    cfg = ExperimentConfig(
        mode="convergence", spec=spec, n_list=[50, 100, 200, 400], mx=400
    )
    cfg.validate()
    start = time.perf_counter()
    rows = convergence_study(cfg)
    return _TimedRun(time.perf_counter() - start, rows)


@pytest.fixture(scope="module")
def refinement_study_2d():
    spec = spec_from_mapping(MANUFACTURED_2D)
    cfg = ExperimentConfig(mode="convergence", spec=spec, n_list=[10, 20, 40, 80], mx=24)
    start = time.perf_counter()
    rows = convergence_study(cfg)
    return _TimedRun(time.perf_counter() - start, rows)


def test_criterion_1_zero_problem_exactness(zero_run):
    result = zero_run.payload
    kernel_max = float(np.abs(result.kernel).max())
    state_max = float(np.abs(result.states).max())
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
    kernel_err = float(np.abs(result.kernel - kernel_in).max())
    state_err = float(np.abs(result.states - fwd.states).max())
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
    nodes = TimeGrid(1.0, 100).nodes  # the fixture's time grid
    err = float(np.abs(result.kernel - np.exp(-nodes)).max())
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


def test_criterion_4_temporal_convergence(refinement_study, refinement_study_2d):
    eocs = {
        dim: [row["eoc"] for row in study.payload[1:]]
        for dim, study in (("1D", refinement_study), ("2D", refinement_study_2d))
    }
    in_range = {dim: sum(e is not None and 0.8 <= e <= 1.2 for e in values)
                for dim, values in eocs.items()}
    duration = refinement_study.duration + refinement_study_2d.duration
    ok = min(in_range.values()) >= 2 and duration < 60.0
    shown = {dim: [None if e is None else round(e, 3) for e in values]
             for dim, values in eocs.items()}
    _verdict(
        4,
        "temporal convergence",
        ok,
        f"EOCs 1D={shown['1D']}, 2D={shown['2D']} "
        f"(need >=2 in [0.8,1.2] each), {duration:.1f}s (budget 60s)",
    )
    assert min(in_range.values()) >= 2, eocs
    assert duration < 60.0


def test_criterion_5_compatibility_identity(
    zero_run, roundtrip_run, manufactured_run, refinement_study, refinement_study_2d
):
    worst = {
        "zero": zero_run.payload.diagnostics.max_compat_residual,
        "roundtrip": roundtrip_run.payload[2].diagnostics.max_compat_residual,
        "manufactured": manufactured_run.payload.diagnostics.max_compat_residual,
    }
    for label, study in (("study", refinement_study), ("study-2d", refinement_study_2d)):
        for row in study.payload:
            worst[f"{label}-n{row['n']}"] = row["diagnostics"]["max_compat_residual"]
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


def test_criterion_7_step_threshold_guard(tmp_path, capsys):
    cfg = write_config(tmp_path, THRESHOLD_CONFIG, "threshold.cfg")
    argv = ["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10"]
    code_plain = run_cli(argv)
    capsys.readouterr()
    code_forced = run_cli(argv + ["--force"])
    assert capsys.readouterr().err.startswith("kernrec: warning: running with tau = 0.05 ")
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
    # the spectral solve the time steppers use agrees with the dense solve
    grid = SpatialGrid((1.0,), (80,))
    tau = 0.02
    rhs = np.random.default_rng(123).normal(size=grid.shape)
    dense = np.linalg.solve(dense_step_operator(grid, tau), rhs)
    spectral = SpectralSolver(grid, tau).solve(rhs)
    spectral_gap = float(np.abs(spectral - dense).max() / np.abs(dense).max())

    # the stiffness operator annihilates constants without roundoff
    exact_zero = True
    for g in (grid, SpatialGrid((1.0, 2.0), (9, 7))):
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

    ok = spectral_gap <= 1e-12 and exact_zero and crashes == 0
    _verdict(
        8,
        "solver/parser unit properties",
        ok,
        f"spectral-vs-dense gap {spectral_gap:.2e} relative (tol 1e-12), "
        f"constants annihilated={exact_zero}, fuzz crashes={crashes}/10000",
    )
    assert spectral_gap <= 1e-12
    assert exact_zero
    assert crashes == 0


# the paper's a priori estimates bound these uniformly in tau ...
_UNIFORM_IN_TAU = (
    "grad_energy",
    "max_state_norm_sq",
    "max_grad_norm_sq",
    "time_derivative_energy",
    "laplacian_energy",
    "kernel_derivative_energy",
)
# ... and bound these sums of squared increments by C tau
_ORDER_TAU = ("state_increment_sum_sq", "grad_increment_sum_sq")


@pytest.mark.parametrize("preset", ["manufactured1d", "contaminant"])
def test_criterion_9_a_priori_estimates(preset):
    cfg = ExperimentConfig(
        mode="convergence", spec=make_preset(preset), n_list=[50, 100, 200, 400, 800], mx=50
    )
    rows = convergence_study(cfg)
    series = {
        key: np.array([row["diagnostics"][key] for row in rows])
        for key in _UNIFORM_IN_TAU + _ORDER_TAU
    }
    spread = max(float(series[key].max() / series[key].min()) for key in _UNIFORM_IN_TAU)
    halvings = np.concatenate([series[key][1:] / series[key][:-1] for key in _ORDER_TAU])
    eocs = [row["eoc"] for row in rows[-3:]]
    eoc_low = min(math.inf if e is None else e for e in eocs)
    ok = spread <= 1.25 and np.all((0.45 <= halvings) & (halvings <= 0.55)) and eoc_low >= 0.95
    _verdict(
        9,
        f"a priori estimates ({preset})",
        ok,
        f"max/min over 16x tau {spread:.3f} (tol 1.25), increment sums per halving "
        f"{halvings.min():.3f}..{halvings.max():.3f} (tol 0.45..0.55), last EOCs "
        f"{eoc_low:.3f} (tol >= 0.95)",
    )
    assert spread <= 1.25
    assert np.all((0.45 <= halvings) & (halvings <= 0.55)), halvings
    assert all(e is not None and e >= 0.95 for e in eocs), eocs
