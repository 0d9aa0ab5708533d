import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernrec import expr, harness, inverse, problem
from kernrec.errors import (
    KernrecError,
    NonFiniteError,
    SingularUpdateError,
    StepThresholdError,
    ValidationError,
)
from kernrec.forward import TimeStepper, run_forward
from kernrec.grid import stiffness_matvec
from kernrec.inverse import (
    Diagnostics,
    ThresholdReport,
    check_step_threshold,
    kernel_difference_energy,
    reconstruct,
    trace_rows,
)
from kernrec.problem import (
    MeasurementSeries,
    TimeGrid,
    make_preset,
    spec_from_mapping,
)
from oracles import MANUFACTURED_1D, MANUFACTURED_2D, build_spec, variant


def _running_diagnostics(result, grid, tau, data):
    """Reference: the functionals accumulated state by state, in step order,
    and the misfit of M_i = (u_i,1) to the data m_i."""
    states = result.states
    w = grid.weights
    measured = [float(np.sum(w * u)) for u in states]
    max_state_norm_sq = float(np.sum(w * states[0] ** 2))
    max_grad_norm_sq = float(np.sum(stiffness_matvec(grid, states[0]) * states[0]))
    grad_energy = state_increment = dudt_energy = grad_increment = laplacian_energy = 0.0
    for i in range(1, states.shape[0]):
        u_i = states[i]
        diff = u_i - states[i - 1]
        max_state_norm_sq = max(max_state_norm_sq, float(np.sum(w * u_i**2)))
        g_sq = float(np.sum(stiffness_matvec(grid, u_i) * u_i))
        max_grad_norm_sq = max(max_grad_norm_sq, g_sq)
        grad_energy += g_sq * tau
        inc_sq = float(np.sum(w * diff**2))
        state_increment += inc_sq
        dudt_energy += inc_sq / tau
        grad_increment += float(np.sum(stiffness_matvec(grid, diff) * diff))
        lumped_lap = stiffness_matvec(grid, u_i) / w
        laplacian_energy += float(np.sum(w * lumped_lap**2)) * tau
    return {
        "max_abs_kernel": float(np.max(np.abs(result.kernel))),
        "max_state_norm_sq": max_state_norm_sq,
        "grad_energy": grad_energy,
        "state_increment_sum_sq": state_increment,
        "max_grad_norm_sq": max_grad_norm_sq,
        "time_derivative_energy": dudt_energy,
        "grad_increment_sum_sq": grad_increment,
        "laplacian_energy": laplacian_energy,
        "kernel_derivative_energy": kernel_difference_energy(result.kernel, tau),
        "min_denominator_magnitude": float(np.min(np.abs(result.denominators))),
        "max_compat_residual": float(np.max(result.compat_residuals)),
        "max_data_misfit": max(abs(big_m - m) for big_m, m in zip(measured, data)),
        "initial_mismatch": data[0] - measured[0],
    }


def _stepwise_identity(spec, grid, tg, states, kernel):
    """Reference: M_i and the identity residuals, one state and one step at
    a time, with the scalar code of a per-step loop."""
    stepper = TimeStepper(spec, grid, tg)
    measured = [float(np.sum(grid.weights * u)) for u in states]
    residuals = []
    pairs = stepper.coefficients(tg.nodes[:-1], tg.nodes[1:], states)
    for i, ((_, f_mean), (_, h_mean), (_, g_mean)) in enumerate(pairs, 1):
        # each series' own gemv, which the march's stacked product equals
        conv = kernel[1 : i + 1] @ states[i - 1 :: -1].reshape(i, -1) * tg.tau
        terms = (
            (measured[i] - measured[i - 1]) / tg.tau,
            g_mean,
            kernel[i] * h_mean,
            float(np.sum(grid.weights * conv.reshape(grid.shape))),
            -f_mean,
        )
        scale = max(abs(term) for term in terms)
        residuals.append(abs(sum(terms)) / scale if scale > 0 else 0.0)
    return measured, residuals


def _stepwise_diagnostics(grid, tau, result, data):
    """Reference: the functionals of each state and step formed one at a
    time, then combined as ``Diagnostics`` defines them, with the data m_i."""
    states, kernel, w = result.states, result.kernel, grid.weights
    misfit = [abs(np.sum(w * u) - m) for u, m in zip(states, data)]
    au = [stiffness_matvec(grid, u) for u in states]
    state_sq = [np.sum(w * u**2) for u in states]
    grad_sq = [np.sum(a * u) for a, u in zip(au, states)]
    lap_sq = [np.sum(w * (a / w) ** 2) for a in au]
    steps = range(1, len(states))
    inc_sq = [np.sum(w * (states[i] - states[i - 1]) ** 2) for i in steps]
    grad_inc_sq = [np.sum((au[i] - au[i - 1]) * (states[i] - states[i - 1])) for i in steps]
    return {
        "max_abs_kernel": float(np.max(np.abs(kernel))),
        "max_state_norm_sq": float(np.max(state_sq)),
        "grad_energy": float(np.sum(grad_sq[1:])) * tau,
        "state_increment_sum_sq": float(np.sum(inc_sq)),
        "max_grad_norm_sq": float(np.max(grad_sq)),
        "time_derivative_energy": float(np.sum(inc_sq)) / tau,
        "grad_increment_sum_sq": float(np.sum(grad_inc_sq)),
        "laplacian_energy": float(np.sum(lap_sq[1:])) * tau,
        "kernel_derivative_energy": kernel_difference_energy(kernel, tau),
        "min_denominator_magnitude": float(np.min(np.abs(result.denominators))),
        "max_compat_residual": float(np.max(result.compat_residuals)),
        "max_data_misfit": float(np.max(misfit)),
        "initial_mismatch": float(data[0] - np.sum(w * states[0])),
    }


# the worst over the series of a stack: the largest, or as named here
_WORST = {"min_denominator_magnitude": min, "initial_mismatch": lambda v: max(v, key=abs)}


class TestTrajectoryWalk:
    """M_i and the residuals are formed after the march, and the
    diagnostics walk the trajectory in blocks carrying A u across them;
    whatever the block size, every value is the per-step one, bit for bit."""

    @pytest.mark.parametrize("states_per_block", [1, 3, None], ids=["one", "three", "all"])
    @pytest.mark.parametrize(
        "spec, n, cells",
        [(make_preset("manufactured1d"), 40, (30,)),
         (spec_from_mapping(MANUFACTURED_2D), 10, (12, 9))],
        ids=["1d", "2d"],
    )
    def test_equals_stepwise_reference(self, monkeypatch, spec, n, cells, states_per_block):
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(*cells)
        block = (states_per_block or n + 1) * grid.weights.size
        monkeypatch.setattr(problem, "BLOCK_VALUES", block)

        run = run_forward(spec, grid, tg, derivative="discrete")
        measured, residuals = _stepwise_identity(spec, grid, tg, run.states, run.kernel)
        assert run.measurement.values.tolist() == measured
        assert run.compat_residuals.tolist() == residuals

        result = reconstruct(spec, grid, tg, run.measurement)
        _, residuals = _stepwise_identity(spec, grid, tg, result.states, result.kernel)
        assert result.compat_residuals.tolist() == residuals
        assert result.diagnostics._asdict() == _stepwise_diagnostics(
            grid, tg.tau, result, run.measurement.values)

    # three noisy series marched together, with one, three or all steps of
    # the stack in each block of the walks after the march
    _problems = pytest.mark.parametrize(
        "spec, n, cells",
        [(make_preset("manufactured1d"), 40, (30,)),
         (spec_from_mapping(MANUFACTURED_2D), 10, (12, 9))],
        ids=["1d", "2d"],
    )
    _blocks = pytest.mark.parametrize("steps_per_block", [1, 3, None], ids=["one", "three", "all"])

    @staticmethod
    def _stack(monkeypatch, spec, n, cells, steps_per_block):
        tg, grid = TimeGrid(1.0, n), spec.make_grid(*cells)
        block = (steps_per_block or n + 1) * 3 * grid.weights.size
        monkeypatch.setattr(problem, "BLOCK_VALUES", block)
        base = run_forward(spec, grid, tg, derivative="discrete").measurement
        rng = np.random.default_rng(5)
        series = [base.with_noise(sigma, rng) for sigma in (1e-5, 1e-4, 1e-3)]
        return tg, grid, series, reconstruct(spec, grid, tg, series)

    @_blocks
    @_problems
    def test_a_stack_reports_its_worst_series(self, monkeypatch, spec, n, cells, steps_per_block):
        tg, grid, series, stacked = self._stack(monkeypatch, spec, n, cells, steps_per_block)
        arrays = ("kernel", "states", "denominators", "compat_residuals")
        rows = [
            _stepwise_diagnostics(grid, tg.tau, stacked._replace(
                **{name: getattr(stacked, name)[row] for name in arrays}), series[row].values)
            for row in range(3)
        ]
        for name, value in stacked.diagnostics._asdict().items():
            worst = _WORST.get(name, max)
            assert value == worst(reference[name] for reference in rows), name

    @pytest.mark.parametrize("f", [None, "exp(-t)*u + 1"], ids=["f-without-u", "f-reads-u"])
    @_blocks
    @_problems
    def test_a_stack_residual_is_its_rows(self, monkeypatch, spec, n, cells, steps_per_block, f):
        if f is not None:
            spec = replace(spec, f=expr.parse(f))
        tg, grid, _, stacked = self._stack(monkeypatch, spec, n, cells, steps_per_block)
        states, kernel = stacked.states, stacked.kernel
        stepper = TimeStepper(spec, grid, tg)
        # the sums of each step as the march records them, for the stack
        # and for each series alone
        stack_sums, row_sums = [], [[], [], []]
        pairs = stepper.coefficients(tg.nodes[:-1], tg.nodes[1:], states.swapaxes(0, 1))
        for i, ((_, f_mean), (_, h_mean), (_, g_mean)) in enumerate(pairs, 1):
            conv = [grid.integral((k[1 : i + 1] @ u[i - 1 :: -1].reshape(i, -1)
                                   * tg.tau).reshape(grid.shape))
                    for k, u in zip(kernel, states)]
            stack_sums.append((f_mean, h_mean, g_mean, np.array(conv)))
            for row, sums in enumerate(row_sums):
                f_row = f_mean[row] if isinstance(f_mean, list) else f_mean
                sums.append((f_row, h_mean, g_mean, conv[row]))
        assert isinstance(f_mean, list) == (f is not None)  # one (f,1) per series
        measured, residuals = stepper.compat_residual(states, kernel, stack_sums)
        assert np.array_equal(residuals, stacked.compat_residuals)
        for row, sums in enumerate(row_sums):
            alone = stepper.compat_residual(states[row], kernel[row], sums)
            assert np.array_equal(measured[row], alone[0])
            assert np.array_equal(residuals[row], alone[1])


class TestStepThreshold:
    def test_passes_with_margin(self):
        report = check_step_threshold(build_spec(), m0=1.0, tau=0.1)
        assert report.tau0 == 0.5
        assert report.passed
        assert abs(report.margin - 0.9) < 1e-15

    def test_zero_m0_caps_at_one(self):
        report = check_step_threshold(build_spec(), m0=0.0, tau=0.99)
        assert report.tau0 == 1.0
        assert report.passed
        assert not check_step_threshold(build_spec(), m0=0.0, tau=1.0).passed

    def test_violation(self):
        report = check_step_threshold(build_spec(omega="0.2"), m0=10.0, tau=0.05)
        assert report.tau0 == 0.01
        assert not report.passed

    def test_reconstruct_refuses_then_forced(self):
        spec = build_spec(u0="10", omega="0.2")
        tg = TimeGrid(1.0, 20)  # tau = 0.05 > tau0 = 0.01
        grid = spec.make_grid(10)
        series = MeasurementSeries.from_expressions(
            tg, expr.parse("10*exp(-t)"), expr.parse("-10*exp(-t)")
        )
        with pytest.raises(StepThresholdError):
            reconstruct(spec, grid, tg, series)
        result = reconstruct(spec, grid, tg, series, force=True)
        assert not result.threshold.passed
        assert result.warnings == ("running with tau = 0.05 >= tau0 = 0.01; "
                                   "the kernel update may be ill-conditioned",)


class TestKernelUpdate:
    # the scalar update K_i, asserted through the reconstruction loop

    def test_zero_numerator_by_induction(self):
        # f = 0, g = 0, m' = 0 forces every K_i to vanish
        spec = build_spec()
        tg = TimeGrid(1.0, 8)
        grid = spec.make_grid(10)
        series = MeasurementSeries(tg, np.full(9, 2.0), np.zeros(8), initial_derivative=0.0)
        kernel = reconstruct(spec, grid, tg, series).kernel
        for i in range(1, 9):
            assert kernel[i] == 0.0

    def test_direct_substitution(self):
        # (f_0,1)=2, m'_1=1, (h_1,1)=1, m_0=0 gives K_1 = 1
        spec = build_spec(f="2")
        tg = TimeGrid(1.0, 4)
        grid = spec.make_grid(10)
        series = MeasurementSeries(tg, np.zeros(5), np.array([1.0, 0.0, 0.0, 0.0]))
        value = reconstruct(spec, grid, tg, series).kernel[1]
        assert abs(value - 1.0) < 1e-14

    def test_denominator_sign_flag(self):
        # m_0 = 2 with tau = 0.125 stays below tau0 = 0.25
        spec = build_spec(f="2")
        tg = TimeGrid(1.0, 8)
        grid = spec.make_grid(10)
        derivs = np.zeros(8)
        derivs[0] = 1.0
        series = MeasurementSeries(tg, np.full(9, 2.0), derivs)
        plus = reconstruct(spec, grid, tg, series).kernel[1]
        minus = reconstruct(spec, grid, tg, series, denominator_sign=-1.0).kernel[1]
        tau = tg.tau
        assert abs(plus - 1.0 / (1.0 + 2.0 * tau)) < 1e-14
        assert abs(minus - 1.0 / (1.0 - 2.0 * tau)) < 1e-14

    def test_singular_denominator(self):
        # h = -1 while m0 tau = 1 cancels the denominator exactly; tau = 0.1
        # exceeds tau0 = 0.05, so the run is forced past the threshold
        spec = build_spec(h="-1", u0="10")
        tg = TimeGrid(1.0, 10)  # tau = 0.1, m0 = 10
        grid = spec.make_grid(10)
        series = MeasurementSeries(tg, np.full(11, 10.0))
        with pytest.raises(SingularUpdateError) as err:
            reconstruct(spec, grid, tg, series, force=True)
        assert err.value.step == 1
        # the forced run's warning, and no step done
        assert err.value.warnings == ("running with tau = 0.1 >= tau0 = 0.05; "
                                      "the kernel update may be ill-conditioned",)
        assert err.value.trace == ()


class TestInitialKernelValue:
    def test_manufactured_value(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 50)
        grid = spec.make_grid(100)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        assert abs(reconstruct(spec, grid, tg, series).kernel[0] - 1.0) < 1e-12

    def test_non_finite_value_stops_the_run_before_the_march(self):
        # m'(0) = 1e300 over (h(0),1) = 1e-11 overflows: K_0 = -inf
        spec = build_spec(h="1e-11", omega="1e-11", m="1", mprime="1e300*exp(-10000*t)")
        tg = TimeGrid(1.0, 10)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        with pytest.raises(NonFiniteError) as err:
            reconstruct(spec, spec.make_grid(10), tg, series, force=True)
        assert (str(err.value), err.value.step, err.value.trace) == (
            "kernel value is not finite", 0, ())
        assert err.value.warnings == ("running with tau = 0.1 >= tau0 = 5e-12; "
                                      "the kernel update may be ill-conditioned",)

    def test_non_finite_value_stops_the_run_at_its_step(self):
        # m'_2 = -1.7e308 over (h,1) + m_0 tau = 0.5 overflows: K_2 = inf
        spec = build_spec(h="0.5", omega="0.5")
        tg = TimeGrid(1.0, 4)
        series = MeasurementSeries(tg, np.zeros(5), [0.0, -1.7e308, 0.0, 0.0], 0.0)
        with pytest.raises(NonFiniteError) as err:
            reconstruct(spec, spec.make_grid(4), tg, series)
        assert (str(err.value), err.value.step) == ("kernel value is not finite", 2)
        assert [row[0] for row in err.value.trace] == [1]


class TestReconstruct:
    def test_zero_problem_exact(self):
        spec = make_preset("zero1d")
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(100)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert np.all(result.kernel == 0.0)
        assert np.all(result.states == 0.0)
        # every identity term is 0: the residual is 0, with no 0/0 (pytest
        # turns a RuntimeWarning into an error)
        assert np.all(result.compat_residuals == 0.0)
        assert result.diagnostics.max_compat_residual == 0.0

    def test_same_grid_roundtrip(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 60)
        grid = spec.make_grid(60)
        kernel_in = tg.sample(spec.kernel_exact)
        fwd = run_forward(spec, grid, tg, derivative="discrete")
        series = fwd.measurement
        result = reconstruct(spec, grid, tg, series)
        assert np.abs(result.kernel - kernel_in).max() <= 1e-8
        assert np.abs(result.states - fwd.states).max() <= 1e-8

    def test_same_grid_roundtrip_2d(self):
        spec = build_spec(
            name="m2d", **variant(MANUFACTURED_1D, ly="1.0", m=None, mprime=None, u_exact=None)
        )
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(10, 10)
        kernel_in = tg.sample(spec.kernel_exact)
        fwd = run_forward(spec, grid, tg, derivative="discrete")
        series = fwd.measurement
        result = reconstruct(spec, grid, tg, series)
        assert np.abs(result.kernel - kernel_in).max() <= 1e-8
        assert np.abs(result.states - fwd.states).max() <= 1e-8

    def test_analytic_data_accuracy(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(200)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        reference = np.exp(-tg.nodes)
        assert np.abs(result.kernel - reference).max() <= 0.05

    def test_measurement_consistency(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(200)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.compat_residuals.max() <= 1e-9
        assert result.diagnostics.max_compat_residual <= 1e-9

    def test_measurement_identity_on_fine_mesh(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 5)
        grid = spec.make_grid(8000)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9

    def test_manufactured_2d_analytic_data(self):
        spec = spec_from_mapping(MANUFACTURED_2D)
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(16, 16)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9
        assert np.abs(result.kernel - np.exp(-tg.nodes)).max() <= 3e-2

    def test_determinism(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 40)
        grid = spec.make_grid(40)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        a = reconstruct(spec, grid, tg, series)
        b = reconstruct(spec, grid, tg, series)
        np.testing.assert_array_equal(a.kernel, b.kernel)
        np.testing.assert_array_equal(a.states, b.states)

    def test_decoupling_from_later_data(self):
        # corrupting the measurement beyond step i0 must not touch K_1..K_i0
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 40)
        grid = spec.make_grid(40)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        i0 = 25
        values = series.values.copy()
        derivs = series.derivatives.copy()
        values[i0 + 1 :] += 1.0
        derivs[i0:] -= 3.0  # derivative entries for steps > i0
        corrupted = MeasurementSeries(tg, values, derivs, series.initial_derivative)
        a = reconstruct(spec, grid, tg, series)
        b = reconstruct(spec, grid, tg, corrupted)
        np.testing.assert_array_equal(a.kernel[: i0 + 1], b.kernel[: i0 + 1])
        np.testing.assert_array_equal(
            a.states[: i0 + 1], b.states[: i0 + 1]
        )
        assert np.any(a.kernel[i0 + 1 :] != b.kernel[i0 + 1 :])

    def test_continuity_in_the_data(self):
        # perturbation of size eps moves the kernel by O(eps)
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(100)
        base = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        rec0 = reconstruct(spec, grid, tg, base)
        diffs = {}
        for eps in (1e-6, 1e-8):
            perturbed = MeasurementSeries(
                tg, base.values + eps * np.cos(np.arange(tg.n + 1)), None, base.initial_derivative
            )
            rec1 = reconstruct(spec, grid, tg, perturbed)
            diffs[eps] = np.abs(rec1.kernel - rec0.kernel).max()
        assert diffs[1e-6] <= 1e-3  # observed amplification is about 1e2
        assert diffs[1e-8] <= 1e-5
        ratio = diffs[1e-6] / diffs[1e-8]
        assert 30 <= ratio <= 300  # linear response

    def test_denominator_sign_flag_changes_result(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 50)
        grid = spec.make_grid(50)
        kernel_in = tg.sample(spec.kernel_exact)
        fwd = run_forward(spec, grid, tg, derivative="discrete")
        series = fwd.measurement
        plus = reconstruct(spec, grid, tg, series)
        minus = reconstruct(spec, grid, tg, series, denominator_sign=-1.0)
        assert np.abs(plus.kernel - kernel_in).max() <= 1e-8
        assert np.abs(minus.kernel - kernel_in).max() > 1e-4

    def test_initial_value_warning(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(20)
        series = MeasurementSeries(
            tg,
            1.0 + tg.nodes,
            np.ones(tg.n),
            initial_derivative=5.0,  # inconsistent with the exact kernel at t=0
        )
        assert reconstruct(spec, grid, tg, series).warnings == (
            "initial kernel value -3 disagrees with the exact kernel at t=0 (1)",)

    def test_misaligned_measurement(self):
        spec = make_preset("manufactured1d")
        series = MeasurementSeries.from_expressions(
            TimeGrid(1.0, 10), spec.m_exact, spec.mprime_exact
        )
        with pytest.raises(ValidationError):
            reconstruct(spec, spec.make_grid(10), TimeGrid(1.0, 20), series)

    def test_degenerate_zero_measurement_allowed(self):
        # m == 0 with nonzero forcing: update degenerates to
        # K_i = [(f,1) - (g,1)] / (h,1)
        spec = build_spec(f="2")
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(10)
        series = MeasurementSeries(tg, np.zeros(11), np.zeros(10), 0.0)
        result = reconstruct(spec, grid, tg, series)
        np.testing.assert_allclose(result.kernel, 2.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec, n, cells",
        [(make_preset("manufactured1d"), 200, (2000,)),
         (spec_from_mapping(MANUFACTURED_2D), 100, (40, 40))],
        ids=["1d", "2d"],
    )
    def test_diagnostics_match_running_sums(self, spec, n, cells):
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(*cells)
        # the post-loop diagnostics walk this trajectory in several blocks
        assert (n + 1) * grid.weights.size > problem.BLOCK_VALUES
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        reference = _running_diagnostics(result, grid, tg.tau, series.values)
        got = result.diagnostics._asdict()
        assert got.keys() == reference.keys()
        for key, value in reference.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_diagnostics_nonnegative(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 30)
        grid = spec.make_grid(30)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        d = reconstruct(spec, grid, tg, series).diagnostics
        for key, value in d._asdict().items():
            assert np.isfinite(value), key
            assert value >= 0.0 or key == "initial_mismatch", key  # m_0 - (u_0,1) has a sign

    def test_trace_rows(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(10)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        rows = list(trace_rows(tg, result.kernel, result.denominators, result.compat_residuals))
        assert len(rows) == 10
        assert rows[0][0] == 1 and rows[-1][0] == 10
        assert rows[-1][1:] == (tg.T, result.kernel[-1], result.denominators[-1],
                                result.compat_residuals[-1])


# Inline problems on [0,1] (ly None) or [0,1] x [0,ly] from u0 = 1+cos(pi x)
# (times cos(pi y) in 2D). With the first f, (1+t) u0 is the exact state for
# the kernel exp(-t), so m = |Omega| (1+t); the second f reads the derivative
# of u along the last axis (p in 1D, q in 2D). Each f is (1D, 2D).
_F = {
    "manufactured": (MANUFACTURED_1D["f"], MANUFACTURED_2D["f"]),
    "reads-gradient": ("1 + cos(pi*x) + x*p - u", "1 + cos(pi*x) + x*q - u"),
}
_U0 = (MANUFACTURED_1D["u0"], MANUFACTURED_2D["u0"])


def _manufactured_spec(f, ly):
    dim = 0 if ly is None else 1
    return build_spec(f=_F[f][dim], u0=_U0[dim], kernel="exp(-t)",
                      **({} if ly is None else {"ly": repr(ly)}))


def _below_tau0(spec, grid, n, fraction):
    """spec with T = n tau, tau = fraction * tau0, and its time grid."""
    m0 = float(np.sum(grid.weights * expr.evaluate(spec.u0, grid.coordinate_fields())))
    T = n * fraction * check_step_threshold(spec, m0, 1.0).tau0
    return replace(spec, T=T), TimeGrid(T, n)


_small = dict(
    n=st.integers(1, 20),
    mx=st.integers(1, 10),
    my=st.integers(1, 10),
    ly=st.sampled_from([None, 1.0, 2.0]),
    fraction=st.floats(0.05, 0.95),
)


class TestReconstructProperties:
    @settings(max_examples=50, deadline=None)
    @given(**_small)
    def test_zero_problem_exact(self, n, mx, my, ly, fraction):
        spec = build_spec(m="0", mprime="0", **({} if ly is None else {"ly": repr(ly)}))
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert np.all(result.kernel == 0.0)
        assert np.all(result.states == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(f=st.sampled_from(sorted(_F)), **_small)
    def test_identity_residual(self, f, n, mx, my, ly, fraction):
        spec = _manufactured_spec(f, ly)
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        if f == "manufactured":  # exact data
            area = 1.0 if ly is None else ly
            series = MeasurementSeries.from_expressions(
                tg, expr.parse(f"{area}*(1+t)"), expr.parse(f"{area}")
            )
        else:  # same-grid data
            series = run_forward(spec, grid, tg, derivative="discrete").measurement
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(f=st.sampled_from(sorted(_F)), **_small)
    def test_same_grid_roundtrip(self, f, n, mx, my, ly, fraction):
        spec = _manufactured_spec(f, ly)
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        fwd = run_forward(spec, grid, tg, derivative="discrete")
        result = reconstruct(spec, grid, tg, fwd.measurement)
        assert np.abs(result.kernel - fwd.kernel).max() <= 1e-8


class TestKernelDifferenceEnergy:
    def test_constant_series(self):
        tg = TimeGrid(1.0, 10)
        assert kernel_difference_energy(np.full(11, 3.0), tg.tau) == 0.0

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples(self, samples):
        assert kernel_difference_energy(np.full(samples, 3.0), 0.1) == 0.0

    def test_linear_series(self):
        # K_i = i tau has unit difference quotient, so the energy is T
        tg = TimeGrid(2.0, 16)
        assert abs(kernel_difference_energy(tg.nodes, tg.tau) - 2.0) < 1e-12

    def test_exponential_approaches_integral(self):
        # analytic limit: integral of exp(-2t) over (0,1) = (1 - e^-2)/2
        exact = (1.0 - np.exp(-2.0)) / 2.0
        errs = {}
        for n in (100, 2000):
            tg = TimeGrid(1.0, n)
            errs[n] = abs(kernel_difference_energy(np.exp(-tg.nodes), tg.tau) - exact)
        assert errs[2000] < 1e-6
        assert errs[2000] < errs[100]


def _outcome(tg, run):
    """The warnings and trace rows that ``run()``'s reconstruction on ``tg``
    reports, each series' warnings and then its rows, and its error."""
    try:
        result = run()
    except KernrecError as exc:
        return [*exc.warnings, *exc.trace], (type(exc), str(exc), getattr(exc, "step", None))
    each = (result.warnings, result.kernel, result.denominators, result.compat_residuals)
    events = []
    for texts, *arrays in zip(*each) if result.kernel.ndim == 2 else [each]:
        events += [*texts, *trace_rows(tg, *arrays)]
    return events, None


def _printed(capsys, run):
    """What ``run()`` prints on stderr, and its error."""
    capsys.readouterr()
    try:
        run()
    except KernrecError as exc:
        return capsys.readouterr().err, (type(exc), str(exc), getattr(exc, "step", None))
    return capsys.readouterr().err, None


# f reads u, p and q on a rectangle
_GRADIENT_2D = {
    "name": "gradient2d", "lx": "1", "ly": "2", "T": "1", "omega": "1",
    "f": "u*exp(-t) - 0.5*p + 0.25*q + cos(pi*x)*cos(pi*y)", "h": "1 + t", "g": "t*x",
    "u0": "1 + cos(pi*x)*cos(pi*y)", "kernel": "exp(-t)",
}


class TestSequence:
    """A sequence of series marches together, and its rows, warnings and
    trace rows are those of the series reconstructed one after another; a
    fault raises at once, and its error carries none of its warnings or rows."""

    @staticmethod
    def _noisy(spec, grid, tg, sigmas):
        base = run_forward(spec, grid, tg, derivative="discrete").measurement
        rng = np.random.default_rng(3)
        return [base.with_noise(sigma, rng) for sigma in sigmas]

    @pytest.mark.parametrize("section, cells", [
        ({"preset": "contaminant"}, (12,)),
        ({"preset": "contaminant", "v": "0.5"}, (12,)),
        (_GRADIENT_2D, (5, 7)),
    ], ids=["f-reads-u", "f-reads-p", "2d-f-reads-u-p-q"])
    def test_rows_are_the_single_results(self, section, cells):
        spec = spec_from_mapping(section)
        tg, grid = TimeGrid(1.0, 30), spec.make_grid(*cells)
        series = self._noisy(spec, grid, tg, [1e-5, 1e-4, 1e-3])
        stacked = reconstruct(spec, grid, tg, series)
        singles = [reconstruct(spec, grid, tg, s) for s in series]
        assert stacked.kernel.shape == (3, tg.n + 1)
        assert stacked.states.shape == (3, tg.n + 1, *grid.shape)
        assert stacked.threshold == tuple(single.threshold for single in singles)
        # noisy K_0 disagrees with the exact kernel
        assert stacked.warnings == tuple(single.warnings for single in singles)
        assert any(stacked.warnings)
        for row, single in enumerate(singles):
            assert np.array_equal(stacked.kernel[row], single.kernel)
            assert np.array_equal(stacked.states[row], single.states)
            assert np.array_equal(stacked.denominators[row], single.denominators)
            assert np.array_equal(stacked.compat_residuals[row], single.compat_residuals)
        table = np.array([single.diagnostics for single in singles])
        worst = stacked.diagnostics._asdict()
        for k, name in enumerate(Diagnostics._fields):
            assert worst[name] == _WORST.get(name, max)(table[:, k].tolist()), name

    def test_one_series_is_not_stacked(self):
        spec = make_preset("manufactured1d")
        tg, grid = TimeGrid(1.0, 10), spec.make_grid(8)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        single = reconstruct(spec, grid, tg, series)
        stacked = reconstruct(spec, grid, tg, [series])
        assert single.states.shape == (tg.n + 1, *grid.shape)
        assert isinstance(single.threshold, ThresholdReport)
        assert np.array_equal(stacked.states[0], single.states)
        assert stacked.threshold == (single.threshold,)
        assert stacked.warnings == (single.warnings,) == ((),)
        assert stacked.diagnostics == single.diagnostics

    def test_empty_sequence_is_rejected(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValidationError, match="no measurement series"):
            reconstruct(spec, spec.make_grid(8), tg, [])

    @pytest.mark.parametrize("kind", ["f", "update", "state", "threshold", "kernel"])
    def test_a_fault_raises_at_once(self, kind):
        # a series that runs through, one that faults, and one after it: the
        # batch raises the faulting series' error, without any warning or row
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting(kind, tg)
        grid = spec.make_grid(4)
        fine = MeasurementSeries(tg, np.linspace(1.0, 1.5, tg.n + 1))
        alone = _outcome(tg, lambda: reconstruct(spec, grid, tg, faulting, **options))
        assert alone[1] is not None
        assert _outcome(tg, lambda: reconstruct(spec, grid, tg, [fine, faulting, fine],
                                                **options)) == ([], alone[1])

    def test_the_series_that_faults_first_in_time_decides(self):
        # the second series faults first in time, the first later: the batch
        # ends at the second's fault
        tg = TimeGrid(1.0, 10)
        spec, _, early = _faulting("f", tg)
        late = MeasurementSeries(tg, 1.0 - 2.0 * tg.nodes)
        grid = spec.make_grid(4)
        late_rows, late_fault = _outcome(tg, lambda: reconstruct(spec, grid, tg, late))
        early_rows, early_fault = _outcome(tg, lambda: reconstruct(spec, grid, tg, early))
        assert late_fault is not None and len(early_rows) < len(late_rows)
        stacked = _outcome(tg, lambda: reconstruct(spec, grid, tg, [late, early]))
        assert stacked == ([], early_fault)

    def test_a_sweep_without_fault_marches_once(self, monkeypatch):
        tg = TimeGrid(1.0, 10)
        spec = build_spec(u0="1")
        series = [MeasurementSeries(tg, np.linspace(1.0, b, tg.n + 1)) for b in (1.5, 2, 3)]
        calls = _count_marches(monkeypatch)
        reconstruct(spec, spec.make_grid(4), tg, series)
        assert calls == [3]

    def test_a_fault_marches_once(self, monkeypatch):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting("update", tg)
        fine = MeasurementSeries(tg, np.linspace(1.0, 1.5, tg.n + 1))
        calls = _count_marches(monkeypatch)
        with pytest.raises(SingularUpdateError):
            reconstruct(spec, spec.make_grid(4), tg, [fine, faulting, fine], **options)
        assert calls == [3]

    def test_a_sweep_sets_the_problem_up_once(self, monkeypatch):
        tg = TimeGrid(1.0, 10)
        spec = build_spec(u0="1")
        series = [MeasurementSeries(tg, np.linspace(1.0, b, tg.n + 1)) for b in (1.5, 2, 3)]
        calls, means = [], TimeStepper.initial_means
        monkeypatch.setattr(TimeStepper, "initial_means",
                            lambda stepper: calls.append(stepper) or means(stepper))
        reconstruct(spec, spec.make_grid(4), tg, series)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", [None, "f", "update"], ids=["through", "f", "update"])
    def test_a_generator_is_read_once(self, kind):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting(kind or "update", tg)
        grid = spec.make_grid(4)
        fine = MeasurementSeries(tg, np.linspace(1.0, 1.5, tg.n + 1))
        listed = [fine, fine] if kind is None else [fine, faulting]
        read = []

        def generator():
            for data in listed:
                read.append(data)
                yield data

        def run(series):
            return _outcome(tg, lambda: reconstruct(spec, grid, tg, series, **options))

        assert run(generator()) == run(listed)
        assert read == listed

    @pytest.mark.parametrize("count", [None, 1, 2], ids=["single", "one", "two"])
    def test_warnings_are_returned_not_issued(self, count):
        tg = TimeGrid(1.0, 10)
        spec, _, data = _faulting("threshold", tg)
        measurement = data if count is None else [data] * count
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = reconstruct(spec, spec.make_grid(4), tg, measurement, force=True)
        assert caught == []
        texts = ("running with tau = 0.1 >= tau0 = 0.005; "
                 "the kernel update may be ill-conditioned",)
        assert result.warnings == (texts if count is None else (texts,) * count)

    def test_a_fault_carries_nothing_of_the_batch(self):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting("update", tg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularUpdateError) as fault:
                reconstruct(spec, spec.make_grid(4), tg, [faulting], **options)
        # the series alone carries its warning, forced past tau0; the batch's
        # error carries no warning and no row
        assert caught == [] and fault.value.warnings == fault.value.trace == ()
        with pytest.raises(SingularUpdateError) as alone:
            reconstruct(spec, spec.make_grid(4), tg, faulting, **options)
        assert len(alone.value.warnings) == 1


def _faulting(kind, tg):
    """A spec, options and the data of a series that faults for ``kind``.

    Each spec has the exact kernel K = 0, which a noise sweep needs."""
    n, steady = tg.n, np.ones(tg.n + 1)
    if kind == "f":
        # u falls with m = 1 - 5t and goes below 0 near t = 0.2: sqrt(u) faults
        spec = build_spec(f="sqrt(u) - 1", u0="1", kernel="0")
        return spec, {}, MeasurementSeries(tg, 1.0 - 5.0 * tg.nodes)
    if kind == "update":
        # with the minus sign, (h,1) - m0 tau = 1 - 10 * 0.1 = 0
        spec = build_spec(u0="10", kernel="0")
        return spec, {"force": True, "denominator_sign": -1.0}, MeasurementSeries(
            tg, np.full(n + 1, 10.0))
    spec = build_spec(u0="1", kernel="0")
    if kind == "state":
        # a finite K_1 ~ 9e200 makes conv_2 overflow
        return spec, {}, MeasurementSeries(tg, steady, np.r_[-1e201, np.zeros(n - 1)])
    if kind == "threshold":
        # |m0| = 100 puts tau0 = 0.005 below tau = 0.1
        return spec, {}, MeasurementSeries(tg, np.full(n + 1, 100.0))
    if kind == "kernel":
        # K_2 overflows: the history K_1 m_1 tau with m_1 = 1e200
        values = np.r_[1.0, np.full(n, 1e200)]
        return spec, {}, MeasurementSeries(tg, values, np.r_[-1e201, np.zeros(n - 1)])
    raise AssertionError(kind)


def _count_marches(monkeypatch):
    """The number of series of each march that ``reconstruct`` starts."""
    calls, march = [], inverse._march

    def spy(*args, **kwargs):
        calls.append(args[1].shape[0])  # the series the march takes
        return march(*args, **kwargs)

    monkeypatch.setattr(inverse, "_march", spy)
    return calls


class _Drawn:
    """A base measurement whose draw at sigma = k is the k-th of ``levels``."""

    def __init__(self, levels):
        self.levels = levels

    def with_noise(self, sigma, rng):
        return self.levels[int(sigma) - 1]


def _noise_sweep(monkeypatch, spec, levels, n=10, cells=4, **options):
    """``run()`` of a traced noise sweep on ``spec`` whose level k draws
    the k-th of ``levels``."""
    sigmas = [float(k) for k in range(1, len(levels) + 1)]
    cfg = harness.ExperimentConfig("noise-sweep", spec, [n], cells, noise_sigmas=sigmas,
                                   seed=0, trace=True, **options)
    monkeypatch.setattr(harness, "acquire_measurement", lambda *args: _Drawn(levels))
    return lambda: harness.run_noise_mode(cfg)


class TestSweepFallback:
    """A noise sweep whose batch fails runs its levels again one after
    another: the warnings, trace rows and error it prints are those of the
    levels reconstructed alone, up to the first that faults."""

    @staticmethod
    def _one_after_another(spec, levels, **options):
        """``run()`` of the traced reconstructions of ``levels``, one after another."""
        cfg = harness.ExperimentConfig("reconstruct", spec, [10], 4, trace=True, **options)
        grid, tg = cfg.grids()

        def run():
            for data in levels:
                harness._run_reconstruction(cfg, grid, tg, data)

        return run

    @pytest.mark.parametrize("kind", ["f", "update", "state", "threshold", "kernel"])
    def test_fault_in_a_later_level_comes_after_the_levels_before_it(
        self, monkeypatch, capsys, kind
    ):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting(kind, tg)
        # a level that runs through, one that faults, and one the fault ends
        fine = MeasurementSeries(tg, np.linspace(1.0, 1.5, tg.n + 1))
        levels = [fine, faulting, fine]
        expected = _printed(capsys, self._one_after_another(spec, levels, **options))
        assert expected[1] is not None and expected[0].count("\n") > tg.n
        assert _printed(capsys, _noise_sweep(monkeypatch, spec, levels, **options)) == expected

    def test_the_first_level_that_faults_decides(self, monkeypatch, capsys):
        # the second level faults first in time, the first later: the
        # outcome is the first level's rows and fault, as one after another
        tg = TimeGrid(1.0, 10)
        spec, _, early = _faulting("f", tg)
        late = MeasurementSeries(tg, 1.0 - 2.0 * tg.nodes)
        expected = _printed(capsys, self._one_after_another(spec, [late]))
        assert expected[1] is not None
        assert _printed(capsys, _noise_sweep(monkeypatch, spec, [late, early])) == expected

    def test_a_fault_reruns_the_levels_up_to_it(self, monkeypatch):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting("update", tg)
        fine = MeasurementSeries(tg, np.linspace(1.0, 1.5, tg.n + 1))
        calls = _count_marches(monkeypatch)
        sweep = _noise_sweep(monkeypatch, spec, [fine, faulting, fine], **options)
        with pytest.raises(SingularUpdateError):
            sweep()
        # the batch, then each level alone up to the one that faults
        assert calls == [3, 1, 1]

    def test_only_the_rerun_prints_its_warning(self, monkeypatch, capsys):
        tg = TimeGrid(1.0, 10)
        spec, options, faulting = _faulting("update", tg)
        printed, fault = _printed(capsys, _noise_sweep(monkeypatch, spec, [faulting], **options))
        assert fault[0] is SingularUpdateError
        # the rerun's warning alone: the batch's error carries none
        assert printed == ("kernrec: warning: running with tau = 0.1 >= tau0 = 0.05; "
                           "the kernel update may be ill-conditioned\n")

    def test_a_rerun_does_not_hold_the_batch(self, monkeypatch):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 400)
        fine = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        # m0 = -40 takes the denominator (h,1) + m0 tau to 0.9, over which
        # m'_n = -1.7e308 makes K_n overflow at the last step
        faulting = MeasurementSeries(
            tg, np.r_[-40.0, fine.values[1:]], np.r_[fine.derivatives[:-1], -1.7e308])

        def peak(levels):
            sweep = _noise_sweep(monkeypatch, spec, levels, n=tg.n, cells=400)
            tracemalloc.start()
            try:
                sweep()
                step = None
            except NonFiniteError as exc:
                step = exc.step
            finally:
                top = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return top, step

        through, _ = peak([fine] * 4)
        faulted, step = peak([fine] * 3 + [faulting])
        trajectory = (tg.n + 1) * 401 * 8  # the states of one level
        assert step == tg.n
        assert faulted < through + trajectory / 2
