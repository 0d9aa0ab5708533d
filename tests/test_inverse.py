from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernrec import expr, problem
from kernrec.errors import SingularUpdateError, StepThresholdError, ValidationError
from kernrec.forward import KernelSeries, TimeStepper, _convolution_values, run_forward
from kernrec.grid import stiffness_matvec
from kernrec.inverse import (
    check_step_threshold,
    initial_kernel_value,
    kernel_difference_energy,
    reconstruct,
)
from kernrec.problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    preset_manufactured_1d,
    preset_zero_1d,
)


def _spec(f="0", h="1", g="0", u0="0", T=1.0, omega=1.0, **extra):
    return ProblemSpec(
        name="inline", extents=(1.0,), T=T, omega_floor=omega,
        f=expr.parse(f), h=expr.parse(h), g=expr.parse(g), u0=expr.parse(u0),
        **{k: (expr.parse(v) if isinstance(v, str) else v) for k, v in extra.items()},
    )


def _manufactured_2d():
    # state (1+t)(1+cos(pi x)cos(pi y)), kernel exp(-t), m = 1+t
    return ProblemSpec(
        name="manufactured2d", extents=(1.0, 1.0), T=1.0, omega_floor=1.0,
        f=expr.parse(
            "(1+cos(pi*x)*cos(pi*y)) + (1+t)*2*pi^2*cos(pi*x)*cos(pi*y)"
            " + exp(-t) + t*(1+cos(pi*x)*cos(pi*y))"
        ),
        h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("1+cos(pi*x)*cos(pi*y)"),
        kernel_exact=expr.parse("exp(-t)"),
        m_exact=expr.parse("1+t"), mprime_exact=expr.parse("1"),
    )


def _running_diagnostics(result, grid, tau):
    """Reference: the functionals accumulated state by state, in step order."""
    states = result.states
    w = grid.weights
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
        "max_abs_kernel": float(np.max(np.abs(result.kernel.values))),
        "max_state_norm_sq": max_state_norm_sq,
        "grad_energy": grad_energy,
        "state_increment_sum_sq": state_increment,
        "max_grad_norm_sq": max_grad_norm_sq,
        "time_derivative_energy": dudt_energy,
        "grad_increment_sum_sq": grad_increment,
        "laplacian_energy": laplacian_energy,
        "kernel_derivative_energy": kernel_difference_energy(result.kernel.values, tau),
        "min_denominator_magnitude": float(np.min(np.abs(result.denominators))),
        "max_compat_residual": float(np.max(result.compat_residuals)),
    }


def _stepwise_identity(spec, grid, tg, states, kernel):
    """Reference: M_i and the identity residuals, one state and one step at
    a time, with the scalar code of a per-step loop."""
    stepper = TimeStepper(spec, grid, tg)
    measured = [stepper.mean(u) for u in states]
    residuals = []
    pairs = stepper.coefficients(tg.nodes[:-1], tg.nodes[1:], states)
    for i, ((_, f_mean), (_, h_mean), (_, g_mean)) in enumerate(pairs, 1):
        conv = _convolution_values(kernel, states, i, tg.tau)
        terms = (
            (measured[i] - measured[i - 1]) / tg.tau,
            g_mean,
            kernel[i] * h_mean,
            stepper.mean(conv),
            -f_mean,
        )
        scale = max(abs(term) for term in terms)
        residuals.append(abs(sum(terms)) / scale if scale > 0 else 0.0)
    return measured, residuals


def _stepwise_diagnostics(grid, tau, result):
    """Reference: the functionals of each state and step formed one at a
    time, then combined as ``Diagnostics`` defines them."""
    states, kernel, w = result.states, result.kernel.values, grid.weights
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
    }


class TestTrajectoryWalk:
    """M_i and the residuals are formed after the march, and the
    diagnostics walk the trajectory in blocks carrying A u across them;
    whatever the block size, every value is the per-step one, bit for bit."""

    @pytest.mark.parametrize("states_per_block", [1, 3, None], ids=["one", "three", "all"])
    @pytest.mark.parametrize(
        "spec, n, cells",
        [(preset_manufactured_1d(), 40, (30,)), (_manufactured_2d(), 10, (12, 9))],
        ids=["1d", "2d"],
    )
    def test_equals_stepwise_reference(self, monkeypatch, spec, n, cells, states_per_block):
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(*cells)
        block = (states_per_block or n + 1) * grid.weights.size
        monkeypatch.setattr(problem, "BLOCK_VALUES", block)

        run = run_forward(spec, grid, tg, derivative="discrete")
        measured, residuals = _stepwise_identity(spec, grid, tg, run.states, run.kernel.values)
        assert run.measurement.values.tolist() == measured
        assert run.compat_residuals.tolist() == residuals

        result = reconstruct(spec, grid, tg, run.measurement)
        _, residuals = _stepwise_identity(spec, grid, tg, result.states, result.kernel.values)
        assert result.compat_residuals.tolist() == residuals
        assert result.diagnostics.as_dict() == _stepwise_diagnostics(grid, tg.tau, result)


class TestStepThreshold:
    def test_passes_with_margin(self):
        report = check_step_threshold(_spec(omega=1.0), m0=1.0, tau=0.1)
        assert report.tau0 == 0.5
        assert report.passed
        assert abs(report.margin - 0.9) < 1e-15

    def test_zero_m0_caps_at_one(self):
        report = check_step_threshold(_spec(omega=1.0), m0=0.0, tau=0.99)
        assert report.tau0 == 1.0
        assert report.passed
        assert not check_step_threshold(_spec(omega=1.0), m0=0.0, tau=1.0).passed

    def test_violation(self):
        report = check_step_threshold(_spec(omega=0.2), m0=10.0, tau=0.05)
        assert report.tau0 == 0.01
        assert not report.passed

    def test_reconstruct_refuses_then_forced(self):
        spec = _spec(f="0", h="1", g="0", u0="10", omega=0.2)
        tg = TimeGrid(1.0, 20)  # tau = 0.05 > tau0 = 0.01
        grid = spec.make_grid(10)
        series = MeasurementSeries.from_expressions(
            tg, expr.parse("10*exp(-t)"), expr.parse("-10*exp(-t)")
        )
        with pytest.raises(StepThresholdError):
            reconstruct(spec, grid, tg, series)
        with pytest.warns(RuntimeWarning):
            result = reconstruct(spec, grid, tg, series, force=True)
        assert not result.threshold.passed


class TestKernelUpdate:
    # the scalar update K_i, asserted through the reconstruction loop

    def test_zero_numerator_by_induction(self):
        # f = 0, g = 0, m' = 0 forces every K_i to vanish
        spec = _spec()
        tg = TimeGrid(1.0, 8)
        grid = spec.make_grid(10)
        series = MeasurementSeries(
            tg, np.full(9, 2.0), np.zeros(8), "analytic", initial_derivative=0.0
        )
        kernel = reconstruct(spec, grid, tg, series).kernel.values
        for i in range(1, 9):
            assert kernel[i] == 0.0

    def test_direct_substitution(self):
        # (f_0,1)=2, m'_1=1, (h_1,1)=1, m_0=0 gives K_1 = 1
        spec = _spec(f="2")
        tg = TimeGrid(1.0, 4)
        grid = spec.make_grid(10)
        series = MeasurementSeries(
            tg, np.zeros(5), np.array([1.0, 0.0, 0.0, 0.0]), "analytic"
        )
        value = reconstruct(spec, grid, tg, series).kernel.values[1]
        assert abs(value - 1.0) < 1e-14

    def test_denominator_sign_flag(self):
        # m_0 = 2 with tau = 0.125 stays below tau0 = 0.25
        spec = _spec(f="2")
        tg = TimeGrid(1.0, 8)
        grid = spec.make_grid(10)
        derivs = np.zeros(8)
        derivs[0] = 1.0
        series = MeasurementSeries(tg, np.full(9, 2.0), derivs, "analytic")
        plus = reconstruct(spec, grid, tg, series).kernel.values[1]
        minus = reconstruct(spec, grid, tg, series, denominator_sign=-1.0).kernel.values[1]
        tau = tg.tau
        assert abs(plus - 1.0 / (1.0 + 2.0 * tau)) < 1e-14
        assert abs(minus - 1.0 / (1.0 - 2.0 * tau)) < 1e-14

    def test_singular_denominator(self):
        # h = -1 while m0 tau = 1 cancels the denominator exactly; tau = 0.1
        # exceeds tau0 = 0.05, so the run is forced past the threshold
        spec = _spec(h="-1", u0="10")
        tg = TimeGrid(1.0, 10)  # tau = 0.1, m0 = 10
        grid = spec.make_grid(10)
        series = MeasurementSeries.from_samples(tg, np.full(11, 10.0))
        with pytest.warns(RuntimeWarning), pytest.raises(SingularUpdateError) as err:
            reconstruct(spec, grid, tg, series, force=True)
        assert err.value.step == 1


class TestInitialKernelValue:
    def test_manufactured_value(self):
        from kernrec.forward import TimeStepper

        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 50)
        grid = spec.make_grid(100)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        stepper = TimeStepper(spec, grid, tg)
        assert abs(initial_kernel_value(stepper, series) - 1.0) < 1e-12


class TestReconstruct:
    def test_zero_problem_exact(self):
        spec = preset_zero_1d()
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(100)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert np.all(result.kernel.values == 0.0)
        assert np.all(result.states == 0.0)
        # every identity term is 0: the residual is 0, with no 0/0 (pytest
        # turns a RuntimeWarning into an error)
        assert np.all(result.compat_residuals == 0.0)
        assert result.diagnostics.max_compat_residual == 0.0

    def test_same_grid_roundtrip(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 60)
        grid = spec.make_grid(60)
        kernel_in = KernelSeries.from_expression(spec.kernel_exact, tg)
        fwd = run_forward(spec, grid, tg, kernel_in, derivative="discrete")
        series = fwd.measurement
        result = reconstruct(spec, grid, tg, series)
        assert np.abs(result.kernel.values - kernel_in.values).max() <= 1e-8
        assert np.abs(result.states - fwd.states).max() <= 1e-8

    def test_same_grid_roundtrip_2d(self):
        spec = ProblemSpec(
            name="m2d", extents=(1.0, 1.0), T=1.0, omega_floor=1.0,
            f=expr.parse("(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"),
            h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("1+cos(pi*x)"),
            kernel_exact=expr.parse("exp(-t)"),
        )
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(10, 10)
        kernel_in = KernelSeries.from_expression(spec.kernel_exact, tg)
        fwd = run_forward(spec, grid, tg, kernel_in, derivative="discrete")
        series = fwd.measurement
        result = reconstruct(spec, grid, tg, series)
        assert np.abs(result.kernel.values - kernel_in.values).max() <= 1e-8
        assert np.abs(result.states - fwd.states).max() <= 1e-8

    def test_analytic_data_accuracy(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(200)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        reference = np.exp(-tg.nodes)
        assert np.abs(result.kernel.values - reference).max() <= 0.05

    def test_measurement_consistency(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(200)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.compat_residuals.max() <= 1e-9
        assert result.diagnostics.max_compat_residual <= 1e-9

    def test_measurement_identity_on_fine_mesh(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 5)
        grid = spec.make_grid(8000)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9

    def test_manufactured_2d_analytic_data(self):
        spec = _manufactured_2d()
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(16, 16)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9
        assert np.abs(result.kernel.values - np.exp(-tg.nodes)).max() <= 3e-2

    def test_determinism(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 40)
        grid = spec.make_grid(40)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        a = reconstruct(spec, grid, tg, series)
        b = reconstruct(spec, grid, tg, series)
        np.testing.assert_array_equal(a.kernel.values, b.kernel.values)
        np.testing.assert_array_equal(a.states, b.states)

    def test_decoupling_from_later_data(self):
        # corrupting the measurement beyond step i0 must not touch K_1..K_i0
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 40)
        grid = spec.make_grid(40)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        i0 = 25
        values = series.values.copy()
        derivs = series.derivatives.copy()
        values[i0 + 1 :] += 1.0
        derivs[i0:] -= 3.0  # derivative entries for steps > i0
        corrupted = MeasurementSeries(tg, values, derivs, "analytic", series.initial_derivative)
        a = reconstruct(spec, grid, tg, series)
        b = reconstruct(spec, grid, tg, corrupted)
        np.testing.assert_array_equal(a.kernel.values[: i0 + 1], b.kernel.values[: i0 + 1])
        np.testing.assert_array_equal(
            a.states[: i0 + 1], b.states[: i0 + 1]
        )
        assert np.any(a.kernel.values[i0 + 1 :] != b.kernel.values[i0 + 1 :])

    def test_continuity_in_the_data(self):
        # perturbation of size eps moves the kernel by O(eps)
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 100)
        grid = spec.make_grid(100)
        base = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        rec0 = reconstruct(spec, grid, tg, base)
        diffs = {}
        for eps in (1e-6, 1e-8):
            perturbed = MeasurementSeries.from_samples(
                tg, base.values + eps * np.cos(np.arange(tg.n + 1)), base.initial_derivative
            )
            rec1 = reconstruct(spec, grid, tg, perturbed)
            diffs[eps] = np.abs(rec1.kernel.values - rec0.kernel.values).max()
        assert diffs[1e-6] <= 1e-3  # observed amplification is about 1e2
        assert diffs[1e-8] <= 1e-5
        ratio = diffs[1e-6] / diffs[1e-8]
        assert 30 <= ratio <= 300  # linear response

    def test_denominator_sign_flag_changes_result(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 50)
        grid = spec.make_grid(50)
        kernel_in = KernelSeries.from_expression(spec.kernel_exact, tg)
        fwd = run_forward(spec, grid, tg, kernel_in, derivative="discrete")
        series = fwd.measurement
        plus = reconstruct(spec, grid, tg, series)
        minus = reconstruct(spec, grid, tg, series, denominator_sign=-1.0)
        assert np.abs(plus.kernel.values - kernel_in.values).max() <= 1e-8
        assert np.abs(minus.kernel.values - kernel_in.values).max() > 1e-4

    def test_initial_value_warning(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(20)
        series = MeasurementSeries(
            tg,
            1.0 + tg.nodes,
            np.ones(tg.n),
            "analytic",
            initial_derivative=5.0,  # inconsistent with the exact kernel at t=0
        )
        with pytest.warns(RuntimeWarning):
            reconstruct(spec, grid, tg, series)

    def test_misaligned_measurement(self):
        spec = preset_manufactured_1d()
        series = MeasurementSeries.from_expressions(
            TimeGrid(1.0, 10), spec.m_exact, spec.mprime_exact
        )
        with pytest.raises(ValidationError):
            reconstruct(spec, spec.make_grid(10), TimeGrid(1.0, 20), series)

    def test_degenerate_zero_measurement_allowed(self):
        # m == 0 with nonzero forcing: update degenerates to
        # K_i = [(f,1) - (g,1)] / (h,1)
        spec = _spec(f="2")
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(10)
        series = MeasurementSeries(tg, np.zeros(11), np.zeros(10), "analytic", 0.0)
        result = reconstruct(spec, grid, tg, series)
        np.testing.assert_allclose(result.kernel.values, 2.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec, n, cells",
        [(preset_manufactured_1d(), 200, (2000,)), (_manufactured_2d(), 100, (40, 40))],
        ids=["1d", "2d"],
    )
    def test_diagnostics_match_running_sums(self, spec, n, cells):
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(*cells)
        # the post-loop diagnostics walk this trajectory in several blocks
        assert (n + 1) * grid.weights.size > problem.BLOCK_VALUES
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        reference = _running_diagnostics(result, grid, tg.tau)
        got = result.diagnostics.as_dict()
        assert got.keys() == reference.keys()
        for key, value in reference.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    def test_diagnostics_nonnegative(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 30)
        grid = spec.make_grid(30)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        d = reconstruct(spec, grid, tg, series).diagnostics
        for key, value in d.as_dict().items():
            assert np.isfinite(value), key
            assert value >= 0.0, key

    def test_trace_callback(self):
        spec = preset_manufactured_1d()
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(10)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        rows = []
        reconstruct(spec, grid, tg, series, trace=lambda *row: rows.append(row))
        assert len(rows) == 10
        assert rows[0][0] == 1 and rows[-1][0] == 10


# Inline 2D problems on [0,1] x [0,ly] from u0 = 1+cos(pi x)cos(pi y). With the
# first f, (1+t) u0 is the exact state for the kernel exp(-t), so m = ly (1+t);
# the second f reads q, the y-derivative of u.
_F_2D = {
    "manufactured": "(1+cos(pi*x)*cos(pi*y)) + (1+t)*2*pi^2*cos(pi*x)*cos(pi*y)"
                    " + exp(-t) + t*(1+cos(pi*x)*cos(pi*y))",
    "reads-q": "1 + cos(pi*x) + x*q - u",
}
_U0_2D = "1+cos(pi*x)*cos(pi*y)"


def _spec_2d(ly, f, u0, **extra):
    return ProblemSpec(
        name="inline2d", extents=(1.0, ly), T=1.0, omega_floor=1.0,
        f=expr.parse(f), h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse(u0),
        **{key: expr.parse(text) for key, text in extra.items()},
    )


def _below_tau0(spec, grid, n, fraction):
    """spec with T = n tau, tau = fraction * tau0, and its time grid."""
    m0 = float(np.sum(grid.weights * expr.evaluate(spec.u0, grid.coordinate_fields())))
    T = n * fraction * check_step_threshold(spec, m0, 1.0).tau0
    return replace(spec, T=T), TimeGrid(T, n)


_small_2d = dict(
    n=st.integers(1, 20),
    mx=st.integers(1, 10),
    my=st.integers(1, 10),
    ly=st.sampled_from([1.0, 2.0]),
    fraction=st.floats(0.05, 0.95),
)


class TestReconstruct2DProperties:
    @settings(max_examples=50, deadline=None)
    @given(**_small_2d)
    def test_zero_problem_exact(self, n, mx, my, ly, fraction):
        spec = _spec_2d(ly, "0", "0", m_exact="0", mprime_exact="0")
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        result = reconstruct(spec, grid, tg, series)
        assert np.all(result.kernel.values == 0.0)
        assert np.all(result.states == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(f=st.sampled_from(sorted(_F_2D)), **_small_2d)
    def test_identity_residual(self, f, n, mx, my, ly, fraction):
        spec = _spec_2d(ly, _F_2D[f], _U0_2D, kernel_exact="exp(-t)")
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        if f == "manufactured":  # exact data
            series = MeasurementSeries.from_expressions(
                tg, expr.parse(f"{ly}*(1+t)"), expr.parse(f"{ly}")
            )
        else:  # same-grid data
            series = run_forward(spec, grid, tg, derivative="discrete").measurement
        result = reconstruct(spec, grid, tg, series)
        assert result.diagnostics.max_compat_residual <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(f=st.sampled_from(sorted(_F_2D)), **_small_2d)
    def test_same_grid_roundtrip(self, f, n, mx, my, ly, fraction):
        spec = _spec_2d(ly, _F_2D[f], _U0_2D, kernel_exact="exp(-t)")
        grid = spec.make_grid(mx, my)
        spec, tg = _below_tau0(spec, grid, n, fraction)
        fwd = run_forward(spec, grid, tg, derivative="discrete")
        result = reconstruct(spec, grid, tg, fwd.measurement)
        assert np.abs(result.kernel.values - fwd.kernel.values).max() <= 1e-8


class TestKernelDifferenceEnergy:
    def test_constant_series(self):
        tg = TimeGrid(1.0, 10)
        assert kernel_difference_energy(np.full(11, 3.0), tg.tau) == 0.0

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
