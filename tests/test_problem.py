import math
from dataclasses import replace

import numpy as np
import pytest

from kernrec import expr
from kernrec.errors import ConfigError, FloorViolationError, ValidationError
from kernrec.harness import run_cli
from kernrec.problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    make_preset,
    measurement_from_csv,
    parse_config,
    preset_contaminant,
    preset_manufactured_1d,
    preset_zero_1d,
    spec_from_mapping,
    validate_floor,
)


def _simpson(fn, a, b, n=2000):
    # composite Simpson; n must be even
    s = np.linspace(a, b, n + 1)
    y = fn(s)
    h = (b - a) / n
    return h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


class TestTimeGrid:
    def test_nodes_and_tau(self):
        tg = TimeGrid(2.0, 4)
        assert tg.tau == 0.5
        np.testing.assert_allclose(tg.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValidationError):
            TimeGrid(T, 10)


class TestManufacturedPreset:
    def test_measurement_at_zero(self):
        spec = preset_manufactured_1d()
        assert expr.evaluate(spec.m_exact, {"t": 0.0}) == 1.0
        # quadrature of the initial state agrees: integral of 1+cos(pi x) is 1
        grid = spec.make_grid(64)
        u0 = expr.evaluate(spec.u0, {"x": grid.axes[0]})
        assert abs(np.sum(grid.weights * u0) - 1.0) < 1e-12

    def test_floor_satisfied(self):
        spec = preset_manufactured_1d()
        validate_floor(spec, spec.make_grid(50), TimeGrid(spec.T, 20))

    def test_convolution_closed_form(self):
        # quadrature of exp(-(t-s)) (1+s) ds must equal t at several t
        spec = preset_manufactured_1d()
        for t in (0.2, 0.5, 1.0):
            value = _simpson(lambda s: np.exp(-(t - s)) * (1 + s), 0.0, t)
            assert abs(value - t) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pde_residual_oracle(self, seed):
        # independent check: numeric derivatives of the exact state plus
        # quadrature of the memory term must satisfy the evolution law
        spec = preset_manufactured_1d()
        rng = np.random.default_rng(seed)

        def u_at(x, t):
            return expr.evaluate(spec.u_exact, {"x": x, "t": t})

        def kernel_at(t):
            return expr.evaluate(spec.kernel_exact, {"t": t})

        for _ in range(10):
            x = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.05, 0.95))
            dt = 1e-5
            du_dt = (u_at(x, t + dt) - u_at(x, t - dt)) / (2 * dt)
            dx = 1e-4
            lap = (u_at(x + dx, t) - 2 * u_at(x, t) + u_at(x - dx, t)) / dx**2
            conv = _simpson(lambda s: kernel_at(t - s) * u_at(x, s), 0.0, t)
            h = expr.evaluate(spec.h, {"x": x, "t": t})
            f = expr.evaluate(spec.f, {"x": x, "t": t, "u": u_at(x, t), "p": 0.0, "q": 0.0})
            residual = du_dt - lap + kernel_at(t) * h + conv - f
            assert abs(residual) < 1e-6

    def test_neumann_data_consistent(self):
        # the exact state has vanishing x-derivative at both endpoints
        spec = preset_manufactured_1d()
        for t in (0.0, 0.3, 1.0):
            for x in (0.0, 1.0):
                dx = 1e-6
                du = (
                    expr.evaluate(spec.u_exact, {"x": x + dx, "t": t})
                    - expr.evaluate(spec.u_exact, {"x": x - dx, "t": t})
                ) / (2 * dx)
                assert abs(du) < 1e-8


class TestContaminantPreset:
    def test_default_values(self):
        spec = preset_contaminant()
        t = np.linspace(0, 1, 7)
        np.testing.assert_allclose(
            expr.evaluate(spec.kernel_exact, {"t": t}), -np.exp(-t), rtol=1e-14
        )
        assert expr.evaluate(spec.h, {"x": 0.3, "t": 0.2}) == -1.0
        assert expr.evaluate(spec.f, {"x": 0.1, "t": 0.5, "u": 3.0, "p": 9.0, "q": 0.0}) == -3.0

    def test_floor_with_defaults(self):
        spec = preset_contaminant()
        means = abs(np.sum(spec.make_grid(32).weights * expr.evaluate(spec.h, {})))
        assert means >= spec.omega_floor - 1e-12

    @pytest.mark.parametrize(
        "rho_b,porosity,kr,kd",
        [(1.0, 1.0, 1.0, 1.0), (2.5, 0.4, 3.0, 0.7), (0.8, 1.2, 0.5, -1.5)],
    )
    def test_kernel_at_zero(self, rho_b, porosity, kr, kd):
        spec = preset_contaminant(rho_b=rho_b, porosity=porosity, kr=kr, kd=kd)
        expected = -(rho_b / porosity) * kr**2 * kd
        assert abs(expr.evaluate(spec.kernel_exact, {"t": 0.0}) - expected) < 1e-14 * abs(expected)

    def test_advection_term(self):
        spec = preset_contaminant(v=2.0)
        value = expr.evaluate(spec.f, {"x": 0.0, "t": 0.0, "u": 1.0, "p": 3.0, "q": 0.0})
        assert value == -1.0 - 6.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            preset_contaminant(kr=0.0)
        with pytest.raises(ValidationError):
            preset_contaminant(kr=-2.0)
        with pytest.raises(ValidationError):
            preset_contaminant(kd=0.0)

    @pytest.mark.parametrize("key", ["rho_b", "porosity", "kr", "kd", "s0", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, key, value):
        with pytest.raises(ValidationError, match=key):
            preset_contaminant(**{key: value})

    @pytest.mark.parametrize(
        "params,coefficient",
        [
            ({"s0": 1e308, "kr": 1e-10}, "h"),
            ({"rho_b": 1e300, "porosity": 1e-300}, "kernel coefficient"),
            ({"kr": 1e200}, "kernel coefficient"),
            ({"kr": 1e-200, "kd": 1e-200}, "h"),  # kr kd underflows to zero
        ],
        ids=["h", "rho_b-over-porosity", "kr-squared", "kr-kd-underflow"],
    )
    def test_rejects_overflowing_coefficients(self, params, coefficient):
        with pytest.raises(ValidationError, match=f"contaminant {coefficient}.* not finite"):
            preset_contaminant(**params)


class TestSpecValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValidationError):
            ProblemSpec(
                name="bad", extents=(1.0,), T=-1.0, omega_floor=1.0,
                f=expr.parse("0"), h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("0"),
            )

    def test_bad_floor(self):
        with pytest.raises(ValidationError):
            ProblemSpec(
                name="bad", extents=(1.0,), T=1.0, omega_floor=0.0,
                f=expr.parse("0"), h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("0"),
            )

    @pytest.mark.parametrize(
        "field,value",
        [("T", math.nan), ("T", math.inf), ("omega_floor", math.nan),
         ("omega_floor", math.inf), ("extents", (math.nan,)), ("extents", (1.0, math.inf))],
        ids=["T-nan", "T-inf", "omega-nan", "omega-inf", "lx-nan", "ly-inf"],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        spec = preset_manufactured_1d()
        with pytest.raises(ValidationError):
            replace(spec, **{field: value})

    def test_variable_discipline(self):
        # u0 may not depend on time
        with pytest.raises(ValidationError):
            ProblemSpec(
                name="bad", extents=(1.0,), T=1.0, omega_floor=1.0,
                f=expr.parse("0"), h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("t"),
            )
        # y is off limits in 1D
        with pytest.raises(ValidationError):
            ProblemSpec(
                name="bad", extents=(1.0,), T=1.0, omega_floor=1.0,
                f=expr.parse("y"), h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("0"),
            )

    def test_floor_violation(self):
        spec = ProblemSpec(
            name="flat", extents=(1.0,), T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse("0"), g=expr.parse("0"), u0=expr.parse("0"),
        )
        with pytest.raises(FloorViolationError):
            validate_floor(spec, spec.make_grid(10), TimeGrid(1.0, 10))

    def test_time_varying_floor_violation(self):
        spec = ProblemSpec(
            name="sinker", extents=(1.0,), T=1.0, omega_floor=0.5,
            f=expr.parse("0"), h=expr.parse("1-2*t"), g=expr.parse("0"), u0=expr.parse("0"),
        )
        with pytest.raises(FloorViolationError):
            validate_floor(spec, spec.make_grid(10), TimeGrid(1.0, 10))


CONFIG = """
# sample problem
[problem]
f = "0"
h = "1"
g = "0"
u0 = "x"
lx = 1.0
T = 2.0
omega = 0.5
m = "exp(-t)"
mprime = "-exp(-t)"

[discretization]
n = 20
mx = 10

[experiment]
mode = reconstruct
"""


class TestConfig:
    def test_parse_sections(self):
        sections = parse_config(CONFIG)
        assert sections["problem"]["f"] == "0"
        assert sections["discretization"]["n"] == "20"
        assert sections["experiment"]["mode"] == "reconstruct"

    def test_spec_from_config(self):
        sections = parse_config(CONFIG)
        spec = spec_from_mapping(sections["problem"])
        assert spec.T == 2.0
        assert spec.omega_floor == 0.5
        assert sections["discretization"]["mx"] == "10"

    def test_load_preset(self):
        spec = spec_from_mapping(parse_config("[problem]\npreset = manufactured1d\n")["problem"])
        assert spec.name == "manufactured1d"

    def test_preset_horizon_override(self):
        spec = spec_from_mapping({"preset": "manufactured1d", "T": "0.5"})
        assert spec.T == 0.5

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValidationError):
            spec_from_mapping(parse_config(CONFIG.replace("T = 2.0", "T = -1"))["problem"])

    @pytest.mark.parametrize("cells", ["mx = 0", "mx = 10\nmy = 0"])
    def test_zero_cell_count_rejected(self, tmp_path, capsys, cells):
        square = CONFIG.replace("lx = 1.0", "lx = 1.0\nly = 1.0")
        path = tmp_path / "square.cfg"
        path.write_text(square.replace("mx = 10", cells), encoding="utf-8")
        assert run_cli(["reconstruct", "--config", str(path)]) == 1
        assert "positive cell count" in capsys.readouterr().err

    def test_floor_violation_on_load(self):
        sections = parse_config(CONFIG.replace('h = "1"', 'h = "0"'))
        spec = spec_from_mapping(sections["problem"])
        with pytest.raises(FloorViolationError):
            validate_floor(spec, spec.make_grid(10), TimeGrid(spec.T, 20))

    def test_missing_mandatory_key(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(parse_config(CONFIG.replace('f = "0"\n', ""))["problem"])

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("[problem]\nnonsense line\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[mystery]\nx = 1\n")

    def test_expression_error_carries_key(self):
        with pytest.raises(ConfigError) as err:
            spec_from_mapping(parse_config(CONFIG.replace('u0 = "x"', 'u0 = "x +"'))["problem"])
        assert "u0" in str(err.value)

    def test_contaminant_overrides(self):
        spec = spec_from_mapping(
            {"preset": "contaminant", "kr": "2.0", "kd": "0.5", "s0": "3.0"}
        )
        # h = -s0/(kr kd) = -3
        assert expr.evaluate(spec.h, {}) == -3.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            make_preset("nope")

    def test_spec_from_mapping_requires_lx(self):
        with pytest.raises(ConfigError):
            spec_from_mapping({"f": "0", "h": "1", "g": "0", "u0": "0", "T": "1", "omega": "1"})


class TestMeasurementSeries:
    def test_backward_differences(self):
        tg = TimeGrid(1.0, 4)
        series = MeasurementSeries.from_samples(tg, np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
        np.testing.assert_allclose(series.derivatives, [4.0, 8.0, 12.0, 16.0])
        assert series.provenance == "discrete-difference"
        assert series.m0 == 0.0
        assert series.initial_derivative is None

    def test_from_expressions_analytic(self):
        tg = TimeGrid(1.0, 10)
        spec = preset_manufactured_1d()
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        assert series.provenance == "analytic"
        assert series.initial_derivative == 1.0
        np.testing.assert_allclose(series.values, 1.0 + tg.nodes)
        np.testing.assert_allclose(series.derivatives, 1.0)

    def test_derivative_index_bounds(self):
        tg = TimeGrid(1.0, 3)
        series = MeasurementSeries.from_samples(tg, np.arange(4.0))
        with pytest.raises(IndexError):
            series.derivative_at(0)
        with pytest.raises(IndexError):
            series.derivative_at(4)

    def test_restrict_subsamples(self):
        fine = TimeGrid(1.0, 100)
        series = MeasurementSeries.from_samples(fine, np.sin(fine.nodes))
        coarse = series.restrict(TimeGrid(1.0, 25))
        assert coarse.timegrid.n == 25
        np.testing.assert_array_equal(coarse.values, series.values[::4])
        # derivative is the coarse backward difference, not the fine one
        np.testing.assert_allclose(
            coarse.derivatives, np.diff(series.values[::4]) / coarse.timegrid.tau
        )

    def test_restrict_analytic_keeps_exact_derivatives(self):
        spec = preset_manufactured_1d()
        fine = TimeGrid(1.0, 40)
        series = MeasurementSeries.from_expressions(fine, spec.m_exact, spec.mprime_exact)
        coarse = series.restrict(TimeGrid(1.0, 10))
        assert coarse.provenance == "analytic"
        np.testing.assert_allclose(coarse.derivatives, 1.0)

    def test_restrict_non_divisible(self):
        fine = TimeGrid(1.0, 100)
        series = MeasurementSeries.from_samples(fine, np.zeros(101))
        with pytest.raises(ValidationError):
            series.restrict(TimeGrid(1.0, 33))

    def test_noise_recomputes_differences(self):
        tg = TimeGrid(1.0, 50)
        base = MeasurementSeries.from_expressions(
            tg, expr.parse("1+t"), expr.parse("1")
        )
        noisy = base.with_noise(0.01, np.random.default_rng(0))
        assert noisy.provenance == "discrete-difference"
        np.testing.assert_allclose(noisy.derivatives, np.diff(noisy.values) / tg.tau)
        assert np.abs(noisy.values - base.values).max() < 0.1

    def test_nonfinite_rejected(self):
        tg = TimeGrid(1.0, 2)
        with pytest.raises(ValidationError):
            MeasurementSeries(tg, np.array([0.0, np.nan, 1.0]), np.zeros(2), "analytic")


class TestMeasurementCsv:
    def test_roundtrip(self):
        tg = TimeGrid(1.0, 4)
        text = "t,m,mprime\n" + "\n".join(
            f"{t},{m},{d}" for t, m, d in zip(tg.nodes, [1, 2, 3, 4, 5], [9, 1, 1, 1, 1])
        )
        series = measurement_from_csv(text, tg)
        assert series.provenance == "analytic"
        assert series.initial_derivative == 9.0
        np.testing.assert_allclose(series.values, [1, 2, 3, 4, 5])

    def test_without_derivative_column(self):
        tg = TimeGrid(1.0, 2)
        series = measurement_from_csv("t,m\n0,1\n0.5,2\n1,3\n", tg)
        assert series.provenance == "discrete-difference"
        np.testing.assert_allclose(series.derivatives, [2.0, 2.0])

    def test_time_mismatch(self):
        tg = TimeGrid(1.0, 2)
        with pytest.raises(ValidationError):
            measurement_from_csv("t,m\n0,1\n0.4,2\n1,3\n", tg)

    def test_row_count_mismatch(self):
        tg = TimeGrid(1.0, 3)
        with pytest.raises(ValidationError):
            measurement_from_csv("t,m\n0,1\n0.5,2\n1,3\n", tg)


def test_zero_preset_is_all_zero():
    spec = preset_zero_1d()
    env = {"x": 0.3, "t": 0.7, "u": 0.0, "p": 0.0, "q": 0.0}
    assert expr.evaluate(spec.f, env) == 0.0
    assert expr.evaluate(spec.u0, {"x": 0.3}) == 0.0
    assert expr.evaluate(spec.m_exact, {"t": 0.7}) == 0.0
    assert expr.evaluate(spec.h, {"x": 0.1, "t": 0.2}) == 1.0
