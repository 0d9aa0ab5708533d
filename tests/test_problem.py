import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kernrec import expr, problem
from kernrec.errors import ConfigError, DomainFaultError, FloorViolationError, ValidationError
from kernrec.forward import TimeStepper
from kernrec.harness import run_cli
from kernrec.problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    make_preset,
    measurement_from_csv,
    parse_config,
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

    def test_sample_is_an_expression_at_the_nodes(self):
        tg = TimeGrid(2.0, 4)
        assert np.array_equal(tg.sample(expr.parse("exp(-t)")), np.exp(-tg.nodes))
        # a constant is broadcast into a new array that the caller may write
        constant = tg.sample(expr.parse("3"))
        assert constant.shape == (5,) and constant.flags.writeable
        assert np.all(constant == 3.0)

    def test_nodes_built_once_and_read_only(self):
        tg = TimeGrid(1.0, 10)
        assert tg.nodes is tg.nodes
        with pytest.raises(ValueError):
            tg.nodes[3] = 0.0
        assert tg == TimeGrid(1.0, 10) and hash(tg) == hash(TimeGrid(1.0, 10))

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
        spec = make_preset("manufactured1d")
        assert expr.evaluate(spec.m_exact, {"t": 0.0}) == 1.0
        # quadrature of the initial state agrees: integral of 1+cos(pi x) is 1
        grid = spec.make_grid(64)
        u0 = expr.evaluate(spec.u0, {"x": grid.axes[0]})
        assert abs(np.sum(grid.weights * u0) - 1.0) < 1e-12

    def test_floor_satisfied(self):
        spec = make_preset("manufactured1d")
        validate_floor(spec, spec.make_grid(50), TimeGrid(spec.T, 20))

    def test_convolution_closed_form(self):
        # quadrature of exp(-(t-s)) (1+s) ds must equal t at several t
        spec = make_preset("manufactured1d")
        for t in (0.2, 0.5, 1.0):
            value = _simpson(lambda s: np.exp(-(t - s)) * (1 + s), 0.0, t)
            assert abs(value - t) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pde_residual_oracle(self, seed):
        # independent check: numeric derivatives of the exact state plus
        # quadrature of the memory term must satisfy the evolution law
        spec = make_preset("manufactured1d")
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
        spec = make_preset("manufactured1d")
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
        spec = make_preset("contaminant")
        t = np.linspace(0, 1, 7)
        np.testing.assert_allclose(
            expr.evaluate(spec.kernel_exact, {"t": t}), -np.exp(-t), rtol=1e-14
        )
        assert expr.evaluate(spec.h, {"x": 0.3, "t": 0.2}) == -1.0
        assert expr.evaluate(spec.f, {"x": 0.1, "t": 0.5, "u": 3.0, "p": 9.0, "q": 0.0}) == -3.0

    def test_floor_with_defaults(self):
        spec = make_preset("contaminant")
        means = abs(np.sum(spec.make_grid(32).weights * expr.evaluate(spec.h, {})))
        assert means >= spec.omega_floor - 1e-12

    @pytest.mark.parametrize(
        "rho_b,porosity,kr,kd",
        [(1.0, 1.0, 1.0, 1.0), (2.5, 0.4, 3.0, 0.7), (0.8, 1.2, 0.5, -1.5)],
    )
    def test_kernel_at_zero(self, rho_b, porosity, kr, kd):
        spec = make_preset(
            "contaminant",
            {"rho_b": repr(rho_b), "porosity": repr(porosity), "kr": repr(kr), "kd": repr(kd)},
        )
        expected = -(rho_b / porosity) * kr**2 * kd
        assert abs(expr.evaluate(spec.kernel_exact, {"t": 0.0}) - expected) < 1e-14 * abs(expected)

    def test_advection_term(self):
        spec = make_preset("contaminant", {"v": "2.0"})
        value = expr.evaluate(spec.f, {"x": 0.0, "t": 0.0, "u": 1.0, "p": 3.0, "q": 0.0})
        assert value == -1.0 - 6.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValidationError):
            make_preset("contaminant", {"kr": "0.0"})
        with pytest.raises(ValidationError):
            make_preset("contaminant", {"kr": "-2.0"})
        with pytest.raises(ValidationError):
            make_preset("contaminant", {"kd": "0.0"})

    @pytest.mark.parametrize(
        "params", [{"s0": "0"}, {"s0": "-0.0"}, {"s0": "1e-300", "kr": "1e100"}],
        ids=["s0-zero", "s0-negative-zero", "quotient-underflows"],
    )
    def test_rejects_zero_h(self, params):
        with pytest.raises(ValidationError, match=r"contaminant h = -s0/\(kr kd\) is zero"):
            make_preset("contaminant", params)

    @pytest.mark.parametrize("key", ["rho_b", "porosity", "kr", "kd", "s0", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, key, value):
        with pytest.raises(ValidationError, match=key):
            make_preset("contaminant", {key: repr(value)})

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
            make_preset("contaminant", {k: repr(v) for k, v in params.items()})


# the variables each [problem] expression key may use in 2D; y is off limits in 1D
KEY_VARIABLES = {
    "f": {"x", "y", "t", "u", "p", "q"},
    "h": {"x", "y", "t"},
    "g": {"x", "y", "t"},
    "u0": {"x", "y"},
    "kernel": {"t"},
    "m": {"t"},
    "mprime": {"t"},
    "u_exact": {"x", "y", "t"},
}
INLINE_2D = {"f": "0", "h": "1", "g": "0", "u0": "0", "lx": "1", "ly": "1", "T": "1", "omega": "1"}


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
        spec = make_preset("manufactured1d")
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

    @pytest.mark.parametrize("key", list(KEY_VARIABLES))
    def test_key_variables(self, key):
        allowed = KEY_VARIABLES[key]
        assert spec_from_mapping({**INLINE_2D, key: " + ".join(sorted(allowed))})
        # every variable the language knows but the key may not use
        for var in sorted(expr.VARIABLES - allowed):
            with pytest.raises(ValidationError) as err:
                spec_from_mapping({**INLINE_2D, key: var})
            assert str(err.value) == (
                f"'{key}' uses variables ['{var}']; allowed: {sorted(allowed)}"
            )
        # an interval has no second axis: its coordinate y and derivative q go
        one_d = {k: v for k, v in INLINE_2D.items() if k != "ly"}
        allowed_1d = allowed - {"y", "q"}
        assert spec_from_mapping({**one_d, key: " + ".join(sorted(allowed_1d))})
        for var in sorted(allowed - allowed_1d):
            with pytest.raises(ValidationError) as err:
                spec_from_mapping({**one_d, key: var})
            assert str(err.value) == (
                f"'{key}' uses variables ['{var}']; allowed: {sorted(allowed_1d)}"
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

    @pytest.mark.parametrize(
        "h, cells",
        [("1 + t*x", (12,)), ("2 + x^2", (12,)), ("2 + t*cos(pi*x)*y", (6, 5))],
        ids=["1d", "1d-static", "2d"],
    )
    def test_floor_means_are_the_steppers(self, monkeypatch, h, cells):
        # the floor check reads exactly the (h_i,1) the kernel update divides by
        spec = ProblemSpec(
            name="inline", extents=(1.0,) * len(cells), T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse(h), g=expr.parse("0"), u0=expr.parse("0"),
        )
        grid = spec.make_grid(*cells)
        tg = TimeGrid(1.0, 10)
        # blocks of 4 time nodes, the last one partial
        monkeypatch.setattr(problem, "BLOCK_VALUES", 4 * grid.weights.size)
        stepper = TimeStepper(spec, grid, tg)
        means, node_pairs = [], problem.node_pairs

        def spy(*args):
            # the sums validate_floor takes, passed through as they come
            for field, mean in node_pairs(*args):
                means.append(mean)
                yield field, mean

        with monkeypatch.context() as mp:
            mp.setattr(problem, "node_pairs", spy)
            validate_floor(spec, grid, tg)
        states = np.zeros((tg.n + 1, *grid.shape))
        pairs = stepper.coefficients(tg.nodes[:-1], tg.nodes[1:], states)
        marched = [h_mean for _, (_, h_mean), _ in pairs]
        assert means == [stepper.initial_means()[2], *marched]

    @pytest.mark.parametrize(
        "h, message",
        [("1 + 1/(t - 0.5)", r"division by zero in '1.0/\(t - 0.5\)'"),
         ("2 + log(x)", r"log of non-positive value in 'log\(x\)'")],
        ids=["in-a-block", "static"],
    )
    def test_floor_check_meets_a_fault_of_h(self, h, message):
        # the floor check is the first reader of h; a block that faults is
        # served node by node, a static h is evaluated once
        spec = ProblemSpec(
            name="inline", extents=(1.0,), T=1.0, omega_floor=0.5,
            f=expr.parse("0"), h=expr.parse(h), g=expr.parse("0"), u0=expr.parse("0"),
        )
        with pytest.raises(DomainFaultError, match=message):
            validate_floor(spec, spec.make_grid(8), TimeGrid(1.0, 10))

    def test_floor_check_memory_is_bounded(self):
        # all 2001 x 1001 values of h at once would take 32.5 MiB
        spec = ProblemSpec(
            name="inline", extents=(1.0,), T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse("1 + t*x"), g=expr.parse("0"), u0=expr.parse("0"),
        )
        grid, tg = spec.make_grid(1000), TimeGrid(1.0, 2000)
        tracemalloc.start()
        try:
            validate_floor(spec, grid, tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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

    def test_hash_inside_quotes_is_not_a_comment(self):
        sections = parse_config(
            "[problem]\n"
            'measurement_file = "/data/run#3.csv"\n'
            'name = "a # b"  # a comment after the value\n'
            'kernel = "exp(-t)"   # note\n'
            "# a comment line\n"
            "lx = 1.0# no space\n"
        )
        assert sections["problem"] == {
            "measurement_file": "/data/run#3.csv", "name": "a # b", "kernel": "exp(-t)",
            "lx": "1.0",
        }

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

    def test_measurement_file_is_part_of_the_spec(self):
        assert spec_from_mapping({"preset": "contaminant"}).measurement_file is None
        spec = spec_from_mapping({"preset": "contaminant", "measurement_file": "m.csv"})
        assert spec.measurement_file == "m.csv"
        inline = parse_config(CONFIG.replace('m = "exp(-t)"\nmprime = "-exp(-t)"\n', ""))
        spec = spec_from_mapping({**inline["problem"], "measurement_file": "m.csv"})
        assert spec.measurement_file == "m.csv"
        # no spec holds a file beside an exact m
        conflict = r"^\[measurement_file\] conflicts with the problem's exact measurement m; "
        with pytest.raises(ConfigError, match=conflict):
            spec_from_mapping({"preset": "manufactured1d", "measurement_file": "m.csv"})
        with pytest.raises(ConfigError, match=conflict):
            replace(spec, m_exact=expr.parse("1+t"))

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

    @pytest.mark.parametrize("key", ["f", "h", "g", "u0"])
    def test_missing_mandatory_key(self, key):
        text = "".join(
            line for line in CONFIG.splitlines(keepends=True) if not line.startswith(f"{key} = ")
        )
        with pytest.raises(ConfigError) as err:
            spec_from_mapping(parse_config(text)["problem"])
        assert str(err.value) == f"[{key}] missing mandatory key"

    def test_inline_errors_come_in_key_order(self):
        good = {**INLINE_2D, "kernel": "0", "m": "0", "mprime": "0", "u_exact": "0"}
        section = {key: "+" for key in good}  # neither a number nor an expression
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            spec_from_mapping({**section, "bogus": "1"})
        # mending each reported key reports the next
        for key in ["lx", "ly", "T", "omega", *KEY_VARIABLES]:
            with pytest.raises(ConfigError) as err:
                spec_from_mapping(section)
            assert str(err.value).startswith(f"[{key}] ")
            section[key] = good[key]
        assert spec_from_mapping(section).u_exact is not None

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

    def test_make_preset_takes_problem_keys(self):
        spec = make_preset("contaminant", {"kr": "2", "T": "0.5", "omega": "0.25"})
        assert (spec.T, spec.omega_floor) == (0.5, 0.25)
        assert spec == spec_from_mapping(
            {"preset": "contaminant", "kr": "2", "T": "0.5", "omega": "0.25"}
        )
        with pytest.raises(ConfigError, match="unknown key 'kr' in \\[problem\\] with preset"):
            make_preset("zero1d", {"kr": "2"})

    def test_preset_errors_come_in_order(self):
        # the preset's name, then its parameters, then the keys, then T and omega
        section = {"preset": "nope", "kr": "abc", "bogus": "1", "T": "nan"}
        # mending each reported key reports the next
        for expected, key, good in [("unknown preset 'nope'", "preset", "contaminant"),
                                    (r"\[kr\] expected a number", "kr", "2"),
                                    ("unknown key 'bogus'", "bogus", None),
                                    ("time horizon", "T", "0.5")]:
            with pytest.raises((ConfigError, ValidationError), match=expected):
                spec_from_mapping(section)
            section[key] = good
            if good is None:
                del section[key]
        assert spec_from_mapping(section).T == 0.5

    def test_spec_from_mapping_requires_lx(self):
        with pytest.raises(ConfigError):
            spec_from_mapping({"f": "0", "h": "1", "g": "0", "u0": "0", "T": "1", "omega": "1"})


class TestMeasurementSeries:
    def test_backward_differences(self):
        tg = TimeGrid(1.0, 4)
        series = MeasurementSeries(tg, np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
        np.testing.assert_allclose(series.derivatives, [4.0, 8.0, 12.0, 16.0])
        assert series.provenance == "discrete-difference"
        assert series.m0 == 0.0
        assert series.initial_derivative is None

    def test_from_expressions_analytic(self):
        tg = TimeGrid(1.0, 10)
        spec = make_preset("manufactured1d")
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        assert series.provenance == "analytic"
        assert series.initial_derivative == 1.0
        np.testing.assert_allclose(series.values, 1.0 + tg.nodes)
        np.testing.assert_allclose(series.derivatives, 1.0)

    def test_compares_and_hashes_by_identity(self):
        series = MeasurementSeries(TimeGrid(1.0, 4), np.arange(5.0))
        copy = replace(series)
        assert np.array_equal(copy.values, series.values)
        assert series == series and copy != series
        assert series in [copy, series] and copy not in [series]
        assert len({series, copy, series}) == 2

    def test_restrict_subsamples(self):
        fine = TimeGrid(1.0, 100)
        series = MeasurementSeries(fine, np.sin(fine.nodes))
        coarse = series.restrict(TimeGrid(1.0, 25))
        assert coarse.timegrid.n == 25
        np.testing.assert_array_equal(coarse.values, series.values[::4])
        # derivative is the coarse backward difference, not the fine one
        np.testing.assert_allclose(
            coarse.derivatives, np.diff(series.values[::4]) / coarse.timegrid.tau
        )

    def test_restrict_analytic_keeps_exact_derivatives(self):
        spec = make_preset("manufactured1d")
        fine = TimeGrid(1.0, 40)
        series = MeasurementSeries.from_expressions(fine, spec.m_exact, spec.mprime_exact)
        coarse = series.restrict(TimeGrid(1.0, 10))
        assert coarse.provenance == "analytic"
        np.testing.assert_allclose(coarse.derivatives, 1.0)

    def test_restrict_non_divisible(self):
        fine = TimeGrid(1.0, 100)
        series = MeasurementSeries(fine, np.zeros(101))
        with pytest.raises(ValidationError):
            series.restrict(TimeGrid(1.0, 33))

    def test_restrict_other_horizon(self):
        series = MeasurementSeries(TimeGrid(1.0, 4), np.zeros(5))
        with pytest.raises(ValidationError, match="^restriction requires the same time horizon$"):
            series.restrict(TimeGrid(2.0, 2))

    def test_negative_noise_rejected(self):
        series = MeasurementSeries(TimeGrid(1.0, 4), np.zeros(5))
        with pytest.raises(ValidationError, match="^noise level must be nonnegative$"):
            series.with_noise(-1.0, np.random.default_rng(0))

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
            MeasurementSeries(tg, np.array([0.0, np.nan, 1.0]), np.zeros(2))

    def test_sample_count_checked(self):
        tg = TimeGrid(1.0, 4)
        for values in (np.zeros(4), np.zeros((5, 1))):
            with pytest.raises(ValidationError, match="^expected 5 measurement samples, got"):
                MeasurementSeries(tg, values)

    def test_derivative_count_checked(self):
        tg = TimeGrid(1.0, 4)
        for mprime in (np.zeros(5), np.zeros((4, 1))):
            with pytest.raises(ValidationError, match="^expected 4 derivative samples, got"):
                MeasurementSeries(tg, np.zeros(5), mprime)

    def test_provenance_follows_the_given_derivatives(self):
        tg = TimeGrid(1.0, 2)
        given = MeasurementSeries(tg, [0.0, 1.0, 2.0], [7.0, -3.0])
        assert given.provenance == "analytic"
        np.testing.assert_array_equal(given.derivatives, [7.0, -3.0])
        # restriction keeps given derivatives; it does not re-difference them
        coarse = given.restrict(TimeGrid(1.0, 1))
        assert coarse.provenance == "analytic"
        np.testing.assert_array_equal(coarse.derivatives, [-3.0])

    def test_differenced_series_stays_differenced(self):
        # every way to a new series from one without m' differences its own samples
        tg = TimeGrid(1.0, 12)
        series = MeasurementSeries(tg, np.sin(3.0 * tg.nodes), None, 0.5)
        derived = [
            replace(series, values=np.cos(tg.nodes)),
            series.restrict(TimeGrid(1.0, 4)),
            series.with_noise(1e-3, np.random.default_rng(5)),
        ]
        for s in [series, *derived]:
            assert s.provenance == "discrete-difference"
            assert s.mprime is None
            expected = np.diff(s.values) / s.timegrid.tau
            assert s.derivatives.tobytes() == expected.tobytes()
        assert derived[0].initial_derivative == derived[1].initial_derivative == 0.5
        assert derived[2].initial_derivative is None


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

    def test_blank_trailing_fields_are_accepted(self):
        # a spreadsheet writes an empty field after the last one, and blank rows
        tg = TimeGrid(1.0, 2)
        plain = measurement_from_csv("t,m,mprime\n0,1,2\n0.5,2,2\n1,3,2\n", tg)
        padded = measurement_from_csv("t,m,mprime,\n0,1,2,\n,,,\n0.5,2,2, \n1,3,2,,\n", tg)
        assert padded.provenance == plain.provenance == "analytic"
        assert padded.initial_derivative == plain.initial_derivative == 2.0
        np.testing.assert_array_equal(padded.values, plain.values)
        np.testing.assert_array_equal(padded.derivatives, plain.derivatives)

    def test_lone_initial_derivative_is_kept(self):
        # m'(0) in the first row alone: the samples are differenced, m'(0) kept
        tg = TimeGrid(1.0, 4)
        series = measurement_from_csv("t,m,mprime\n0,1,7\n0.25,1.25\n0.5,2\n0.75,2\n1,3\n", tg)
        assert series.initial_derivative == 7.0
        assert series.provenance == "discrete-difference"
        np.testing.assert_array_equal(series.derivatives, [1.0, 3.0, 0.0, 4.0])

    def test_headerless_file(self):
        tg = TimeGrid(1.0, 2)
        series = measurement_from_csv("0,1,2\n0.5,2,3\n1,3,4\n", tg)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(series.derivatives, [3.0, 4.0])
        assert series.initial_derivative == 2.0

    def test_blank_first_time_is_a_data_row(self):
        # named by its data row, as a blank t in a later row is; not a header
        tg = TimeGrid(1.0, 2)
        with pytest.raises(ValidationError, match="data row 1: '' is not a number"):
            measurement_from_csv(",1,2\n0.5,2,3\n1,3,4\n", tg)
        with pytest.raises(ValidationError, match="data row 2: ' ' is not a number"):
            measurement_from_csv("0,1,2\n ,2,3\n1,3,4\n", tg)

    def test_time_mismatch(self):
        tg = TimeGrid(1.0, 2)
        with pytest.raises(ValidationError):
            measurement_from_csv("t,m\n0,1\n0.4,2\n1,3\n", tg)

    def test_row_count_mismatch(self):
        tg = TimeGrid(1.0, 3)
        with pytest.raises(ValidationError):
            measurement_from_csv("t,m\n0,1\n0.5,2\n1,3\n", tg)


def test_zero_preset_is_all_zero():
    spec = make_preset("zero1d")
    env = {"x": 0.3, "t": 0.7, "u": 0.0, "p": 0.0, "q": 0.0}
    assert expr.evaluate(spec.f, env) == 0.0
    assert expr.evaluate(spec.u0, {"x": 0.3}) == 0.0
    assert expr.evaluate(spec.m_exact, {"t": 0.7}) == 0.0
    assert expr.evaluate(spec.h, {"x": 0.1, "t": 0.2}) == 1.0
