from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernrec import expr, forward, problem
from kernrec.errors import DomainFaultError, ValidationError
from kernrec.forward import TimeStepper, _convolution_values, run_forward
from kernrec.grid import SpatialGrid
from kernrec.inverse import reconstruct
from kernrec.problem import MeasurementSeries, ProblemSpec, TimeGrid, make_preset


def _spec(f="0", h="0", g="0", u0="0", T=1.0, omega=1.0, extents=(1.0,), **extra):
    return ProblemSpec(
        name="inline", extents=extents, T=T, omega_floor=omega,
        f=expr.parse(f), h=expr.parse(h), g=expr.parse(g), u0=expr.parse(u0),
        **{k: (expr.parse(v) if isinstance(v, str) else v) for k, v in extra.items()},
    )


def _manufactured_time_dependent():
    """manufactured1d with h and g that depend on t."""
    return replace(make_preset("manufactured1d"), h=expr.parse("1 + t"), g=expr.parse("t*x"))


def _time_dependent_with_state():
    """h and g of t as above, with an f that reads the state u."""
    return replace(_manufactured_time_dependent(), f=expr.parse("u*exp(-t) + cos(pi*x)"))


def _history(grid, timegrid, arrays):
    values = np.zeros((timegrid.n + 1, *grid.shape))
    for i, a in enumerate(arrays):
        values[i] = a
    return values


def _conv(kernel, states, i, tau):
    """``_convolution_values`` of one series, from its kernel and its states
    by step, as one field."""
    out = np.empty((1, states[0].size))
    _convolution_values(kernel[None], states.reshape(len(states), -1), i, tau, out)
    return out.reshape(states.shape[1:])


class TestConvolutionQuadrature:
    def test_single_term(self):
        grid = SpatialGrid((1.0,), (4,))
        tg = TimeGrid(1.0, 10)
        kernel = np.full(11, 2.0)
        u0 = np.full(grid.shape, 3.0)
        out = _conv(kernel, _history(grid, tg, [u0]), 1, tg.tau)
        np.testing.assert_allclose(out, 2.0 * 3.0 * tg.tau, rtol=1e-15)

    def test_three_terms_of_ones(self):
        grid = SpatialGrid((1.0,), (4,))
        tg = TimeGrid(1.0, 10)  # tau = 0.1
        states = _history(grid, tg, [np.ones(grid.shape)] * 3)
        out = _conv(np.ones(11), states, 3, tg.tau)
        np.testing.assert_allclose(out, 0.3, rtol=1e-14)

    def test_alternating_kernel_cancels(self):
        grid = SpatialGrid((1.0,), (2,))
        tg = TimeGrid(1.0, 2)  # tau = 0.5
        kernel = np.array([1.0, -1.0, 1.0])
        states = _history(grid, tg, [np.ones(grid.shape)] * 2)
        out = _conv(kernel, states, 2, tg.tau)
        np.testing.assert_allclose(out, 0.0, atol=1e-16)


class TestFastPathsAreBitIdentical:
    """The per-step reductions and the convolution equal their plain numpy forms."""

    @pytest.mark.parametrize("extents, cells", [((1.0,), (50,)), ((1.0, 2.0), (37, 23))])
    def test_means_equal_np_sum(self, extents, cells):
        spec = ProblemSpec(
            name="inline", extents=extents, T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse("1"), g=expr.parse("1e3*sin(37*x) + x^3"),
            u0=expr.parse("0"),
        )
        grid = spec.make_grid(*cells)
        stepper = TimeStepper(spec, grid, TimeGrid(1.0, 4))
        field = np.random.default_rng(3).standard_normal(grid.shape) * 1e3
        assert grid.integral(field) == float(np.sum(grid.weights * field))
        g = expr.sample(spec.g, grid.coordinate_fields(), grid.shape)
        assert stepper.initial_means()[1] == float(np.sum(grid.boundary_weights * g))

    @pytest.mark.parametrize("shape", [(51,), (8001,), (17, 12)])
    def test_convolution_equals_tensordot(self, shape):
        rng = np.random.default_rng(5)
        n, tau = 30, 0.01
        kernel = rng.standard_normal(n + 1)
        states = rng.standard_normal((n + 1, *shape))[::-1]  # newest-first, as in _march
        for i in (1, 2, 9, n):
            history = states[i - 1 :: -1]
            expected = np.tensordot(kernel[1 : i + 1], history, axes=([0], [0])) * tau
            out = _conv(kernel, states, i, tau)
            assert out.shape == shape
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize(
        "shape", [(51,), (2,), (17, 12), (9, 2)], ids=["1d", "1d-one-cell", "2d", "2d-one-cell"]
    )
    @pytest.mark.parametrize(
        "series", [None, 1, 3, 8], ids=["one", "stack-1", "stack-3", "stack-8"]
    )
    def test_stacked_product_equals_each_series_gemv(self, shape, series):
        # the operands as _march lays them out: one series without the
        # series axis, or a stack of them
        rng = np.random.default_rng(11)
        n, tau, rows = 30, 0.01, series or 1
        kernel = rng.standard_normal((rows, n + 1))
        states = np.empty((rows, n + 1, *shape))[:, ::-1]  # newest-first
        states[...] = rng.standard_normal(states.shape)
        out = np.empty((rows, 1, states[0, 0].size))
        if series is None:
            operands = kernel, states[0].reshape(n + 1, -1), out[0]
        else:
            operands = kernel[:, None], states.swapaxes(0, 1).reshape(n + 1, rows, -1), out
        k_rows, u_rows, conv_rows = operands
        for i in (1, 2, n):
            assert _convolution_values(k_rows, u_rows, i, tau, conv_rows) is conv_rows
            for r in range(rows):
                history = states[r, i - 1 :: -1]
                expected = kernel[r, 1 : i + 1] @ history.reshape(i, -1) * tau
                assert np.array_equal(out[r, 0], expected)


class TestForwardStep:
    def test_constants_are_steady_states(self):
        spec = _spec(u0="5", kernel_exact="0")
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(16)
        run = run_forward(spec, grid, tg)
        np.testing.assert_allclose(run.states, 5.0, atol=1e-12)

    def test_single_step_matches_run(self):
        self._check_single_step(make_preset("manufactured1d"))

    def test_single_step_matches_run_time_dependent(self):
        self._check_single_step(_manufactured_time_dependent())

    @staticmethod
    def _check_single_step(spec):
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(20)
        kernel = tg.sample(spec.kernel_exact)
        run = run_forward(spec, grid, tg)
        assert np.array_equal(run.kernel, kernel)
        states = run.states
        stepper = TimeStepper(spec, grid, tg)
        f0 = stepper.f_field(0.0, states[0])
        conv = _conv(kernel, states, 1, tg.tau)
        nodes = tg.nodes
        _, (h1, _), (g1_load, _) = next(stepper.coefficients(nodes[:-1], nodes[1:], states))
        u1 = stepper.step(kernel[1], states[0], f0, conv, h1, g1_load)
        np.testing.assert_array_equal(u1, states[1])

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid((1.0,), (0,))  # a single node cannot carry the scheme

    def test_first_order_in_time(self):
        spec = make_preset("manufactured1d")
        grid = spec.make_grid(200)
        errors = {}
        for n in (50, 100):
            tg = TimeGrid(1.0, n)
            run = run_forward(spec, grid, tg)
            exact = expr.evaluate(spec.u_exact, {**grid.coordinate_fields(), "t": 1.0})
            errors[n] = np.abs(run.states[-1] - exact).max()
        rate = np.log(errors[50] / errors[100]) / np.log(2.0)
        assert 0.7 <= rate <= 1.3

    def test_second_order_in_space(self):
        spec = make_preset("manufactured1d")
        errors = {}
        for cells in (8, 16):
            grid = spec.make_grid(cells)
            tg = TimeGrid(1.0, 3200)  # time error pushed below the spatial one
            run = run_forward(spec, grid, tg)
            exact = expr.evaluate(spec.u_exact, {**grid.coordinate_fields(), "t": 1.0})
            errors[cells] = np.abs(run.states[-1] - exact).max()
        rate = np.log(errors[8] / errors[16]) / np.log(2.0)
        assert 1.6 <= rate <= 2.5

    def test_compat_identity_everywhere(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 50)
        grid = spec.make_grid(100)
        run = run_forward(spec, grid, tg)
        assert run.compat_residuals.max() <= 1e-9

    def test_stability_under_step_refinement(self):
        # halving tau must not inflate the max state norm: it creeps up
        # toward ||u*(1)|| = 2 sqrt(3/2) from below but stays bounded
        spec = make_preset("manufactured1d")
        grid = spec.make_grid(100)

        def max_norm(n):
            tg = TimeGrid(1.0, n)
            run = run_forward(spec, grid, tg)
            w = grid.weights
            return max(float(np.sum(w * u * u)) for u in run.states) ** 0.5

        limit = 2.0 * np.sqrt(1.5)
        coarse, fine = max_norm(50), max_norm(100)
        assert fine <= coarse * 1.01
        assert max(coarse, fine) <= limit * 1.001


class TestOncePerStep:
    """f_{i-1}, h_i, g_i and conv_i are computed once per step and shared.

    A static h or g is evaluated once per stream of time nodes, at its
    first node.  A coefficient of t alone (h, g, and an f that reads no
    state) is evaluated once per block of time nodes; only an f that
    reads the state is evaluated at every step.  A reconstruction reads
    t_0 of f, h and g for K_0 on its own, one more node of each.
    """

    # 6 nodes per block on the 21 nodes of make_grid(20); n = 20 steps make
    # four blocks, the last one partial
    BLOCK_NODES = 6
    BLOCKS = 4

    @classmethod
    def _spy(cls, monkeypatch, spec):
        monkeypatch.setattr(problem, "BLOCK_VALUES", cls.BLOCK_NODES * 21)
        calls = {"f_field": 0, "f": 0, "h": 0, "g": 0, "conv": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(TimeStepper, "f_field", counted("f_field", TimeStepper.f_field))
        monkeypatch.setattr(
            forward, "_convolution_values", counted("conv", forward._convolution_values)
        )
        evaluate = expr.evaluate

        def evaluate_at_t(tree, env, *finite):
            # a compiled f, h or g evaluated at one t or a block of them
            if isinstance(tree, expr.Compiled) and "t" in env:
                for name in ("f", "h", "g"):
                    if tree.tree is getattr(spec, name):
                        calls[name] += 1
            return evaluate(tree, env, *finite)

        monkeypatch.setattr(expr, "evaluate", evaluate_at_t)
        return calls

    def _forward_calls(self, monkeypatch, spec, n):
        tg = TimeGrid(1.0, n)
        calls = self._spy(monkeypatch, spec)
        run_forward(spec, spec.make_grid(20), tg)
        return calls

    def _reconstruct_calls(self, monkeypatch, spec, n, count=None):
        """The calls of one reconstruction, or of a sequence of ``count``."""
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(20)
        series = run_forward(spec, grid, tg, derivative="discrete").measurement
        calls = self._spy(monkeypatch, spec)
        reconstruct(spec, grid, tg, series if count is None else [series] * count)
        return calls

    def test_run_forward(self, monkeypatch):
        n = 20
        calls = self._forward_calls(monkeypatch, make_preset("manufactured1d"), n)
        # f reads t and x only; static h and g are formed once, for the march
        assert calls == {"f_field": 0, "f": self.BLOCKS, "h": 1, "g": 1, "conv": n}

    def test_reconstruct(self, monkeypatch):
        n = 20
        calls = self._reconstruct_calls(monkeypatch, make_preset("manufactured1d"), n)
        # f_0 for K_0 is one node on its own; static h is formed once for the
        # floor check, initial_means and the march, static g for the last two
        assert calls == {"f_field": 0, "f": self.BLOCKS + 1, "h": 3, "g": 2, "conv": n}

    def test_run_forward_time_dependent(self, monkeypatch):
        n = 20
        calls = self._forward_calls(monkeypatch, _manufactured_time_dependent(), n)
        blocks = self.BLOCKS
        assert calls == {"f_field": 0, "f": blocks, "h": blocks, "g": blocks, "conv": n}

    def test_reconstruct_time_dependent(self, monkeypatch):
        n = 20
        calls = self._reconstruct_calls(monkeypatch, _manufactured_time_dependent(), n)
        # f_0, h_0 and g_0 for K_0 are one node each; the floor check walks
        # the 21 nodes of h in as many blocks as the march walks its 20
        blocks = self.BLOCKS
        assert calls == {
            "f_field": 0, "f": blocks + 1, "h": 2 * blocks + 1, "g": blocks + 1, "conv": n,
        }

    def test_run_forward_state_dependent(self, monkeypatch):
        n = 20
        calls = self._forward_calls(monkeypatch, _time_dependent_with_state(), n)
        blocks = self.BLOCKS
        assert calls == {"f_field": n, "f": n, "h": blocks, "g": blocks, "conv": n}

    def test_reconstruct_state_dependent(self, monkeypatch):
        n = 20
        calls = self._reconstruct_calls(monkeypatch, _time_dependent_with_state(), n)
        # one more f, h and g for K_0, and the floor check's blocks of h
        blocks = self.BLOCKS
        assert calls == {
            "f_field": n + 1, "f": n + 1, "h": 2 * blocks + 1, "g": blocks + 1, "conv": n,
        }

    @pytest.mark.parametrize("count", [1, 3])
    def test_sequence_state_dependent(self, monkeypatch, count):
        n = 20
        calls = self._reconstruct_calls(monkeypatch, _time_dependent_with_state(), n, count)
        # a sequence shares the set-up and each step's calls, conv included
        blocks = self.BLOCKS
        assert calls == {
            "f_field": n + 1, "f": n + 1, "h": 2 * blocks + 1, "g": blocks + 1, "conv": n,
        }


class TestBlockFaults:
    """A block that faults is evaluated node by node, so the fault surfaces
    at its own step, after the steps before it have run."""

    @pytest.mark.parametrize(
        "name, steps, cells",
        [("f", 5, (8,)), ("h", 4, (8,)), ("g", 4, (8,)),
         ("f", 5, (8, 5)), ("h", 4, (8, 5)), ("g", 4, (8, 5))],
        ids=["f-5", "h-4", "g-4", "f-5-2d", "h-4-2d", "g-4-2d"],
    )
    def test_fault_after_earlier_steps(self, name, steps, cells):
        # t = 0.5 is node 5; f is read at t_{i-1}, h and g at t_i; in 2D
        # (a 1 x 2 rectangle) t is bound as a (-1, 1, 1) column
        trees = {"f": "1", "h": "1", "g": "0", name: "2 + 1/(t - 0.5)"}
        extents = (1.0, 2.0)[: len(cells)]
        spec = replace(_spec(**trees, u0="0", kernel_exact="0"), extents=extents)
        tg = TimeGrid(1.0, 10)
        stepper = TimeStepper(spec, spec.make_grid(*cells), tg)
        seen = []
        with pytest.raises(DomainFaultError, match="division by zero"):
            forward._march(stepper, np.zeros((1, tg.n + 1)),
                           on_step=lambda i, r: seen.append(i))
        assert seen == list(range(1, steps + 1))

    def test_fault_in_f_traced_by_reconstruct(self):
        spec = _spec(f="1/(t - 0.5)", h="1", u0="0")
        tg = TimeGrid(1.0, 10)
        series = MeasurementSeries.from_expressions(tg, expr.parse("0"), expr.parse("0"))
        traced = []
        with pytest.raises(DomainFaultError, match=r"division by zero in .1.0/\(t - 0.5\)."):
            reconstruct(spec, spec.make_grid(8), tg, series,
                        trace=lambda i, *rest: traced.append(i))
        assert traced == [1, 2, 3, 4, 5]

    def test_state_fault_in_f_is_the_interpreters(self, monkeypatch):
        # M follows m = t, and u, uniform in x, with it: f reads u_9 = 0.9
        # at step 10, where exp(800*u) overflows.  f_field does not check
        # the u it passes again; the fault is the one the interpreter
        # alone raises: at its step in a march of one, and at once, before
        # any row, in a sequence.
        spec = _spec(f="0*exp(800*u)", h="1", u0="0")
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(8)
        series = MeasurementSeries.from_expressions(tg, expr.parse("t"), expr.parse("1"))

        def outcome(measurement):
            traced = []
            with pytest.raises(DomainFaultError) as fault:
                reconstruct(spec, grid, tg, measurement,
                            trace=lambda i, *rest: traced.append(i))
            return traced, str(fault.value)

        one, sweep = outcome(series), outcome([series, series])
        monkeypatch.setattr(expr, "_closure", lambda tree, fixed: None)
        assert one == outcome(series) == (list(range(1, 10)), "domain fault in 'exp(800.0*u)'")
        assert sweep == outcome([series, series]) == ([], one[1])


_BLOCK_TREES = {
    1: {"f": "sin(3*t)*cos(pi*x) + exp(-t)*x^2", "h": "1 + t*cos(pi*x)",
        "g": "t^2 - x + sqrt(1 + t)"},
    2: {"f": "exp(-t)*cos(pi*x)*cos(pi*y) + t*y", "h": "1 + t*x*y",
        "g": "t*x - (1 - t)*y^2"},
}


class TestBlockPairs:
    @settings(max_examples=40, deadline=None)
    @given(
        ndim=st.sampled_from([1, 2]),
        n=st.integers(1, 40),
        mx=st.integers(1, 30),
        my=st.integers(1, 12),
        rows=st.integers(1, 7),
        T=st.sampled_from([1.0, 0.3, 2.5]),
    )
    def test_blocks_equal_per_node_values(self, ndim, n, mx, my, rows, T):
        # several blocks of `rows` nodes each, the last one usually partial;
        # each pair equals the per-step f_field/mean and the interpreter's
        # h and w_Gamma g at that node, with np.sum's means, bit for bit
        trees = _BLOCK_TREES[ndim]
        spec = ProblemSpec(
            name="inline", extents=(1.0, 2.0)[:ndim], T=T, omega_floor=1.0,
            f=expr.parse(trees["f"]), h=expr.parse(trees["h"]), g=expr.parse(trees["g"]),
            u0=expr.parse("0"),
        )
        grid = spec.make_grid(mx, my if ndim == 2 else None)
        w, bw = grid.weights, grid.boundary_weights
        stepper = TimeStepper(spec, grid, TimeGrid(T, n))
        nodes = stepper.timegrid.nodes
        u = np.zeros(grid.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problem, "BLOCK_VALUES", rows * w.size)
            pairs = zip(nodes, stepper.coefficients(nodes, nodes, repeat(u)))
            for j, (t, (f_pair, h_pair, g_pair)) in enumerate(pairs):
                env = {**grid.coordinate_fields(), "t": t}
                f = stepper.f_field(t, u)
                assert np.array_equal(f_pair[0], f)
                assert f_pair[1] == float(np.sum(w * f))
                h = np.broadcast_to(expr.evaluate(spec.h, env), grid.shape)
                assert np.array_equal(h_pair[0], h)
                assert h_pair[1] == float(np.sum(w * h))
                g_load = bw * expr.evaluate(spec.g, env)
                assert np.array_equal(g_pair[0], g_load)
                assert g_pair[1] == float(np.sum(g_load))
            assert j == n


class TestDomain:
    """A grid that is not the problem's domain is rejected, naming both
    extents, before the floor check or any evaluation."""

    @pytest.mark.parametrize(
        "grid", [SpatialGrid((2.0,), (40,)), SpatialGrid((1.0, 1.0), (40, 40))],
        ids=["longer", "square"],
    )
    def test_reconstruct(self, grid):
        # h = 0 fails the floor check, and f faults at t = 0.5
        spec = _spec(f="1/(t - 0.5)", h="0")
        tg = TimeGrid(1.0, 20)
        with pytest.raises(ValidationError) as error:
            reconstruct(spec, grid, tg, MeasurementSeries(tg, np.zeros(tg.n + 1)))
        assert error.type is ValidationError
        assert str(error.value) == f"grid extents {grid.extents} are not the domain (1.0,)"

    def test_run_forward(self):
        # the kernel faults at t = 0.5 and u0 at x = 0.5, as on the spec's own grid
        spec = _spec(u0="1/(x - 0.5)", kernel_exact="1/(t - 0.5)")
        tg = TimeGrid(1.0, 20)
        with pytest.raises(DomainFaultError):
            run_forward(spec, spec.make_grid(8), tg)
        with pytest.raises(ValidationError) as error:
            run_forward(spec, SpatialGrid((1.0, 3.0), (8, 8)), tg)
        assert error.type is ValidationError
        assert str(error.value) == "grid extents (1.0, 3.0) are not the domain (1.0,)"


class TestGenerateMeasurement:
    def test_tracks_exact_measurement(self):
        spec = make_preset("manufactured1d")
        errs = {}
        for n, cells in ((100, 100), (200, 200)):
            tg = TimeGrid(1.0, n)
            run = run_forward(spec, spec.make_grid(cells), tg, derivative="discrete")
            series = run.measurement
            errs[n] = np.abs(series.values - (1.0 + tg.nodes)).max()
        assert errs[100] < 5e-3
        assert errs[100] / errs[200] > 1.5  # first-order decay

    def test_zero_data_gives_zero_exactly(self):
        spec = _spec(kernel_exact="0")
        tg = TimeGrid(1.0, 30)
        run = run_forward(spec, spec.make_grid(10), tg, derivative="discrete")
        series = run.measurement
        assert np.all(series.values == 0.0)

    def test_analytic_derivative_source(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 20)
        series = run_forward(spec, spec.make_grid(20), tg, derivative="analytic").measurement
        assert series.provenance == "analytic"
        np.testing.assert_allclose(series.derivatives, 1.0)
        assert series.initial_derivative == 1.0

    def test_discrete_initial_derivative_consistent(self):
        # the t=0 identity value lets a same-grid reconstruction pin K_0
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(20)
        series = run_forward(spec, grid, tg, derivative="discrete").measurement
        assert series.provenance == "discrete-difference"
        # (f_0,1) - (g_0,1) - K_0 (h_0,1) with f three equals 2 - 0 - 1 here
        assert abs(series.initial_derivative - 1.0) < 1e-12

    def test_restriction_requires_divisible_counts(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 100)
        series = run_forward(spec, spec.make_grid(20), tg, derivative="discrete").measurement
        with pytest.raises(ValidationError):
            series.restrict(TimeGrid(1.0, 33))

    def test_unknown_derivative_rejected(self):
        spec = make_preset("manufactured1d")
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValidationError, match="analytc"):
            run_forward(spec, spec.make_grid(10), tg, derivative="analytc")

    def test_requires_a_kernel(self):
        spec = _spec()
        with pytest.raises(ValidationError):
            run_forward(spec, spec.make_grid(4), TimeGrid(1.0, 4))

    @pytest.mark.parametrize("derivative", ["analytic", "discrete"])
    def test_builds_one_stepper(self, monkeypatch, derivative):
        # the t = 0 identity of the discrete m'(0) reuses the run's stepper
        built = []
        init = TimeStepper.__init__

        def spy(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(TimeStepper, "__init__", spy)
        spec = make_preset("manufactured1d")
        run = run_forward(spec, spec.make_grid(20), TimeGrid(1.0, 20), derivative=derivative)
        assert len(built) == 1
        expected = "analytic" if derivative == "analytic" else "discrete-difference"
        assert run.measurement.provenance == expected

    def test_initial_means_after_the_march_evaluate_one_node(self, monkeypatch):
        # f, h and g of t: the march evaluates f at t_0..t_3999 and h and g at
        # t_1..t_4000; m'(0) then reads t_0 of each, one node apiece, not a
        # fresh block of each
        spec = _manufactured_time_dependent()
        grid, tg = spec.make_grid(50), TimeGrid(spec.T, 4000)
        pairs = problem._pairs
        nodes = [0]

        def counting(compiled, t, grid, boundary):
            nodes[0] += len(t)
            return pairs(compiled, t, grid, boundary)

        monkeypatch.setattr(problem, "_pairs", counting)
        runs, evaluated = {}, {}
        for derivative in ("analytic", "discrete"):
            nodes[0] = 0
            runs[derivative] = run_forward(spec, grid, tg, derivative=derivative)
            evaluated[derivative] = nodes[0]
        assert evaluated == {"analytic": 12000, "discrete": 12003}
        # the lone nodes give the values the first blocks would
        f_mean, g_mean, h_mean = TimeStepper(spec, grid, tg).initial_means()
        run = runs["discrete"]
        expected = f_mean - g_mean - run.kernel[0] * h_mean
        assert run.measurement.initial_derivative == expected
        assert np.array_equal(run.measurement.values, runs["analytic"].measurement.values)

    def test_discrete_initial_derivative_is_the_identity(self):
        spec = _spec(f="1 + x*u", h="2 + cos(pi*x)", g="x", u0="1 + x^2",
                     kernel_exact="exp(-t)")
        tg = TimeGrid(1.0, 10)
        grid = spec.make_grid(12)
        run = run_forward(spec, grid, tg, derivative="discrete")
        f_mean, g_mean, h_mean = TimeStepper(spec, grid, tg).initial_means()
        expected = f_mean - g_mean - run.kernel[0] * h_mean
        assert run.measurement.initial_derivative == expected


class TestTwoDimensional:
    def test_constant_steady_state_2d(self):
        spec = ProblemSpec(
            name="flat2d", extents=(1.0, 1.0), T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse("0"), g=expr.parse("0"), u0=expr.parse("2"),
            kernel_exact=expr.parse("0"),
        )
        tg = TimeGrid(1.0, 5)
        grid = spec.make_grid(8, 8)
        run = run_forward(spec, grid, tg)
        np.testing.assert_allclose(run.states, 2.0, atol=1e-10)

    def test_manufactured_2d_compat(self):
        # x-only exact state carried over to the unit square
        spec = ProblemSpec(
            name="manufactured2d", extents=(1.0, 1.0), T=1.0, omega_floor=1.0,
            f=expr.parse("(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"),
            h=expr.parse("1"), g=expr.parse("0"), u0=expr.parse("1+cos(pi*x)"),
            kernel_exact=expr.parse("exp(-t)"),
            u_exact=expr.parse("(1+t)*(1+cos(pi*x))"),
        )
        tg = TimeGrid(1.0, 20)
        grid = spec.make_grid(24, 24)
        run = run_forward(spec, grid, tg)
        assert run.compat_residuals.max() <= 1e-9
        exact = expr.evaluate(spec.u_exact, {**grid.coordinate_fields(), "t": 1.0})
        assert np.abs(run.states[-1] - exact).max() < 0.1


class TestHistoryLayout:
    """States are stored newest-first, so each step's history is one block."""

    def test_history_contiguous_and_trajectory_in_forward_order(self, monkeypatch):
        spec = make_preset("manufactured1d")
        n = 20
        tg = TimeGrid(1.0, n)
        grid = spec.make_grid(20)
        series = MeasurementSeries.from_expressions(tg, spec.m_exact, spec.mprime_exact)
        seen = []

        def spy(kernel_values, state_values, i, tau, out):
            seen.append((i, state_values[i - 1 :: -1].flags.c_contiguous))
            return convolution(kernel_values, state_values, i, tau, out)

        convolution = forward._convolution_values
        monkeypatch.setattr(forward, "_convolution_values", spy)
        result = reconstruct(spec, grid, tg, series)
        assert seen == [(i, True) for i in range(1, n + 1)]

        values = result.states
        u0 = np.broadcast_to(expr.evaluate(spec.u0, grid.coordinate_fields()), grid.shape)
        assert np.array_equal(values[0], u0)
        coords = grid.coordinate_fields()
        for i, t in enumerate(tg.nodes):
            exact = expr.evaluate(spec.u_exact, {**coords, "t": t})
            assert np.abs(values[i] - exact).max() < 0.1


class TestCompiledFields:
    def test_fields_match_interpreter(self):
        # h and g depending on t are compiled once; each value is the
        # interpreter's bit for bit, and f reads one derivative per axis:
        # p on an interval, p and q on a rectangle
        for extents, f in [((1.0,), "u*exp(-t) + p*cos(pi*x)"),
                           ((1.0, 2.0), "u*exp(-t) - 0.5*p + 0.25*q*x + cos(pi*x)*cos(pi*y)")]:
            spec = _spec(f=f, h="1 + t*cos(pi*x)", g="t^2 - x", extents=extents)
            tg = TimeGrid(1.0, 4)
            grid = spec.make_grid(8, 5)
            stepper = TimeStepper(spec, grid, tg)
            u = np.linspace(-1.0, 2.0, grid.weights.size).reshape(grid.shape) ** 2
            derivatives = dict(zip("pq", forward.nodal_gradient(grid, u)))
            pairs = stepper.coefficients(tg.nodes, tg.nodes, repeat(u))
            for t, (_, (h_i, h_mean), (g_i, _)) in zip(tg.nodes, pairs, strict=True):
                env = {**grid.coordinate_fields(), "t": t, "u": u, **derivatives}
                h = expr.evaluate(spec.h, env)
                g_load = grid.boundary_weights * expr.evaluate(spec.g, env)
                assert np.array_equal(h_i, h)
                assert h_mean == float(np.sum(grid.weights * h))
                assert np.array_equal(g_i, g_load)
                assert np.array_equal(stepper.f_field(t, u), expr.evaluate(spec.f, env))

    @pytest.mark.parametrize("g", ["1 + x*y^2 - cos(pi*y)", "t*x + (1 - t)*y^2"],
                             ids=["static", "time-dependent"])
    def test_boundary_pair_2d(self, g):
        # the load and (g,1)_Gamma are one product w_Gamma g and its sum,
        # with the edge-trapezoid corner weights of a rectangle
        spec = ProblemSpec(
            name="inline", extents=(1.0, 2.0), T=1.0, omega_floor=1.0,
            f=expr.parse("0"), h=expr.parse("1"), g=expr.parse(g), u0=expr.parse("0"),
        )
        grid = spec.make_grid(13, 7)
        tg = TimeGrid(1.0, 4)
        stepper = TimeStepper(spec, grid, tg)
        g_pairs = [g for _, _, g in stepper.coefficients(tg.nodes, tg.nodes, repeat(stepper.u0))]
        for j in (0, 1, 4):
            env = {**grid.coordinate_fields(), "t": tg.nodes[j]}
            load = grid.boundary_weights * np.broadcast_to(
                expr.evaluate(spec.g, env), grid.shape
            )
            g_load, g_mean = g_pairs[j]
            assert np.array_equal(g_load, load)
            assert g_mean == np.add.reduce(load, axis=None)
