import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernrec
from kernrec import errors, harness
from kernrec.harness import (
    EOC_UNDEFINED,
    KERNEL_CSV_HEADER,
    MEASUREMENT_CSV_HEADER,
    NOISE_CSV_HEADER,
    TABLE_CSV_HEADER,
    csv_text,
    eoc_value,
    run_cli,
)
from kernrec.problem import (
    MeasurementSeries,
    TimeGrid,
    make_preset,
    measurement_from_csv,
    parse_config,
    spec_from_mapping,
)
from oracles import MANUFACTURED_2D

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

# the manufactured 2D problem with its kernel, without m and mprime
_MANUFACTURED_2D = "[problem]\n" + "".join(
    f'{key} = "{value}"\n' for key, value in MANUFACTURED_2D.items() if key not in ("m", "mprime")
)

MANUFACTURED_CONFIG = """
[problem]
f = "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"
h = "1"
g = "0"
u0 = "1+cos(pi*x)"
lx = 1.0
T = 1.0
omega = 1.0
m = "1+t"
mprime = "1"
"""
# the measurement m = 10 of a steady u0 = 10 with K = 0; m0 tau = 1 = (h,1)
# for n = 10 and the sum of the lumped weights of mx = 4 cells is exactly 1
_SECOND_LEVEL_FAULT = """
[problem]
f = "0"
h = "1"
g = "0"
u0 = "10"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "0"
m = "10"
mprime = "0"
"""

# manufactured1d with its kernel, but without m and mprime, so that a
# measurement file can give its measurement
_MANUFACTURED_WITHOUT_M = MANUFACTURED_CONFIG.replace(
    'm = "1+t"\nmprime = "1"\n', 'kernel = "exp(-t)"\n'
)


def _read(path):
    return path.read_text(encoding="utf-8")


class TestReconstructCommand:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "100",
             "--mx", "200", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == KERNEL_CSV_HEADER
        assert len(lines) - 1 == 101  # n+1 data rows
        last = lines[-1].split(",")
        assert abs(float(last[0]) - 1.0) < 1e-12
        assert float(last[3]) < 0.05  # abs_err column against exp(-t)

    def test_missing_problem_is_usage_error(self, capsys):
        code = run_cli(["reconstruct", "--n", "100"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_resolution_is_usage_error(self):
        assert run_cli(["reconstruct", "--preset", "manufactured1d", "--mx", "10"]) == 1

    def test_unknown_preset(self):
        assert run_cli(["reconstruct", "--preset", "nope", "--n", "10", "--mx", "10"]) == 1

    def test_zero_problem_outputs_zero_column(self, tmp_path):
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "zero1d", "--n", "50", "--mx", "50",
             "--out", str(out)]
        )
        assert code == 0
        for line in _read(out).strip().split("\n")[1:]:
            assert line.split(",")[1] == "0"

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["reconstruct", "--preset", "manufactured1d", "--n", "40", "--mx", "40"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_report_schema(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--json", str(report_path)]
        )
        assert code == 0
        report = json.loads(_read(report_path))
        assert report["mode"] == "reconstruct"
        assert set(report["diagnostics"]) == {
            "max_abs_kernel",
            "max_state_norm_sq",
            "grad_energy",
            "state_increment_sum_sq",
            "max_grad_norm_sq",
            "time_derivative_energy",
            "grad_increment_sum_sq",
            "laplacian_energy",
            "kernel_derivative_energy",
            "min_denominator_magnitude",
            "max_compat_residual",
        }
        assert report["threshold"]["passed"] is True
        assert "kernel_inf" in report["errors"]
        assert "total_seconds" in report["timings"]

    def test_trace_rows_on_stderr(self, capsys):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
             "--trace"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("step=") == 10
        assert "den=" in err and "resid=" in err

    def test_trace_rows_before_a_fault(self, tmp_path, capsys):
        # f is read at t_{i-1}: step 6 meets t = 0.5 and fails; steps 1..5
        # have printed their rows, residual included, by then
        config = tmp_path / "fault.ini"
        config.write_text(
            '[problem]\nf = "1/(t - 0.5)"\nh = "1"\ng = "0"\nu0 = "0"\n'
            'm = "0"\nmprime = "0"\nlx = 1.0\nT = 1.0\nomega = 1.0\n',
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(config), "--n", "10", "--mx", "8",
                        "--trace"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        rows = [line for line in lines if line.startswith("step=")]
        assert [row.split()[0] for row in rows] == [f"step={i}" for i in range(1, 6)]
        assert all(re.search(r"resid=\d\.\d{3}e[+-]\d+$", row) for row in rows)
        assert "division by zero" in lines[-1]

    def test_synthetic_data_path(self, tmp_path):
        # contaminant has no exact measurement: data must be generated
        # on a finer grid and restricted
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--preset", "contaminant", "--n", "50", "--mx", "40",
             "--fine-factor", "4", "--out", str(out)]
        )
        assert code == 0
        rows = _read(out).strip().split("\n")[1:]
        rec = np.array([float(r.split(",")[1]) for r in rows])
        ref = np.array([float(r.split(",")[2]) for r in rows])
        assert np.abs(rec - ref).max() < 0.1

    def test_seed_rejected_outside_noise_mode(self):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
             "--seed", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags,discretization", [(["--my", "10"], ""), ([], "my = 10\n")], ids=["flag", "key"]
    )
    def test_my_rejected_for_1d(self, tmp_path, capsys, flags, discretization):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[discretization]\n{discretization}",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10", *flags])
        assert code == 1
        assert "usage error: --my ([discretization] my) has no effect" in capsys.readouterr().err

    def test_zero_fine_factor_is_usage_error(self, capsys):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
             "--fine-factor", "0"]
        )
        assert code == 1
        assert "--fine-factor" in capsys.readouterr().err

    def test_zero_my_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "square.cfg"
        cfg.write_text(
            THRESHOLD_CONFIG.replace("lx = 1.0", "lx = 1.0\nly = 1.0")
            + "\n[discretization]\nn = 10\nmx = 4\nmy = 0\n",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "k.csv")])
        assert code == 1
        assert "--my" in capsys.readouterr().err


class TestThresholdGuard:
    def test_violation_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(THRESHOLD_CONFIG, encoding="utf-8")
        code = run_cli(
            ["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10"]
        )
        assert code == 3
        assert "validation failure" in capsys.readouterr().err

    def test_force_overrides(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(THRESHOLD_CONFIG, encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            code = run_cli(
                ["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10",
                 "--force"]
            )
        assert code == 0


class TestForwardCommand:
    def test_writes_measurement_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run_cli(
            ["forward", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--out", str(out), "--derivative", "discrete"]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == MEASUREMENT_CSV_HEADER
        assert len(lines) - 1 == 41
        m_last = float(lines[-1].split(",")[1])
        assert abs(m_last - 2.0) < 0.05

    @pytest.mark.parametrize(
        "problem,n,mx",
        [(_MANUFACTURED_WITHOUT_M, 40, 40), (_MANUFACTURED_2D, 20, 12)],
        ids=["1d", "2d"],
    )
    def test_measurement_file_feeds_reconstruct(self, tmp_path, problem, n, mx):
        # the file of a discrete forward run reconstructs, bit for bit, to
        # the kernel that roundtrip gets from the same data in memory
        data, plain, from_file = tmp_path / "m.csv", tmp_path / "p.cfg", tmp_path / "f.cfg"
        plain.write_text(problem, encoding="utf-8")
        from_file.write_text(problem + f'measurement_file = "{data}"\n', encoding="utf-8")
        grid = ["--n", str(n), "--mx", str(mx)]
        assert run_cli(["forward", "--config", str(plain), *grid, "--out", str(data),
                        "--derivative", "discrete"]) == 0
        kernels = {}
        for mode, cfg in (("roundtrip", plain), ("reconstruct", from_file)):
            out = tmp_path / f"{mode}.csv"
            assert run_cli([mode, "--config", str(cfg), *grid, "--out", str(out)]) == 0
            kernels[mode] = [row.split(",")[:2] for row in _read(out).splitlines()]
        assert kernels["reconstruct"] == kernels["roundtrip"]
        # the file's n is a convergence list's last, restricted to each level
        levels = f"{n // 4},{n // 2},{n}"
        assert run_cli(["convergence", "--config", str(from_file), "--n", levels,
                        "--mx", str(mx)]) == 0


class TestRoundtripCommand:
    def test_roundtrip_small_error(self, tmp_path):
        out = tmp_path / "k.csv"
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["roundtrip", "--preset", "manufactured1d", "--n", "50", "--mx", "50",
             "--out", str(out), "--json", str(report_path)]
        )
        assert code == 0
        rows = _read(out).strip().split("\n")[1:]
        abs_err = max(float(r.split(",")[3]) for r in rows)
        assert abs_err <= 1e-8
        report = json.loads(_read(report_path))
        assert report["roundtrip"]["kernel_max_error"] <= 1e-8
        assert report["roundtrip"]["state_max_error"] <= 1e-8


class TestConvergenceCommand:
    def test_table_and_eoc(self, tmp_path):
        out = tmp_path / "table.csv"
        report_path = tmp_path / "r.json"
        code = run_cli(
            ["convergence", "--preset", "manufactured1d", "--n", "25,50,100",
             "--mx", "100", "--out", str(out), "--json", str(report_path)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == TABLE_CSV_HEADER
        assert len(lines) - 1 == 3
        first_eoc = lines[1].split(",")[5]
        assert first_eoc == EOC_UNDEFINED
        later = [float(line.split(",")[5]) for line in lines[2:]]
        assert all(0.5 <= e <= 1.5 for e in later)
        report = json.loads(_read(report_path))
        assert len(report["rows"]) == 3
        assert report["rows"][1]["eoc"] is not None

    def test_single_row_has_no_eoc(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            ["convergence", "--preset", "manufactured1d", "--n", "20",
             "--mx", "40", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[5] == EOC_UNDEFINED

    def test_zero_errors_render_as_dash(self, tmp_path):
        # exact reconstruction of the zero problem: every error is 0,
        # so no EOC is defined anywhere in the table
        out = tmp_path / "table.csv"
        code = run_cli(
            ["convergence", "--preset", "zero1d", "--n", "10,20",
             "--mx", "10", "--out", str(out)]
        )
        assert code == 0
        for line in _read(out).strip().split("\n")[1:]:
            fields = line.split(",")
            assert float(fields[2]) == 0.0
            assert fields[5] == EOC_UNDEFINED

    def test_list_must_increase(self):
        code = run_cli(
            ["convergence", "--preset", "manufactured1d", "--n", "100,50",
             "--mx", "40"]
        )
        assert code == 1

    def test_list_rejected_outside_convergence(self):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "50,100", "--mx", "40"]
        )
        assert code == 1

    def test_convergence_restricts_the_measurement_file(self, tmp_path, capsys):
        data, cfg = tmp_path / "m.csv", tmp_path / "f.cfg"
        assert run_cli(["forward", "--preset", "manufactured1d", "--n", "200", "--mx", "20",
                        "--out", str(data)]) == 0
        cfg.write_text(_MANUFACTURED_WITHOUT_M + f'measurement_file = "{data}"\n',
                       encoding="utf-8")
        table = tmp_path / "t.csv"
        argv = ["convergence", "--config", str(cfg), "--mx", "20"]
        assert run_cli([*argv, "--n", "50,100,200", "--out", str(table)]) == 0
        eoc = [row.split(",")[-1] for row in _read(table).splitlines()[1:]]
        assert eoc[0] == EOC_UNDEFINED and all(0.9 < float(e) < 1.2 for e in eoc[1:])
        # every level restricts the file's 200 steps
        capsys.readouterr()
        assert run_cli([*argv, "--n", "30,200"]) == 3
        assert capsys.readouterr().err == (
            "kernrec: validation failure: "
            "--n entry 30 does not divide the measurement file's 200 steps\n"
        )

    @pytest.fixture
    def file_config(self, tmp_path):
        """A config whose measurement file has 20 steps."""
        data, cfg = tmp_path / "m.csv", tmp_path / "f.cfg"
        assert run_cli(["forward", "--preset", "manufactured1d", "--n", "20", "--mx", "10",
                        "--out", str(data)]) == 0
        cfg.write_text(_MANUFACTURED_WITHOUT_M + f'measurement_file = "{data}"\n',
                       encoding="utf-8")
        return cfg

    def test_convergence_parses_the_measurement_file_once(self, file_config, monkeypatch):
        parsed = []

        def spy(text, timegrid):
            parsed.append(timegrid.n)
            return measurement_from_csv(text, timegrid)

        monkeypatch.setattr(harness, "measurement_from_csv", spy)
        argv = ["convergence", "--config", str(file_config), "--n", "5,10,20", "--mx", "10"]
        assert run_cli(argv) == 0
        assert parsed == [20]

    @pytest.mark.parametrize(
        "levels,message",
        [("5,6,20", "--n entry 6 does not divide the measurement file's 20 steps"),
         ("5,10", "measurement file has 21 rows (20 steps), expected 11 for n = 10")],
        ids=["not-a-divisor", "last-is-not-the-file"],
    )
    def test_list_that_does_not_fit_the_file_fails_before_any_level(
        self, file_config, capsys, levels, message
    ):
        capsys.readouterr()
        argv = ["convergence", "--config", str(file_config), "--n", levels, "--mx", "10",
                "--trace"]
        assert run_cli(argv) == 3
        # no trace row: no level ran
        assert capsys.readouterr().err == f"kernrec: validation failure: {message}\n"


class TestNoiseSweep:
    # noisy data legitimately trips the K_0 consistency warning
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def test_reports_amplification(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run_cli(
            ["noise-sweep", "--preset", "manufactured1d", "--n", "50", "--mx", "50",
             "--noise", "0.0001,0.001", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = _read(out).strip().split("\n")
        assert lines[0] == NOISE_CSV_HEADER
        assert len(lines) - 1 == 2
        for line in lines[1:]:
            sigma, err_inf, amp = (float(v) for v in line.split(","))
            assert err_inf > 0 and amp == pytest.approx(err_inf / sigma)

    def test_deterministic_given_seed(self, tmp_path):
        argv = ["noise-sweep", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
                "--noise", "0.001", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "problem,n,mx",
        [("[problem]\npreset = manufactured1d\n", 40, 20),
         ("[problem]\npreset = contaminant\n", 40, 20),
         ("[problem]\npreset = contaminant\nv = 0.5\n", 40, 20),
         (_MANUFACTURED_2D, 10, 6)],
        ids=["manufactured1d", "contaminant", "contaminant-advection", "manufactured2d"],
    )
    def test_rows_carry_their_own_evidence(self, tmp_path, problem, n, mx):
        # each JSON row's evidence is that of a direct reconstruct call on the
        # same sigma and the same draws of the seeded generator, whether f
        # reads no state (manufactured), u (contaminant) or p (advection)
        cfg_path, report = tmp_path / "p.cfg", tmp_path / "r.json"
        cfg_path.write_text(problem, encoding="utf-8")
        argv = ["noise-sweep", "--config", str(cfg_path), "--n", str(n), "--mx", str(mx),
                "--noise", "1e-4,1e-3", "--seed", "5", "--json", str(report)]
        assert run_cli(argv) == 0
        rows = json.loads(_read(report))["rows"]
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = cfg.grids()
        base = harness.acquire_measurement(cfg, grid, tg)
        ref = harness.kernel_reference(cfg.spec, tg)
        rng = np.random.default_rng(5)
        for sigma, row in zip([1e-4, 1e-3], rows, strict=True):
            result = kernrec.reconstruct(cfg.spec, grid, tg, base.with_noise(sigma, rng))
            err = np.abs(result.kernel - ref)
            assert row["sigma"] == sigma
            assert row["err_inf"] == float(np.max(err))
            assert row["err_inf_after_0"] == float(np.max(err[1:]))
            assert row["max_compat_residual"] == float(np.max(result.compat_residuals))
            assert row["min_denominator_magnitude"] == float(
                np.min(np.abs(result.denominators))
            )

    def test_traced_sweep_prints_level_by_level(self, capsys):
        # the levels march together, but each one's K_0 warning, then its
        # trace rows, come after the level before it, as when reconstructed
        # one after another
        sigmas = [1e-4, 1e-3, 1e-2]
        argv = ["noise-sweep", "--preset", "contaminant", "--n", "20", "--mx", "10",
                "--noise", ",".join(map(repr, sigmas)), "--seed", "5", "--trace"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert harness.main(argv) == 0
        swept = capsys.readouterr().err
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = cfg.grids()
        base = harness.acquire_measurement(cfg, grid, tg)
        rng = np.random.default_rng(5)
        levels = []
        for sigma in sigmas:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kernrec.reconstruct(cfg.spec, grid, tg, base.with_noise(sigma, rng),
                                    trace=harness._trace_printer)
            warned = "".join(f"kernrec: warning: {w.message}\n" for w in caught)
            levels.append(warned + capsys.readouterr().err)
        assert swept == "".join(levels)
        # a later level warns after the rows of the first
        assert "kernrec: warning" in swept[swept.index("step=20 "):]

    def test_fault_in_a_later_level_comes_after_the_levels_before_it(self, tmp_path, capsys):
        # with the minus sign, (h,1) - m0 tau = 1 - 10 * 0.1 is exactly 0: the
        # second level's noise is too small to move m0, so its first update
        # divides by 0; the first level's moves m0 and reconstructs
        cfg = tmp_path / "p.cfg"
        cfg.write_text(_SECOND_LEVEL_FAULT, encoding="utf-8")
        argv = ["noise-sweep", "--config", str(cfg), "--n", "10", "--mx", "4",
                "--noise", "0.1,1e-300", "--seed", "1", "--force",
                "--kernel-denominator-sign", "minus", "--trace"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = harness.main(argv)
        swept = capsys.readouterr().err
        assert code == harness.EXIT_NUMERICAL
        config = harness.resolve_config(harness.build_parser().parse_args(argv))
        grid, tg = config.grids()
        base = harness.acquire_measurement(config, grid, tg)
        rng = np.random.default_rng(1)
        first, second = (base.with_noise(sigma, rng) for sigma in (0.1, 1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = harness._print_warning
            kernrec.reconstruct(config.spec, grid, tg, first, force=True,
                                denominator_sign=-1.0, trace=harness._trace_printer)
            with pytest.raises(errors.SingularUpdateError) as fault:
                kernrec.reconstruct(config.spec, grid, tg, second, force=True,
                                    denominator_sign=-1.0, trace=harness._trace_printer)
        expected = capsys.readouterr().err + f"kernrec: numerical failure: {fault.value}\n"
        assert swept == expected
        assert swept.count("step=") == 10  # the first level's rows, and none of the second's
        assert swept.endswith(
            "kernrec: numerical failure: kernel-update denominator 0.000e+00 below 1e-12 "
            "at step 1\n"
        )

    def test_failed_draw_ends_the_sweep_after_the_levels_before_it(self, capsys):
        # the second level's samples overflow: the first level's rows, then
        # the draw's failure, as when the levels run one after another
        argv = ["noise-sweep", "--preset", "manufactured1d", "--n", "10", "--mx", "8",
                "--noise", "1e-3,1e308", "--seed", "2", "--trace"]
        assert run_cli(argv) == harness.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in err[:-1]] == [f"step={i}" for i in range(1, 11)]
        assert err[-1] == ("kernrec: validation failure: noise of sigma = 1e+308 made the "
                           "measurement samples overflow")

    def test_seed_required(self):
        code = run_cli(
            ["noise-sweep", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--noise", "0.001"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags,experiment", [(["--seed", "-1"], ""), ([], "seed = -3\n")], ids=["cli", "config"]
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, flags, experiment):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[experiment]\n{experiment}",
            encoding="utf-8",
        )
        code = run_cli(["noise-sweep", "--config", str(cfg), "--n", "10", "--mx", "10",
                        "--noise", "1e-3", *flags])
        assert code == 1
        assert "usage error: --seed" in capsys.readouterr().err


# manufactured1d's exact m without its m'
_M_WITHOUT_MPRIME = (
    'f = "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"\n'
    'h = "1"\ng = "0"\nu0 = "1+cos(pi*x)"\nlx = 1.0\nT = 1.0\nomega = 1.0\nm = "1+t"\n'
)


class TestConfigHandling:
    def test_mode_mismatch(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\npreset = manufactured1d\n\n[experiment]\nmode = forward\n",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"])
        assert code == 1

    def test_discretization_from_config(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\npreset = manufactured1d\n\n"
            "[discretization]\nn = 20\nmx = 20\n",
            encoding="utf-8",
        )
        assert run_cli(["reconstruct", "--config", str(cfg)]) == 0

    def test_missing_config_file(self):
        assert run_cli(["reconstruct", "--config", "/does/not/exist.cfg",
                        "--n", "10", "--mx", "10"]) == 1

    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_denominator_sign_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\npreset = manufactured1d\n\n"
            "[experiment]\nkernel_denominator_sign = plsu\n",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"])
        assert code == 1
        assert "plsu" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["force", "trace"])
    def test_bad_boolean_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[experiment]\n{key} = ture\n",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"])
        assert code == 1
        assert "ture" in capsys.readouterr().err

    def test_unparsable_number_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[problem]\npreset = manufactured1d\n\n[discretization]\nn = 10\nmx = abc\n",
            encoding="utf-8",
        )
        assert run_cli(["reconstruct", "--config", str(cfg)]) == 1
        assert "mx = 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,section,key",
        [
            (MANUFACTURED_CONFIG + "assume_f_bounded = true\n", "problem", "assume_f_bounded"),
            (MANUFACTURED_CONFIG + "lxx = 2\n", "problem", "lxx"),
            ("[problem]\npreset = manufactured1d\nh = \"2\"\n", "problem", "h"),
            ("[problem]\npreset = manufactured1d\nkr = 2\n", "problem", "kr"),
            ("[problem]\npreset = zero1d\n\n[discretization]\nnn = 10\n",
             "discretization", "nn"),
            ("[problem]\npreset = contaminant\n\n[experiment]\nfine_facter = 1\n",
             "experiment", "fine_facter"),
        ],
        ids=["inline-removed", "inline-typo", "preset-inline-key", "preset-other-param",
             "discretization", "experiment"],
    )
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, text, section, key):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text, encoding="utf-8")
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10",
                        "--out", str(tmp_path / "k.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f"[{section}]" in err

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[problem]\npreset = manufactured1d\nT = 1\nT = 2\n", encoding="utf-8")
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"])
        assert code == 1
        assert "'T' repeated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,flags",
        [
            (MANUFACTURED_CONFIG.replace("omega = 1.0", "omega = nan"), []),
            (MANUFACTURED_CONFIG.replace("omega = 1.0", "omega = inf"), []),
            (MANUFACTURED_CONFIG.replace("T = 1.0", "T = inf"), []),
            (MANUFACTURED_CONFIG.replace("lx = 1.0", "lx = nan"), []),
            (MANUFACTURED_CONFIG.replace("lx = 1.0", "lx = 1.0\nly = inf"), []),
            ("[problem]\npreset = manufactured1d\nomega = nan\n", []),
            ("[problem]\npreset = contaminant\nkr = nan\n", []),
            ("[problem]\npreset = contaminant\ns0 = inf\n", []),
            (MANUFACTURED_CONFIG, ["--T", "nan"]),
            (MANUFACTURED_CONFIG, ["--T", "inf"]),
            # finite parameters whose derived coefficients overflow
            ("[problem]\npreset = contaminant\ns0 = 1e308\nkr = 1e-10\n", []),
            ("[problem]\npreset = contaminant\nrho_b = 1e300\nporosity = 1e-300\n", []),
            ("[problem]\npreset = contaminant\nkr = 1e200\n", []),
        ],
        ids=["omega-nan", "omega-inf", "T-inf", "lx-nan", "ly-inf", "preset-omega-nan",
             "kr-nan", "s0-inf", "cli-T-nan", "cli-T-inf", "contaminant-h-overflow",
             "contaminant-rho_b-over-porosity-overflow", "contaminant-kr-squared-overflow"],
    )
    def test_non_finite_problem_number_exits_3(self, tmp_path, capsys, text, flags):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text, encoding="utf-8")
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10",
                        "--out", str(tmp_path / "k.csv"), *flags])
        assert code == 3
        assert "validation failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", ["", "bogus = 1\n", "omega = 1\n"], ids=["alone", "unknown-key", "omega"]
    )
    def test_contaminant_zero_h_exits_3(self, tmp_path, capsys, extra):
        # s0 = 0 gives h = -0.0: one message whatever else the section holds
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"[problem]\npreset = contaminant\ns0 = 0\n{extra}", encoding="utf-8")
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "4"])
        assert code == 3
        assert capsys.readouterr().err == (
            "kernrec: validation failure: contaminant h = -s0/(kr kd) is zero (-0.0), "
            "which leaves no positive floor\n"
        )

    @pytest.mark.parametrize("key", ["", "T = 2.0\n", "T = abc\n"], ids=["none", "other", "bad"])
    def test_T_flag_is_the_problem_T(self, tmp_path, key):
        # --T stands in for a missing [problem] T, and wins over a given one unparsed
        cfg, out = tmp_path / "p.cfg", tmp_path / "k.csv"
        cfg.write_text(MANUFACTURED_CONFIG.replace("T = 1.0\n", key), encoding="utf-8")
        argv = ["reconstruct", "--config", str(cfg), "--n", "4", "--mx", "8", "--out", str(out)]
        assert run_cli([*argv, "--T", "1"]) == 0
        flagged = _read(out)
        cfg.write_text(MANUFACTURED_CONFIG, encoding="utf-8")
        assert run_cli(argv) == 0
        assert flagged == _read(out)

    @pytest.mark.parametrize(
        "argv, config, code, message",
        [(["reconstruct", "--preset", "manufactured1d", "--n", ""], "", 1,
          "usage error: no time resolution given (use --n)"),
         (["reconstruct", "--preset", "contaminant", "--fine-factor", "0"], "", 1,
          "usage error: --fine-factor must be >= 1"),
         (["noise-sweep", "--preset", "manufactured1d", "--seed", "1"], "", 1,
          "usage error: noise-sweep requires --noise SIGMA[,SIGMA...]"),
         (["noise-sweep", "--preset", "manufactured1d", "--noise", "1e-3"], "", 1,
          "usage error: noise-sweep requires --seed"),
         (["reconstruct"], '[problem]\npreset = contaminant\nmeasurement_file = "{tmp}/m.csv"\n',
          1, "usage error: cannot read measurement file {tmp}/m.csv: "
          "[Errno 2] No such file or directory: '{tmp}/m.csv'"),
         (["reconstruct"], MANUFACTURED_CONFIG.replace('m = "1+t"\nmprime = "1"\n', ""), 1,
          "usage error: problem has no measurement source "
          "(exact m, measurement_file, or exact kernel)"),
         (["reconstruct"], "n = 5\n[problem]\npreset = contaminant\n", 1,
          "usage error: key outside any section on line 1"),
         (["reconstruct"], "[problem]\npreset = contaminant\nporosity = 0\n", 3,
          "validation failure: porosity must be positive, got 0.0"),
         (["reconstruct"], MANUFACTURED_CONFIG.replace('h = "1"', 'h = "1e-13"')
          .replace("omega = 1.0", "omega = 1e-13").replace('m = "1+t"', 'm = "0"'), 2,
          "numerical failure: (h(0),1) = 1.000e-13 too small to define the initial kernel value")],
        ids=["empty-n", "zero-fine-factor", "sweep-without-noise", "sweep-without-seed",
             "missing-measurement-file", "no-measurement-source", "key-outside-section",
             "zero-porosity", "h0-below-threshold"],
    )
    def test_error_path_prints_its_line(self, tmp_path, capsys, argv, config, code, message):
        if config:
            cfg = tmp_path / "p.cfg"
            cfg.write_text(config.format(tmp=tmp_path), encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        argv = [*argv, "--mx", "8"] + ([] if "--n" in argv else ["--n", "10"])
        assert run_cli(argv) == code
        assert capsys.readouterr().err == f"kernrec: {message.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize(
        "argv, config, message",
        [(["forward", "--preset", "contaminant", "--n", "2", "--T", "5e-324"], "",
          "time step tau = T/n = 4.94066e-324/2 = 0 has no finite 1/tau"),
         (["forward", "--preset", "contaminant", "--n", "3", "--T", "1e-323"], "",
          "time step tau = T/n = 9.88131e-324/3 = 4.94066e-324 has no finite 1/tau"),
         (["roundtrip", "--n", "4"], _MANUFACTURED_WITHOUT_M.replace("lx = 1.0", "lx = 1e300"),
          "cell size dx = lx/mx = 1e+300/2: its square overflows"),
         (["roundtrip", "--n", "4"], _MANUFACTURED_WITHOUT_M.replace("lx = 1.0", "lx = 1e-200"),
          "cell size dx = lx/mx = 1e-200/2: its square underflows"),
         (["roundtrip", "--n", "4"], _MANUFACTURED_2D.replace('ly = "1.0"', 'ly = "1e-200"'),
          "cell size dy = ly/my = 1e-200/2: its square underflows"),
         (["forward", "--preset", "manufactured1d", "--n", "10", "--T", "1e-307"], "",
          "the step's operator overflows for tau = 1e-308, dx = 0.5"),
         (["reconstruct", "--preset", "manufactured1d", "--n", "10", "--T", "1e-307"], "",
          "the step's operator overflows for tau = 1e-308, dx = 0.5"),
         (["roundtrip", "--n", "4"],
          _MANUFACTURED_2D.replace('lx = "1.0"', 'lx = "2e-154"')
          .replace('ly = "1.0"', 'ly = "2e-154"'),
          "the step's operator overflows for tau = 0.25, dx = 1e-154, dy = 1e-154")],
        ids=["tau-zero", "tau-reciprocal-overflows", "dx-square-overflows",
             "dx-square-underflows", "dy-square-underflows", "forward-step-operator-overflows",
             "reconstruct-step-operator-overflows", "stencil-overflows"],
    )
    def test_step_or_cell_out_of_range_is_validation_failure(
        self, tmp_path, capsys, argv, config, message
    ):
        # 1/tau and 1/dx^2 enter the step's operator: each must be finite,
        # and so must the operator's eigenvalues
        if config:
            cfg = tmp_path / "p.cfg"
            cfg.write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        assert harness.main([*argv, "--mx", "2"]) == harness.EXIT_VALIDATION
        assert capsys.readouterr().err == f"kernrec: validation failure: {message}\n"

    def test_deep_nesting_is_usage_error(self, tmp_path):
        deep = "(" * 3000 + "0" + ")" * 3000
        cfg = tmp_path / "p.cfg"
        cfg.write_text(MANUFACTURED_CONFIG.replace('g = "0"', f'g = "{deep}"'), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
             "--n", "10", "--mx", "10"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert "usage error: [g] cannot parse expression" in proc.stderr
        assert "nested deeper" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flaw", ["byte-order mark", "latin-1 byte"])
    @pytest.mark.parametrize("target", ["config", "measurement file"])
    def test_text_input_decodes_or_fails_in_one_line(self, tmp_path, capsys, target, flaw):
        data, cfg = tmp_path / "m.csv", tmp_path / "p.cfg"
        cfg.write_text(f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n',
                       encoding="utf-8")
        # headerless, so that a mark read as text would turn row 1 into a
        # header; m' = -2 gives the contaminant's K_0 = -1
        nodes = np.linspace(0.0, 1.0, 11).tolist()
        data.write_text("".join(f"{t!r},{1 - 2 * t!r}\n" for t in nodes), encoding="utf-8")
        argv = ["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"]
        clean, out = tmp_path / "clean.csv", tmp_path / "out.csv"
        assert run_cli([*argv, "--out", str(clean)]) == 0
        path = cfg if target == "config" else data
        raw = path.read_bytes()
        if flaw == "byte-order mark":
            path.write_bytes(b"\xef\xbb\xbf" + raw)
        else:  # a Latin-1 comment line
            path.write_bytes(raw + b"# caf\xe9\n")
        capsys.readouterr()
        code = run_cli([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        if flaw == "byte-order mark":  # read past, as if it were not there
            assert (code, err) == (0, "")
            assert _read(out) == _read(clean)
        else:
            assert code == 1 and not out.exists()
            assert err == (f"kernrec: usage error: cannot read {target} {path}: 'utf-8' codec "
                           f"can't decode byte 0xe9 in position {len(raw) + 5}: "
                           "invalid continuation byte\n")

    @pytest.mark.parametrize(
        "mode,preset",
        [("reconstruct", "manufactured1d"), ("forward", "contaminant"),
         ("roundtrip", "contaminant")],
        ids=["exact-m", "forward", "roundtrip"],
    )
    def test_unread_measurement_file_is_usage_error(self, tmp_path, capsys, mode, preset):
        # the file would be ignored: exact m wins, and these modes make their own data
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f'[problem]\npreset = {preset}\nmeasurement_file = "{tmp_path / "none.csv"}"\n',
            encoding="utf-8",
        )
        code = run_cli([mode, "--config", str(cfg), "--n", "10", "--mx", "10",
                        "--out", str(tmp_path / "out.csv")])
        assert code == 1
        assert "usage error: [measurement_file]" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("source", ["cli", "config"])
    @pytest.mark.parametrize(
        "mode,preset,flags,option",
        [("roundtrip", "manufactured1d", ["--derivative", "analytic"], "derivative = analytic"),
         ("roundtrip", "contaminant", ["--fine-factor", "3"], "fine_factor = 3"),
         ("forward", "contaminant", ["--fine-factor", "7"], "fine_factor = 7"),
         ("forward", "contaminant", ["--force"], "force = true"),
         ("forward", "contaminant", ["--trace"], "trace = true"),
         ("forward", "contaminant", ["--kernel-denominator-sign", "minus"],
          "kernel_denominator_sign = minus"),
         ("reconstruct", "manufactured1d", ["--fine-factor", "3"], "fine_factor = 3"),
         ("reconstruct", "file", ["--fine-factor", "3"], "fine_factor = 3"),
         ("noise-sweep", "manufactured1d", ["--derivative", "analytic"],
          "derivative = analytic"),
         ("noise-sweep", "contaminant", ["--derivative", "discrete"], "derivative = discrete"),
         ("reconstruct", "file", ["--derivative", "discrete"], "derivative = discrete"),
         ("convergence", "file", ["--derivative", "discrete"], "derivative = discrete")],
        ids=["roundtrip-derivative", "roundtrip-fine-factor", "forward-fine-factor",
             "forward-force", "forward-trace", "forward-denominator-sign",
             "exact-m-fine-factor", "measurement-file-fine-factor", "noise-sweep-derivative",
             "noise-sweep-derivative-discrete", "measurement-file-derivative",
             "measurement-file-derivative-convergence"],
    )
    def test_option_the_mode_ignores_is_usage_error(
        self, tmp_path, capsys, mode, preset, flags, option, source
    ):
        # the run would not use the option, so it must not be echoed as applied
        problem = f"preset = {preset}\n"
        if preset == "file":
            data = tmp_path / "m.csv"
            assert run_cli(["forward", "--preset", "contaminant", "--n", "10", "--mx", "10",
                            "--out", str(data)]) == 0
            problem = f'preset = contaminant\nmeasurement_file = "{data}"\n'
        experiment = option + "\n" if source == "config" else ""
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"[problem]\n{problem}\n[experiment]\n{experiment}", encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = [mode, "--config", str(cfg), "--n", "10", "--mx", "10", "--out", str(out)]
        code = run_cli(argv + (flags if source == "cli" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert f"usage error: {flags[0]} ([experiment] {option.split()[0]}) has no effect" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,experiment",
        [(["--noise", ""], ""), (["--noise", ","], ""), ([], "noise = ,\n")],
        ids=["flag-empty", "flag-comma", "key-comma"],
    )
    def test_empty_noise_list_outside_noise_sweep_is_usage_error(
        self, tmp_path, capsys, flags, experiment
    ):
        # an empty list is still a given option, which reconstruct does not use
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[experiment]\n{experiment}",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: --noise ([experiment] noise) has no effect in reconstruct mode" in err

    @pytest.mark.parametrize(
        "flags,experiment,named",
        [(["--out", ""], "", "--out ''"),
         (["--json", ""], "", "--json ''"),
         ([], 'out = ""\n', "[experiment] out = ''"),
         ([], "json =\n", "[experiment] json = ''")],
        ids=["out-flag", "json-flag", "out-key", "json-key"],
    )
    def test_empty_output_path_is_usage_error(self, tmp_path, capsys, flags, experiment, named):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[experiment]\n{experiment}",
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10", *flags])
        assert code == 1
        assert f"usage error: cannot parse {named}: an empty path" in capsys.readouterr().err

    _OUT, _JSON = "--out ([experiment] out)", "--json ([experiment] json)"
    _DATA = "[problem] measurement_file"

    @pytest.mark.parametrize(
        "flags,experiment,labels",
        [(["--out", "run.ini"], "", (_OUT, "--config")),
         (["--json", "run.ini"], "", (_JSON, "--config")),
         ([], 'out = "run.ini"\n', (_OUT, "--config")),
         (["--out", "link.ini"], "", (_OUT, "--config")),
         (["--out", "x", "--json", "sub/../x"], "", (_OUT, _JSON)),
         (["--out", "x"], 'json = "x"\n', (_OUT, _JSON)),
         (["--out", "data.csv"], "", (_OUT, _DATA)),
         ([], 'json = "./data.csv"\n', (_JSON, _DATA))],
        ids=["out-config", "json-config", "out-key-config", "out-symlink-config",
             "out-json", "out-json-key", "out-measurement-file", "json-key-measurement-file"],
    )
    def test_output_naming_an_input_or_the_other_output_is_usage_error(
        self, tmp_path, monkeypatch, capsys, flags, experiment, labels
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["forward", "--preset", "contaminant", "--n", "10", "--mx", "10",
                        "--out", "data.csv"]) == 0
        data = _read(tmp_path / "data.csv")
        config = (
            '[problem]\npreset = contaminant\nmeasurement_file = "data.csv"\n\n'
            f"[experiment]\n{experiment}"
        )
        (tmp_path / "run.ini").write_text(config, encoding="utf-8")
        (tmp_path / "link.ini").symlink_to("run.ini")
        (tmp_path / "sub").mkdir()
        code = run_cli(["reconstruct", "--config", "run.ini", "--n", "10", "--mx", "10", *flags])
        assert code == 1
        first, second = labels
        assert f"usage error: {first} and {second} name the same file" in capsys.readouterr().err
        assert _read(tmp_path / "run.ini") == config
        assert _read(tmp_path / "data.csv") == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.ini", "run.ini", "sub"]

    @pytest.mark.parametrize("source", ["cli", "config"])
    @pytest.mark.parametrize(
        "mode,problem",
        [("reconstruct", "preset = contaminant"), ("forward", "preset = contaminant"),
         ("convergence", "preset = contaminant"), ("reconstruct", _M_WITHOUT_MPRIME)],
        ids=["generated-data", "forward", "convergence", "exact-m"],
    )
    def test_analytic_derivative_without_exact_mprime_is_usage_error(
        self, tmp_path, capsys, mode, problem, source
    ):
        # the run would difference M instead, while the echo said analytic
        experiment = "derivative = analytic\n" if source == "config" else ""
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"[problem]\n{problem}\n[experiment]\n{experiment}", encoding="utf-8")
        out = tmp_path / "out.csv"
        argv = [mode, "--config", str(cfg), "--n", "10", "--mx", "10", "--out", str(out)]
        code = run_cli(argv + (["--derivative", "analytic"] if source == "cli" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert "--derivative ([experiment] derivative) analytic needs an exact m'" in err
        assert not out.exists()
        # left to its default, the same run differences M and says so
        cfg.write_text(f"[problem]\n{problem}\n", encoding="utf-8")
        assert run_cli([*argv, "--json", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert report["config"]["derivative"] == "discrete"
        if mode != "convergence":
            source_of = report.get("measurement", report).get("derivative_source")
            assert source_of == "discrete-difference"

    def test_config_echo_states_what_the_run_used(self, tmp_path):
        # a t,m file leaves --derivative and --fine-factor unused; m' = -2
        # gives the contaminant's K_0 = -1
        data = tmp_path / "m#1.csv"
        nodes = np.linspace(0.0, 1.0, 11).tolist()
        data.write_text("t,m\n" + "".join(f"{t!r},{1 - 2 * t!r}\n" for t in nodes),
                        encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f'[problem]\npreset = contaminant  # comment\nmeasurement_file = "{data}"\n',
            encoding="utf-8",
        )
        report = tmp_path / "r.json"
        argv = ["--config", str(cfg), "--n", "10", "--mx", "10", "--json", str(report)]
        assert run_cli(["reconstruct", *argv]) == 0
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert (echo["derivative"], echo["fine_factor"]) == (None, None)
        assert (echo["force"], echo["denominator_sign"]) == (False, 1.0)
        assert echo["measurement_file"] == str(data)
        # a forward run reconstructs nothing and reads no file
        cfg.write_text("[problem]\npreset = contaminant\n", encoding="utf-8")
        assert run_cli(["forward", *argv]) == 0
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert (echo["derivative"], echo["fine_factor"]) == ("discrete", None)
        assert (echo["force"], echo["denominator_sign"], echo["measurement_file"]) == (
            None, None, None
        )

    @pytest.mark.parametrize(
        "rows,message",
        [(("t,m", "0,1", "{t},abc", "{T},1"),
          "measurement file data row 2: 'abc' is not a number"),
         (("t,m", "0,1", "{t}", "{T},1"),
          "measurement file data row 2 has 1 column(s), expected at least 2"),
         (("t,m", "0,1", "{t},1,7", "{T},1"), "measurement file data row 3 has no m' "
          "although other rows after the first carry one"),
         (("t,m,mprime", "0,1,nan", "{t},1,0", "{T},1,0"),
          "measurement contains non-finite values"),
         (("t,m,mprime", "0,1,inf", "{t},1,0", "{T},1,0"),
          "measurement contains non-finite values"),
         # a row with a blank t counts, so the file has one row too many
         (("t,m", "0,1", " ,99,99", "{t},1", "{T},1"),
          "measurement file has 4 rows (3 steps), expected 3 for n = 2"),
         (("t,m,mprime", "0,1.5,1,junk", "{t},1.5,1,junk", "{T},1.5,1,junk"),
          "measurement file data row 1 has a value after m'")],
        ids=["not-a-number", "missing-column", "partial-mprime", "nan-mprime0", "inf-mprime0",
             "blank-t-row", "fourth-value"],
    )
    def test_malformed_measurement_row_is_validation_failure(
        self, tmp_path, capsys, rows, message
    ):
        # rejected as the file is read: no step runs, so no trace row prints
        T = make_preset("contaminant").T
        data = tmp_path / "m.csv"
        text = "".join(row.format(t=repr(T / 2), T=repr(T)) + "\n" for row in rows)
        data.write_text(text, encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n',
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "2", "--mx", "4", "--trace",
                        "--out", str(tmp_path / "out.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"kernrec: validation failure: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "flags,experiment",
        [(["--noise", "nan"], ""), (["--noise", "1e-3,inf"], ""), ([], "noise = inf\n")],
        ids=["cli-nan", "cli-inf", "config-inf"],
    )
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, flags, experiment):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[experiment]\nseed = 1\n{experiment}",
            encoding="utf-8",
        )
        code = run_cli(["noise-sweep", "--config", str(cfg), "--n", "10", "--mx", "10",
                        *flags])
        assert code == 1
        assert "usage error: --noise" in capsys.readouterr().err

    def test_out_of_range_literal_is_usage_error(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(MANUFACTURED_CONFIG + 'kernel = "2e308*t"\n', encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
             "--n", "10", "--mx", "10"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert "usage error: [kernel] cannot parse expression" in proc.stderr
        assert "'2e308' is out of range (byte offset 0)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "mode,flags,discretization",
        [("reconstruct", ["--n", "0"], ""),
         ("reconstruct", ["--n", "-5"], ""),
         ("convergence", ["--n", "0,10"], ""),
         ("reconstruct", [], "n = 0\n")],
        ids=["cli-zero", "cli-negative", "convergence-list", "config-zero"],
    )
    def test_non_positive_n_is_usage_error(self, tmp_path, capsys, mode, flags, discretization):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f"[problem]\npreset = manufactured1d\n\n[discretization]\n{discretization}",
            encoding="utf-8",
        )
        code = run_cli([mode, "--config", str(cfg), "--mx", "10", *flags])
        assert code == 1
        assert "usage error: --n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,flags",
        [("forward", []), ("roundtrip", []), ("convergence", []),
         ("noise-sweep", ["--noise", "1e-3", "--seed", "1"])],
    )
    def test_mode_without_exact_kernel_is_usage_error(self, tmp_path, capsys, mode, flags):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(MANUFACTURED_CONFIG, encoding="utf-8")
        out = tmp_path / "out.csv"
        code = run_cli([mode, "--config", str(cfg), "--n", "10", "--mx", "10",
                        "--out", str(out), *flags])
        assert code == 1
        assert f"usage error: {mode} mode needs an exact kernel" in capsys.readouterr().err
        assert not out.exists()

    def test_config_is_validated_on_construction(self):
        # convergence_study and the mode runners rely on a validated config
        spec = replace(make_preset("contaminant"), kernel_exact=None)
        with pytest.raises(errors.UsageError, match="needs an exact kernel"):
            harness.ExperimentConfig(mode="convergence", spec=spec, n_list=[10, 20], mx=10)

    def test_force_from_config(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(THRESHOLD_CONFIG + "\n[experiment]\nforce = On\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            code = run_cli(["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10"])
        assert code == 0



# The expected option x mode matrix, written out here and not read from the
# harness, so that a wrong row of harness.OPTIONS fails the test below.
_ALL_MODES = ("forward", "reconstruct", "roundtrip", "convergence", "noise-sweep")
_RECONSTRUCTING = ("reconstruct", "roundtrip", "convergence", "noise-sweep")
# key: (section, text, ExperimentConfig field, value it arrives as, modes that use it)
_OPTION_MATRIX = {
    "n": ("discretization", "12", "n_list", [12], _ALL_MODES),
    "mx": ("discretization", "12", "mx", 12, _ALL_MODES),
    "my": ("discretization", "6", "my", 6, _ALL_MODES),
    "out": ("experiment", "k.csv", "out", "k.csv", _ALL_MODES),
    "json": ("experiment", "r.json", "json_path", "r.json", _ALL_MODES),
    "derivative": ("experiment", "discrete", "derivative", "discrete",
                   ("forward", "reconstruct", "convergence")),
    "fine_factor": ("experiment", "3", "fine_factor", 3,
                    ("reconstruct", "convergence", "noise-sweep")),
    "noise": ("experiment", "0.01,0.02", "noise_sigmas", [0.01, 0.02], ("noise-sweep",)),
    "seed": ("experiment", "5", "seed", 5, ("noise-sweep",)),
    "force": ("experiment", "true", "force", True, _RECONSTRUCTING),
    "trace": ("experiment", "true", "trace", True, _RECONSTRUCTING),
    "kernel_denominator_sign": ("experiment", "minus", "denominator_sign", -1.0,
                                _RECONSTRUCTING),
}

# 2D, with an exact kernel and no measurement: every mode accepts it and
# generates its data, so only the mode decides whether an option is used
_MATRIX_PROBLEM = """[problem]
f = "0"
h = "1"
g = "0"
u0 = "1"
lx = 1.0
ly = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
"""


@pytest.mark.parametrize("source", ["flag", "key"])
@pytest.mark.parametrize("mode", _ALL_MODES)
@pytest.mark.parametrize("key", list(_OPTION_MATRIX))
def test_option_mode_matrix(tmp_path, capsys, key, mode, source):
    section, text, field, value, used_by = _OPTION_MATRIX[key]
    flag = "--" + key.replace("_", "-")
    # what the mode needs besides the option under test
    needed = {"n": "4", "mx": "4"}
    if mode == "noise-sweep":
        needed.update(noise="0.001", seed="1")
    needed.pop(key, None)
    config = _MATRIX_PROBLEM
    argv = [mode, "--config", str(tmp_path / "p.cfg")]
    for name, given in needed.items():
        argv += [f"--{name}", given]
    if source == "key":
        config += f"\n[{section}]\n{key} = {text}\n"
    else:
        argv += [flag] if key in ("force", "trace") else [flag, text]
    (tmp_path / "p.cfg").write_text(config, encoding="utf-8")
    if mode in used_by:
        cfg = harness.resolve_config(harness.build_parser().parse_args(argv))
        assert getattr(cfg, field) == value
    else:
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag} ([{section}] {key}) has no effect in {mode} mode" in err


# Whole command lines through run_cli: a mode, a problem source, and each
# option unset, valid or invalid, given by its flag or by its config key.
_CLI_SOURCES = {  # name: [problem] section
    "manufactured1d": "preset = manufactured1d\n",
    "contaminant": "preset = contaminant\n",
    "zero1d": "preset = zero1d\n",
    "inline-2d": _MATRIX_PROBLEM.removeprefix("[problem]\n"),
    "inline-no-kernel": MANUFACTURED_CONFIG.removeprefix("\n[problem]\n"),
    # manufactured1d with its measurement read from a file the test writes
    "measurement-file": _M_WITHOUT_MPRIME.replace('m = "1+t"', 'kernel = "exp(-t)"')
    + 'measurement_file = "<measurement>"\n',
}
_MEASUREMENT_FILE = "m#1.csv"  # a quoted config value may hold a #
# the modes that read a measurement file; convergence, which restricts it
# to each level, first, as a draw favours the first entry
_FILE_MODES = ["convergence", "reconstruct", "noise-sweep"]
# a valid t,m[,mprime] file, or one with a malformed data row
_MEASUREMENT_KINDS = ["t,m,mprime", "t,m", "m not a number", "no m", "value after m'",
                      "one row short"]
# the report's config echo names these options' fields otherwise
_ECHO_KEYS = {"n_list": "n", "noise_sigmas": "noise"}
# what each source's problem gives: an exact m, an exact m' and a second axis
_SOURCE_DATA = {
    "manufactured1d": (True, True, False),
    "contaminant": (False, False, False),
    "zero1d": (True, True, False),
    "inline-2d": (False, False, True),
    "inline-no-kernel": (True, True, False),
    "measurement-file": (False, False, False),
}
# _FRESH is a new file in the run's directory, _MISSING one in a directory
# that does not exist; no size is large enough to need a capped address space
_FRESH, _MISSING = "<fresh>", "<missing>"
_OUTPUT_NAMES = {"out": "k.csv", "json": "r.json"}
_CLI_VALUES = {  # key: (valid texts, invalid texts)
    "n": (["4", "20", "5,10"], ["0", "-2", "x", "10,5", ""]),
    "mx": (["3", "10"], ["0", "-1", "1.5"]),
    "my": (["4"], ["0", "y"]),
    "out": ([_FRESH], [_MISSING, ""]),
    "json": ([_FRESH], [_MISSING, ""]),
    "derivative": (["analytic", "discrete"], ["both"]),
    "fine_factor": (["1", "2"], ["0", "two"]),
    "noise": (["1e-3", "1e-4,1e-3"], ["-1", "nan", ""]),
    "seed": (["7"], ["-1", "x"]),
    "force": (["true", "off"], ["maybe"]),
    "trace": (["true"], ["maybe"]),
    "kernel_denominator_sign": (["plus", "minus"], ["up"]),
}


def test_cli_values_cover_every_option():
    assert set(_CLI_VALUES) == {opt.key for opt in harness.OPTIONS}


def _measurement_text(kind: str, n: int, T: float, bad_row: int) -> str:
    """The samples of m = 1 + t and m' = 1 on n steps up to T, as ``kind`` says."""
    rows = [[repr(t), repr(1.0 + t), "1"] for t in np.linspace(0.0, T, n + 1).tolist()]
    if kind == "t,m":
        rows = [row[:2] for row in rows]
    elif kind == "m not a number":
        rows[bad_row][1] = "abc"
    elif kind == "no m":
        rows[bad_row] = rows[bad_row][:1]
    elif kind == "value after m'":
        rows[bad_row].append("2")
    elif kind == "one row short":
        del rows[bad_row]
    header = ["t", "m"] if kind == "t,m" else ["t", "m", "mprime"]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _echo_of_unset(key: str, mode: str, source: str, mx: int):
    """The config echo of an option left unset: its default where the run
    uses it, else None."""
    exact_m, exact_mprime, two_axes = _SOURCE_DATA[source]
    from_file = source == "measurement-file"
    if key == "my":
        return mx if two_axes else None
    if key == "derivative" and mode in ("forward", "reconstruct", "convergence") and not from_file:
        return "analytic" if exact_mprime else "discrete"
    if key == "fine_factor" and mode in ("reconstruct", "convergence", "noise-sweep"):
        return None if exact_m or from_file else 4
    if mode != "forward":
        return {"force": False, "kernel_denominator_sign": 1.0}.get(key)
    return None


# lines before a config line, and a comment after it
_DECORATIONS = st.tuples(
    st.sampled_from([[], [""], ["# a comment line"]]), st.sampled_from(["", "  # a comment"])
)


def _config_text(data, sections: dict[str, str], valid: bool) -> tuple[str, str | None]:
    """``sections`` as config text, with blank and comment lines and
    trailing comments drawn in, and now and then, unless ``valid``, one key
    line given twice.  Returns the text and, for a repeated key, the error
    that must name it."""
    twice = not valid and data.draw(
        st.sampled_from([False] * 5 + [True]), label="a key given twice"
    )
    lines, repeated = [], None
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for line in body.splitlines():
            before, comment = data.draw(_DECORATIONS, label="decoration")
            lines += [*before, line + comment]
            if twice and repeated is None and data.draw(st.booleans(), label=f"{line} twice"):
                lines.append(line)
                repeated = f"key '{line.split('=')[0].strip()}' repeated in [{name}]"
    return "\n".join(lines) + "\n", repeated


def _cli_option_text(data, opt, mode, broken, unused_too, file_run):
    """The text drawn for one option, or None to leave it unset.  In a
    ``file_run``, n is a list in convergence, whose levels restrict the
    file's rows at its last n, and one step count in the other modes."""
    needed = {"n", "mx"} | ({"noise", "seed"} if mode == "noise-sweep" else set())
    valid, invalid = _CLI_VALUES[opt.key]
    if file_run and opt.key == "n":
        valid = [text for text in valid if ("," in text) == (mode == "convergence")]
    if opt.key == broken:  # leaving out a value the run needs is invalid too
        choices = invalid + [None] if opt.key in needed else invalid
    elif opt.key in needed:
        choices = valid
    elif not unused_too and (mode not in opt.modes or opt.rule is not None):
        choices = [None]  # an option the problem's data may leave unused has a rule
    else:
        choices = valid + [None]
    return data.draw(st.sampled_from(choices), label=opt.key)


# noisy or forced runs warn, and pyproject turns a RuntimeWarning into an error
@pytest.mark.filterwarnings("ignore:initial kernel value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:running with tau:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_whole_command_lines(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("cli")
    source = data.draw(st.sampled_from(sorted(_CLI_SOURCES)), label="source")
    problem = _CLI_SOURCES[source]
    # most runs on a measurement file draw a valid file, a mode that reads
    # it and only valid options the run uses, so that the run can succeed
    file_run = source == "measurement-file" and data.draw(
        st.sampled_from([True] * 3 + [False]), label="a valid file run"
    )
    mode = data.draw(st.sampled_from(_FILE_MODES if file_run else _ALL_MODES), label="mode")
    # at most one invalid value, so that the run can get past the others
    broken, unused_too = None, False
    if not file_run:
        broken = data.draw(st.sampled_from([None] * 4 + ["T", *_CLI_VALUES]), label="invalid")
        unused_too = data.draw(
            st.sampled_from([False] * 3 + [True]), label="options it may not use"
        )
    argv = [mode]
    sections = {"problem": "", "discretization": "", "experiment": ""}
    if problem.startswith("preset") and data.draw(st.booleans(), label="--preset"):
        argv += ["--preset", source]
    else:
        sections["problem"] = problem
    horizon = data.draw(st.sampled_from(["nan", "-1"] if broken == "T" else [None, "0.5"]))
    if horizon is not None:
        argv += ["--T", horizon]
    outputs, tracing, stray, given = [], False, False, {}
    for opt in harness.OPTIONS:
        text = _cli_option_text(data, opt, mode, broken, unused_too, file_run)
        if text is None:
            continue
        if text in (_FRESH, _MISSING):
            path = work / ("missing" if text == _MISSING else "") / _OUTPUT_NAMES[opt.key]
            outputs.append(path)
            text = str(path)
        switch = opt.key in ("force", "trace") and opt.key != broken
        tracing |= opt.key == "trace" and switch
        if data.draw(st.booleans(), label=f"{opt.flag} by flag"):
            argv += [opt.flag] if switch else [opt.flag, text]
            text = "true" if switch else text
            # a switch's flag takes no value: the value is a stray argument
            stray |= opt.key in ("force", "trace") and not switch
        else:
            sections[opt.section] += f'{opt.key} = "{text}"\n'
        given[opt.key] = text
    kind = None
    if source == "measurement-file":
        kinds = _MEASUREMENT_KINDS[:2] if file_run else _MEASUREMENT_KINDS
        kind = data.draw(st.sampled_from(kinds), label="measurement file")
        # rows for T and the drawn n, a list's last, which convergence
        # restricts to each level; for n = 4 when n is not valid
        n = int(given["n"].split(",")[-1]) if broken != "n" else 4
        bad_row = data.draw(st.integers(0, n), label="malformed row")
        measurement = work / _MEASUREMENT_FILE
        measurement.write_text(
            _measurement_text(kind, n, 0.5 if horizon else 1.0, bad_row), encoding="utf-8"
        )
        sections["problem"] = problem.replace("<measurement>", str(measurement))
    repeated = None
    if any(sections.values()):
        config = work / "p.cfg"
        text, repeated = _config_text(data, sections, valid=file_run)
        config.write_text(text, encoding="utf-8")
        argv += ["--config", str(config)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    for line in err.getvalue().splitlines():
        assert line.startswith("kernrec: ") or (tracing and line.startswith("step="))
    if repeated and not stray:  # the config is read after the command line
        event("a key given twice")
        assert code == 1 and repeated in err.getvalue()
    if kind is not None:
        event(f"measurement file {kind!r}: exit {code}")
        assert code != 0 or kind in _MEASUREMENT_KINDS[:2]
    if file_run:
        assert code == 0, err.getvalue()
    for path in outputs:
        assert path.exists() == (code == 0)
    written = {p.name for p in work.iterdir()} - {"p.cfg", _MEASUREMENT_FILE}
    assert written == ({p.name for p in outputs if p.parent == work} if code == 0 else set())
    report = work / _OUTPUT_NAMES["json"]
    if report.exists():  # the config echo states the values the run used
        event("config echo checked" + (" with a measurement file" if kind else ""))
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        assert echo["mode"] == mode and echo["T"] == float(horizon or 1.0)  # every source's T
        assert echo["measurement_file"] == (None if kind is None else str(measurement))
        for opt in harness.OPTIONS:
            key = _ECHO_KEYS.get(opt.field, opt.field)
            if key not in echo:
                continue
            if opt.key in given:
                value = opt.cast(given[opt.key])
                assert echo[key] == (value[0] if key == "n" and mode != "convergence" else value)
            else:
                assert echo[key] == _echo_of_unset(opt.key, mode, source, int(given["mx"])), key


# valid [problem] sections that the fuzz below starts from
_CONFIG_BASES = [
    {"preset": "manufactured1d", "T": "1.0"},
    {"preset": "contaminant", "kr": "2", "s0": "0.5", "v": "0.25", "omega": "0.1"},
    {"name": '"inline"', "f": '"u*exp(-t) + cos(pi*x)*cos(pi*y)"', "h": '"1 + t*x"',
     "g": '"t*y"', "u0": '"1 + cos(pi*x)"', "lx": "1.0", "ly": "2.0", "T": "1.0",
     "omega": "1.0", "kernel": '"exp(-t)"', "m": '"1 + t"', "mprime": '"1"',
     "u_exact": '"(1+t)*x"'},
]
_CONFIG_KEYS = sorted(
    kernrec.problem._INLINE_KEYS | kernrec.problem._PRESET_KEYS
    | set().union(*kernrec.problem._PRESET_OPTIONS.values())
    | set().union(*harness._SECTION_KEYS.values()) | {"bogus"}
)
_CONFIG_FRAGMENTS = [
    "0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e999", "-0", "1e-320", "x", "y", "t", "u",
    "p", "q", "exp(-t)", "cos(pi*x)", "1/(t-0.5)", "log(x)", "sqrt(", ")", "+", "*", "^",
    "manufactured1d", "contaminant", "zero1d", "true", "plus", "reconstruct", '"', "#", "=", " ",
]
_CONFIG_VALUE = st.lists(st.sampled_from(_CONFIG_FRAGMENTS), max_size=4).map("".join)
_CONFIG_LINE = st.one_of(
    st.sampled_from(["[problem]", "[discretization]", "[experiment]", "[bogus]", "", "# note"]),
    st.builds(
        lambda key, sep, value, wrap: f"{key}{sep}{wrap[0]}{value}{wrap[1]}",
        st.sampled_from(_CONFIG_KEYS),
        st.sampled_from([" = ", "=", " "]),
        _CONFIG_VALUE,
        st.sampled_from([("", ""), ('"', '"'), ("", " # comment")]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_text_fuzz(data):
    # config text reaches a problem only through these two calls: whatever
    # the text, they may fail only with a kernrec error, which run_cli maps
    # to an exit code
    base = data.draw(st.sampled_from(_CONFIG_BASES), label="base")
    lines = []
    for key, value in base.items():  # most keys kept, some dropped or given a drawn value
        edit = data.draw(st.sampled_from(["keep"] * 8 + ["drop", "draw"]), label=key)
        if edit == "draw":
            value = data.draw(_CONFIG_VALUE, label=f"{key} value")
        if edit != "drop":
            lines.append(f"{key} = {value}")
    lines += data.draw(st.lists(_CONFIG_LINE, max_size=2), label="extra lines")
    text = "\n".join(["[problem]", *data.draw(st.permutations(lines), label="order")])
    try:
        spec_from_mapping(parse_config(text, harness._SECTION_KEYS)["problem"])
    except errors.KernrecError as exc:
        event(type(exc).__name__)
    else:
        event("accepted")


def test_eoc_value_edge_cases():
    assert eoc_value(0.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(1.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(float("nan"), 1.0, 0.1, 0.05) is None
    assert eoc_value(2.0, 1.0, 0.1, 0.05) == pytest.approx(1.0)


def test_table_csv_renders_dash_for_zero_errors(monkeypatch):
    rows = [
        {"n": 10, "tau": 0.1, "err_inf": 0.0, "err_l2": 0.0, "err_u": None, "eoc": None}
    ]
    monkeypatch.setattr(harness, "convergence_study", lambda cfg: rows)
    header, columns, report = harness.run_convergence_mode(None)
    assert report == {"rows": rows}
    text = csv_text(header, *columns)
    line = text.strip().split("\n")[1]
    assert line.endswith(EOC_UNDEFINED)
    assert line.split(",")[4] == ""


@pytest.mark.parametrize("with_out", [False, True])
def test_csv_formatted_only_for_out(monkeypatch, tmp_path, with_out):
    calls = []

    def spy(header, *columns):
        calls.append(header)
        return csv_text(header, *columns)

    monkeypatch.setattr(harness, "csv_text", spy)
    out = ["--out", str(tmp_path / "k.csv")] if with_out else []
    argv = ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
            "--json", str(tmp_path / "r.json"), *out]
    assert run_cli(argv) == 0
    assert calls == ([KERNEL_CSV_HEADER] if with_out else [])


def _fmt(x):
    return f"{x:.17g}"


def _row_by_row_kernel_csv(nodes, k_rec, k_ref):
    # the per-element writer that csv_text replaced
    fmt = _fmt
    lines = [KERNEL_CSV_HEADER]
    for i, t in enumerate(nodes):
        if k_ref is None:
            lines.append(f"{fmt(t)},{fmt(k_rec[i])},,")
        else:
            err = abs(k_rec[i] - k_ref[i])
            lines.append(f"{fmt(t)},{fmt(k_rec[i])},{fmt(k_ref[i])},{fmt(err)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_ref", [True, False])
def test_kernel_csv_equals_row_by_row_formatting(with_ref):
    rng = np.random.default_rng(11)
    nodes = np.linspace(0.0, 1.0, 201)
    k_rec = np.exp(-nodes) + rng.standard_normal(nodes.size) * 1e-5
    k_rec[3] = 0.0
    k_rec[4] = -1e-300
    k_ref = np.exp(-nodes) if with_ref else None
    # the columns the reconstruct and roundtrip runners pass
    blank = [None] * nodes.size
    refs = (k_ref, np.abs(k_rec - k_ref)) if with_ref else (blank, blank)
    assert csv_text(KERNEL_CSV_HEADER, nodes, k_rec, *refs) == _row_by_row_kernel_csv(
        nodes, k_rec, k_ref
    )


@pytest.mark.parametrize("initial", [0.25, None])
def test_measurement_csv_equals_row_by_row_formatting(initial):
    tg = TimeGrid(1.0, 100)
    values = 1.0 + tg.nodes + np.random.default_rng(12).standard_normal(101) * 1e-6
    series = MeasurementSeries(tg, values, None, initial)
    fmt = _fmt
    nodes = tg.nodes
    first = fmt(initial) if initial is not None else ""
    lines = [MEASUREMENT_CSV_HEADER, f"{fmt(nodes[0])},{fmt(values[0])},{first}"]
    for i in range(1, 101):
        lines.append(f"{fmt(nodes[i])},{fmt(values[i])},{fmt(series.derivatives[i - 1])}")
    # the columns the forward runner passes
    mprime = [series.initial_derivative, *series.derivatives.tolist()]
    text = csv_text(MEASUREMENT_CSV_HEADER, nodes, series.values, mprime)
    assert text == "\n".join(lines) + "\n"


# every exception class of kernrec.errors, plus OSError and MemoryError, and its exit code
_EXIT_CODES = [
    (errors.UsageError("bad flag"), 1),
    (errors.ConfigError("bad key", key="k"), 1),
    (errors.NumericalError("broke"), 2),
    (errors.SingularUpdateError("tiny denominator", step=1), 2),
    (errors.NonFiniteError("nan", step=1), 2),
    (errors.ExprError("bad expression"), 2),
    (errors.ExprSyntaxError("bad token", 0), 2),
    (errors.UnknownIdentifierError("zz", 0), 2),
    (errors.ArityError("sin", 1, 2, 0), 2),
    (errors.UnboundVariableError("x"), 2),
    (errors.DomainFaultError("log of non-positive value", "log(0)"), 2),
    (OSError("disk full"), 2),
    (MemoryError("Unable to allocate 7.28 TiB"), 2),
    (errors.ValidationError("bad data"), 3),
    (errors.FloorViolationError("below floor"), 3),
    (errors.StepThresholdError("tau too large"), 3),
    (errors.KernrecError("other"), 2),
]


@pytest.mark.parametrize(
    "exc,code", _EXIT_CODES, ids=[type(exc).__name__ for exc, _ in _EXIT_CODES]
)
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def runner(cfg):
        raise exc

    monkeypatch.setitem(harness._MODE_RUNNERS, "reconstruct", runner)
    assert run_cli(["reconstruct", "--preset", "zero1d", "--n", "10", "--mx", "10"]) == code
    assert str(exc) in capsys.readouterr().err


def test_exit_code_table_covers_every_error_class():
    # the table lists exactly the KernrecError classes that errors.py defines
    classes = {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.KernrecError)
        and obj.__module__ == errors.__name__
    }
    assert classes == {type(exc) for exc, _ in _EXIT_CODES} - {OSError, MemoryError}


def _readme_block(language: str) -> str:
    """The README's one fenced block in ``language``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(rf"```{language}\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_config_block_runs(tmp_path, monkeypatch):
    # as the README gives it: its out and json keys name files in the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(_readme_block("ini"), encoding="utf-8")
    assert run_cli(["reconstruct", "--config", str(cfg)]) == 0
    assert (tmp_path / "kernel.csv").is_file() and (tmp_path / "report.json").is_file()


def test_readme_python_block_runs(capsys):
    exec(_readme_block("python"), {})
    # it prints the kernel error, which the acceptance module bounds by 0.05
    assert 0.0 <= float(capsys.readouterr().out) < 0.05


def test_readme_preset_sections_are_the_presets():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```cfg\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    sections = [parse_config(textwrap.dedent(block))["problem"] for block in blocks]
    assert sorted(section["name"] for section in sections) == sorted(kernrec.problem.PRESETS)
    for section in sections:
        assert spec_from_mapping(section) == make_preset(section["name"])


def test_unwritable_output_exits_2(tmp_path):
    code = run_cli(
        ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
         "--out", str(tmp_path / "missing" / "k.csv")]
    )
    assert code == 2


@pytest.mark.parametrize("json_path", ["missing/r.json", "."], ids=["missing-dir", "directory"])
def test_failed_json_write_leaves_no_csv(tmp_path, monkeypatch, capsys, json_path):
    monkeypatch.chdir(tmp_path)
    code = run_cli(["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "4",
                    "--out", "k.csv", "--json", json_path])
    assert code == 2
    assert capsys.readouterr().err.startswith("kernrec: numerical failure: [Errno ")
    assert list(tmp_path.iterdir()) == []


class _FullDisk:
    """A file that takes the first bytes of a write and then fails, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("full", ["k.csv", "r.json"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, full):
    def open_on_full_disk(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _FullDisk(fh) if Path(path).name == full else fh

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "open", open_on_full_disk, raising=False)
    code = run_cli(["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "4",
                    "--out", "k.csv", "--json", "r.json"])
    assert code == 2
    full_disk = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"kernrec: numerical failure: {full_disk}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_an_output_link(tmp_path, monkeypatch):
    # only a regular file the run wrote is removed, never a link it wrote through
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.csv").symlink_to("target.csv")
    code = run_cli(["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "4",
                    "--out", "k.csv", "--json", "missing/r.json"])
    assert code == 2
    assert (tmp_path / "k.csv").is_symlink()
    assert (tmp_path / "target.csv").read_text(encoding="utf-8").startswith(KERNEL_CSV_HEADER)


def _child_env(**overrides):
    """Environment for a ``python -m kernrec.harness`` child process.

    Starts from this process's environment and puts the directory holding
    the imported ``kernrec`` package first on ``PYTHONPATH``, so the child
    runs the same code as the test session rather than another installed
    copy (or none at all, in a checkout that is not pip-installed).
    """
    env = dict(os.environ)
    src = str(Path(kernrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update(overrides)
    return env


def test_start_up_loads_no_module_a_run_may_not_need():
    # csv (a measurement file), numpy.fft (the first solve) and numpy.random
    # (a noise sweep) load on use, not with the harness or its parser
    script = (
        "import json, sys; import numpy; before = set(sys.modules); "
        "import kernrec.harness; kernrec.harness.build_parser(); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "kernrec.harness" in loaded
    assert {"csv", "numpy.fft", "numpy.random"}.isdisjoint(loaded)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--n", "10"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


# a run in a child whose address space is capped at 4 GiB, so that an
# allocation of several TiB is refused even where the host overcommits memory
_CAPPED_MAIN = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
    "from kernrec.harness import main; sys.exit(main())"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "manufactured1d", "--n", "1000000000000", "--mx", "10"],
        ["--preset", "manufactured1d", "--n", "10", "--mx", "1000000000000"],
        ["--preset", "contaminant", "--n", "10", "--mx", "10", "--fine-factor", "1000000000000"],
    ],
    ids=["n", "mx", "fine-factor"],
)
def test_run_too_large_to_allocate_exits_2(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "reconstruct", *argv],
        capture_output=True, text=True, env=_child_env(OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"kernrec: out of memory: Unable to allocate [\d.]+ TiB .*\n", proc.stderr)


def test_warning_is_one_kernrec_line(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(THRESHOLD_CONFIG, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
         "--n", "20", "--mx", "10", "--force"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("kernrec: warning: running with tau = ")
    assert proc.stderr.count("\n") == 1
    assert "RuntimeWarning" not in proc.stderr


def test_every_level_of_a_sweep_prints_its_warning(tmp_path):
    # m0 = 10 puts tau0 = 0.05 below tau = 0.1: each of the three levels
    # warns in the same words, and each warning is printed
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_SECOND_LEVEL_FAULT, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "noise-sweep", "--config", str(cfg),
         "--n", "10", "--mx", "4", "--noise", "1e-12,1e-11,1e-10", "--seed", "1", "--force",
         "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    warning = ("kernrec: warning: running with tau = 0.1 >= tau0 = 0.05; "
               "the kernel update may be ill-conditioned\n")
    assert proc.stderr == 3 * warning


def test_state_overflow_prints_no_numpy_warning(tmp_path, capsys):
    # the load f = 1e308 overflows in the first step's solve
    cfg = tmp_path / "p.cfg"
    cfg.write_text('[problem]\nf = "1e308"\nh = "1"\ng = "0"\nu0 = "0"\nlx = 1.0\nT = 1.0\n'
                   'omega = 1.0\nkernel = "0"\n', encoding="utf-8")
    assert run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"]) == 2
    assert capsys.readouterr().err == "kernrec: numerical failure: state is not finite\n"


# u0 = 1e200 keeps every state finite, but the squares in the diagnostics overflow
OVERFLOWING_DIAGNOSTICS = """\
[problem]
f = "0"
h = "1"
g = "0"
u0 = "1e200*(1+cos(pi*x))"
lx = 1.0
T = 1.0
omega = 1.0
kernel = "0"
"""


def test_non_finite_diagnostics_exit_2_and_write_nothing(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(OVERFLOWING_DIAGNOSTICS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "roundtrip", "--config", str(cfg),
         "--n", "4", "--mx", "4", "--force", "--out", "r.csv", "--json", "r.json"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 2
    warning, failure = proc.stderr.splitlines()  # no numpy warning in between
    assert warning.startswith("kernrec: warning: running with tau = ")
    assert failure == "kernrec: numerical failure: diagnostics.grad_energy is not finite"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]


def test_non_finite_amplification_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # sigma = 5e-324, the least subnormal: err_inf / sigma overflows
    monkeypatch.chdir(tmp_path)
    argv = ["noise-sweep", "--preset", "manufactured1d", "--n", "20", "--mx", "10",
            "--noise", "5e-324", "--seed", "1", "--out", "n.csv", "--json", "n.json"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err == "kernrec: numerical failure: rows[0].amplification is not finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "columns, report, where",
    [
        ([np.array([1.0, np.inf])], {"b": [1.0, None, "text"], "a": {"c": 2, "d": -np.inf}},
         "a.d"),
        ([np.array([1.0, 2.0]), [None, "—"], [1.0, np.nan]], {"rows": [{"x": 1.0}]},
         "c[1]"),
        ([np.array([np.nan, 1.0])], {"e": math.inf}, "e"),
    ],
    ids=["report-sorted", "csv-column", "report-first"],
)
def test_first_non_finite_number_is_named(columns, report, where):
    header = ",".join("abc"[: len(columns)])
    with pytest.raises(errors.NonFiniteError, match=rf"^{re.escape(where)} is not finite$"):
        harness._check_finite(header, columns, report)
    harness._check_finite(header, [np.ones(2)] * len(columns), {"x": [1.0, None, "—", 2]})


def test_measurement_overflow_prints_no_numpy_warning(tmp_path):
    # finite samples whose backward difference overflows
    data = tmp_path / "m.csv"
    data.write_text("0,0\n0.5,1.7e308\n1,-1.7e308\n", encoding="utf-8")
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n',
                   encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct", "--config", str(cfg),
         "--n", "2", "--mx", "4"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 3
    assert proc.stderr == "kernrec: validation failure: measurement contains non-finite values\n"


def test_kernel_overflow_after_the_first_step_exits_2(tmp_path, capsys):
    # m'_2 = -1.7e308 over (h,1) + m_0 tau = 0.5 overflows: K_2 = inf
    data = tmp_path / "m.csv"
    data.write_text("t,m,mprime\n0,0,0\n0.25,0,0\n0.5,0,-1.7e308\n0.75,0,0\n1,0,0\n",
                    encoding="utf-8")
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        '[problem]\nf = "0"\nh = "0.5"\ng = "0"\nu0 = "0"\nlx = 1\nT = 1\nomega = 0.5\n'
        f'measurement_file = "{data}"\n',
        encoding="utf-8",
    )
    argv = ["reconstruct", "--config", str(cfg), "--n", "4", "--mx", "4", "--trace"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in err[:-1]] == ["step=1"]
    assert err[-1] == "kernrec: numerical failure: kernel value is not finite"


# the four benchmark workloads at their small sizes: the benchmark reads
# its identity residual off each reconstruct() the command makes
_WORKLOADS = {
    "fine1d": ["reconstruct", "--preset", "manufactured1d", "--n", "20", "--mx", "200"],
    "long1d": ["reconstruct", "--preset", "manufactured1d", "--n", "200", "--mx", "10"],
    "grid2d": ["reconstruct", "--config", "{config}", "--n", "10", "--mx", "16"],
    "sweep1d": ["noise-sweep", "--preset", "contaminant", "--n", "30", "--mx", "20",
                "--noise", "1e-06,1e-05,0.0001,0.001", "--seed", "0"],
}


@pytest.mark.filterwarnings("ignore:initial kernel value:RuntimeWarning")  # noisy K_0
@pytest.mark.parametrize("name", list(_WORKLOADS))
def test_benchmark_residual_is_the_reports(tmp_path, monkeypatch, name):
    config = tmp_path / "manufactured2d.ini"
    config.write_text(
        "[problem]\n" + "".join(f'{key} = "{value}"\n' for key, value in MANUFACTURED_2D.items()),
        encoding="utf-8",
    )
    sampled, reconstruct = [], harness.reconstruct

    def wrapper(*args, **kwargs):
        result = reconstruct(*args, **kwargs)
        sampled.append(result.diagnostics.max_compat_residual)
        return result

    monkeypatch.setattr(harness, "reconstruct", wrapper)
    argv = [arg.format(config=config) for arg in _WORKLOADS[name]]
    report_path = tmp_path / "report.json"
    assert run_cli([*argv, "--out", str(tmp_path / "out.csv"), "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if "rows" in report:
        reported = max(row["max_compat_residual"] for row in report["rows"])
    else:
        reported = report["diagnostics"]["max_compat_residual"]
    assert sampled and max(sampled) == reported
