import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
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
from kernrec.problem import MeasurementSeries, TimeGrid, preset_contaminant

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

    def test_measurement_file_feeds_reconstruct(self, tmp_path):
        data = tmp_path / "m.csv"
        assert run_cli(
            ["forward", "--preset", "manufactured1d", "--n", "40", "--mx", "40",
             "--out", str(data), "--derivative", "discrete"]
        ) == 0
        cfg = tmp_path / "p.cfg"
        spec_text = (
            "[problem]\n"
            'f = "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"\n'
            'h = "1"\n'
            'g = "0"\n'
            'u0 = "1+cos(pi*x)"\n'
            "lx = 1.0\n"
            "T = 1.0\n"
            "omega = 1.0\n"
            f'measurement_file = "{data}"\n'
        )
        cfg.write_text(spec_text, encoding="utf-8")
        out = tmp_path / "k.csv"
        code = run_cli(
            ["reconstruct", "--config", str(cfg), "--n", "40", "--mx", "40",
             "--out", str(out)]
        )
        assert code == 0
        rows = _read(out).strip().split("\n")[1:]
        rec = np.array([float(r.split(",")[1]) for r in rows])
        # same-grid data: the kernel comes back essentially exactly
        assert np.abs(rec - np.exp(-np.linspace(0, 1, 41))).max() < 0.05


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
        assert report["config"]["derivative"] == "analytic"
        if mode != "convergence":
            source_of = report.get("measurement", report).get("derivative_source")
            assert source_of == "discrete-difference"

    @pytest.mark.parametrize(
        "bad_row,message",
        [("{t},abc", "data row 2: 'abc' is not a number"),
         ("{t}", "data row 2 has 1 column(s), expected at least 2"),
         ("{t},1,7", "data row 3 has no m'")],
        ids=["not-a-number", "missing-column", "partial-mprime"],
    )
    def test_malformed_measurement_row_is_validation_failure(
        self, tmp_path, capsys, bad_row, message
    ):
        T = preset_contaminant().T
        data = tmp_path / "m.csv"
        rows = ["t,m", "0,1", bad_row.format(t=repr(T / 2)), f"{T!r},1"]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            f'[problem]\npreset = contaminant\nmeasurement_file = "{data}"\n',
            encoding="utf-8",
        )
        code = run_cli(["reconstruct", "--config", str(cfg), "--n", "2", "--mx", "4",
                        "--out", str(tmp_path / "out.csv")])
        assert code == 3
        assert f"validation failure: measurement file {message}" in capsys.readouterr().err
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
        spec = replace(preset_contaminant(), kernel_exact=None)
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


def _cli_option_text(data, opt, mode, broken, unused_too):
    """The text drawn for one option, or None to leave it unset."""
    needed = {"n", "mx"} | ({"noise", "seed"} if mode == "noise-sweep" else set())
    valid, invalid = _CLI_VALUES[opt.key]
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
    mode = data.draw(st.sampled_from(_ALL_MODES), label="mode")
    source = data.draw(st.sampled_from(sorted(_CLI_SOURCES)), label="source")
    problem = _CLI_SOURCES[source]
    # at most one invalid value, so that the run can get past the others
    broken = data.draw(st.sampled_from([None] * 4 + ["T", *_CLI_VALUES]), label="invalid")
    unused_too = data.draw(st.sampled_from([False] * 3 + [True]), label="options it may not use")
    argv = [mode]
    sections = {"problem": "", "discretization": "", "experiment": ""}
    if problem.startswith("preset") and data.draw(st.booleans(), label="--preset"):
        argv += ["--preset", source]
    else:
        sections["problem"] = problem
    horizon = data.draw(st.sampled_from(["nan", "-1"] if broken == "T" else [None, "0.5"]))
    if horizon is not None:
        argv += ["--T", horizon]
    outputs, tracing = [], False
    for opt in harness.OPTIONS:
        text = _cli_option_text(data, opt, mode, broken, unused_too)
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
        else:
            sections[opt.section] += f'{opt.key} = "{text}"\n'
    if any(sections.values()):
        config = work / "p.cfg"
        config.write_text(
            "".join(f"[{name}]\n{body}\n" for name, body in sections.items()), encoding="utf-8"
        )
        argv += ["--config", str(config)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    for line in err.getvalue().splitlines():
        assert line.startswith("kernrec: ") or (tracing and line.startswith("step="))
    for path in outputs:
        assert path.exists() == (code == 0)
    written = {p.name for p in work.iterdir()} - {"p.cfg"}
    assert written == ({p.name for p in outputs if p.parent == work} if code == 0 else set())


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
    text, report = harness.run_convergence_mode(None)
    assert report == {"rows": rows}
    line = text.strip().split("\n")[1]
    assert line.endswith(EOC_UNDEFINED)
    assert line.split(",")[4] == ""


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
    series = MeasurementSeries.from_samples(tg, values, initial)
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


def test_readme_config_block_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(blocks[0], encoding="utf-8")
    code = run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10",
                    "--out", str(tmp_path / "k.csv"), "--json", str(tmp_path / "r.json")])
    assert code == 0


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


def test_state_overflow_prints_no_numpy_warning(tmp_path, capsys):
    # tau = 1e-321: u/tau overflows in the first step
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[problem]\npreset = manufactured1d\nT = 1e-320\n", encoding="utf-8")
    assert run_cli(["reconstruct", "--config", str(cfg), "--n", "10", "--mx", "10"]) == 2
    assert capsys.readouterr().err == "kernrec: numerical failure: state is not finite\n"


def test_log_env_variable_respected(tmp_path):
    out = tmp_path / "k.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kernrec.harness", "reconstruct",
         "--preset", "zero1d", "--n", "10", "--mx", "10", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(KERNREC_LOG="INFO"),
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stderr  # INFO-level logging surfaced
