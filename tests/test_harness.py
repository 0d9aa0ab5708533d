import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernrec
from kernrec import errors, harness
from kernrec.harness import (
    EOC_UNDEFINED,
    KERNEL_CSV_HEADER,
    MEASUREMENT_CSV_HEADER,
    NOISE_CSV_HEADER,
    TABLE_CSV_HEADER,
    eoc_value,
    run_cli,
    table_csv_text,
)

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

    def test_my_rejected_for_1d(self):
        code = run_cli(
            ["reconstruct", "--preset", "manufactured1d", "--n", "10", "--mx", "10",
             "--my", "10"]
        )
        assert code == 1

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

    def test_force_from_config(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(THRESHOLD_CONFIG + "\n[experiment]\nforce = On\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            code = run_cli(["reconstruct", "--config", str(cfg), "--n", "20", "--mx", "10"])
        assert code == 0


def test_eoc_value_edge_cases():
    assert eoc_value(0.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(1.0, 0.0, 0.1, 0.05) is None
    assert eoc_value(float("nan"), 1.0, 0.1, 0.05) is None
    assert eoc_value(2.0, 1.0, 0.1, 0.05) == pytest.approx(1.0)


def test_table_csv_renders_dash_for_zero_errors():
    rows = [
        {"n": 10, "tau": 0.1, "err_inf": 0.0, "err_l2": 0.0, "err_u": None, "eoc": None}
    ]
    text = table_csv_text(rows)
    line = text.strip().split("\n")[1]
    assert line.endswith(EOC_UNDEFINED)
    assert line.split(",")[4] == ""


# every exception class of kernrec.errors, plus OSError, and its exit code
_EXIT_CODES = [
    (errors.UsageError("bad flag"), 1),
    (errors.ConfigError("bad key", key="k"), 1),
    (errors.NumericalError("broke"), 2),
    (errors.SingularMatrixError("zero pivot"), 2),
    (errors.IterationLimitError("stalled", residual=1.0, iterations=3), 2),
    (errors.SingularUpdateError("tiny denominator", step=1), 2),
    (errors.NonFiniteError("nan", step=1), 2),
    (errors.ExprError("bad expression"), 2),
    (errors.ExprSyntaxError("bad token", 0), 2),
    (errors.UnknownIdentifierError("zz", 0), 2),
    (errors.ArityError("sin", 1, 2, 0), 2),
    (errors.UnboundVariableError("x"), 2),
    (errors.DomainFaultError("log of non-positive value", "log(0)"), 2),
    (OSError("disk full"), 2),
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
    assert classes == {type(exc) for exc, _ in _EXIT_CODES} - {OSError}


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
