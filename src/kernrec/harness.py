"""Command line interface and experiment orchestration.

Subcommands: ``forward``, ``reconstruct``, ``roundtrip``, ``convergence``
and ``noise-sweep``.  Problems come from ``--preset NAME`` or from a
``--config PATH`` file in the flat ``key = value`` format (sections
``[problem]``, ``[discretization]``, ``[experiment]``); command line
flags override config values.

Exit codes: 0 success, 1 usage error (including a config key that its
section does not accept), 2 numerical failure (singular update,
non-finite state, I/O), 3 validation failure (step threshold, floor
violation, non-finite or non-positive problem numbers).  Set
``KERNREC_LOG`` to a logging level name for extra output.  All CSV
output uses 17 significant digits so identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import expr
from .errors import (
    ConfigError,
    ExprError,
    KernrecError,
    NumericalError,
    UsageError,
    ValidationError,
)
from .forward import (
    KernelSeries,
    generate_measurement,
    measurement_from_run,
    run_forward,
)
from .inverse import ReconstructionResult, reconstruct
from .problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    measurement_from_csv,
    parse_config,
    spec_from_mapping,
)

log = logging.getLogger("kernrec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3

KERNEL_CSV_HEADER = "t,K_rec,K_ref,abs_err"
TABLE_CSV_HEADER = "n,tau,err_inf,err_l2,err_u,eoc"
MEASUREMENT_CSV_HEADER = "t,m,mprime"
NOISE_CSV_HEADER = "sigma,err_inf,amplification"

EOC_UNDEFINED = "—"  # em dash, printed when a ratio is not defined


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class ExperimentConfig:
    """Resolved options of a single CLI invocation."""

    mode: str
    spec: ProblemSpec
    n_list: list[int]
    mx: int
    my: int | None = None
    derivative: str = "analytic"
    fine_factor: int = 4
    out: str | None = None
    json_path: str | None = None
    noise_sigmas: list[float] | None = None
    seed: int | None = None
    force: bool = False
    trace: bool = False
    denominator_sign: float = 1.0
    measurement_file: str | None = None

    def validate(self) -> None:
        if not self.n_list:
            raise UsageError("no time resolution given (use --n)")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise UsageError("resolution list must be strictly increasing")
        if self.mode != "convergence" and len(self.n_list) != 1:
            raise UsageError(f"mode '{self.mode}' takes a single --n value")
        if self.mx < 1:
            raise UsageError("--mx must be a positive cell count")
        if self.my is not None and self.my < 1:
            raise UsageError("--my must be a positive cell count")
        if self.fine_factor < 1:
            raise UsageError("--fine-factor must be >= 1")
        if self.derivative not in ("analytic", "discrete"):
            raise UsageError(f"unknown derivative source {self.derivative!r}")
        noise_mode = self.mode == "noise-sweep"
        if noise_mode:
            if not self.noise_sigmas:
                raise UsageError("noise-sweep requires --noise SIGMA[,SIGMA...]")
            if self.seed is None:
                raise UsageError("noise-sweep requires --seed")
            bad = [s for s in self.noise_sigmas if not 0.0 < s < math.inf]
            if bad:
                raise UsageError(f"--noise levels must be positive and finite, got {bad[0]}")
        else:
            if self.noise_sigmas:
                raise UsageError("--noise is only valid in noise-sweep mode")
            if self.seed is not None:
                raise UsageError("--seed is only valid in noise-sweep mode")
        if self.measurement_file is not None:
            if self.spec.m_exact is not None:
                raise ConfigError(
                    "conflicts with the problem's exact measurement m; give one source",
                    key="measurement_file",
                )
            if self.mode in ("forward", "roundtrip"):
                raise ConfigError(
                    f"{self.mode} mode generates its own measurement and reads no file",
                    key="measurement_file",
                )

    @property
    def n(self) -> int:
        return self.n_list[0]

    def grids(self, n: int | None = None):
        timegrid = TimeGrid(self.spec.T, self.n if n is None else n)
        grid = self.spec.make_grid(self.mx, self.my)
        return grid, timegrid

    def echo(self) -> dict:
        return {
            "mode": self.mode,
            "problem": self.spec.name,
            "extents": list(self.spec.extents),
            "T": self.spec.T,
            "omega": self.spec.omega_floor,
            "n": self.n_list if self.mode == "convergence" else self.n_list[0],
            "mx": self.mx,
            "my": self.my,
            "derivative": self.derivative,
            "fine_factor": self.fine_factor,
            "noise": self.noise_sigmas,
            "seed": self.seed,
            "force": self.force,
            "denominator_sign": self.denominator_sign,
        }


# -- argument parsing -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="kernrec", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode")
    for mode, blurb in (
        ("forward", "simulate with the exact kernel and dump the measurement"),
        ("reconstruct", "recover the kernel from measurement data"),
        ("roundtrip", "forward then reconstruct on the identical grid"),
        ("convergence", "reconstruct over a list of n and tabulate EOC"),
        ("noise-sweep", "observe noise amplification over a list of sigma"),
    ):
        p = sub.add_parser(mode, help=blurb)
        p.add_argument("--preset", help="built-in problem name")
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--n", help="time steps (comma list for convergence)")
        p.add_argument("--mx", type=int, help="cells along x")
        p.add_argument("--my", type=int, help="cells along y (2D only)")
        p.add_argument("--T", type=float, help="override the time horizon")
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--json", dest="json_path", help="JSON report path")
        p.add_argument(
            "--derivative",
            choices=("analytic", "discrete"),
            help="measurement derivative source (default analytic when available)",
        )
        p.add_argument(
            "--fine-factor",
            type=int,
            dest="fine_factor",
            help="time refinement of synthetic data (space gets x2 when >1; 1 = same grid)",
        )
        p.add_argument("--noise", help="comma list of noise levels sigma")
        p.add_argument("--seed", type=int, help="RNG seed (noise-sweep only)")
        p.add_argument("--force", action="store_true", default=None,
                       help="run past a failed step-threshold check")
        p.add_argument("--trace", action="store_true", default=None,
                       help="print per-step trace rows to stderr")
        p.add_argument(
            "--kernel-denominator-sign",
            choices=("plus", "minus"),
            dest="denominator_sign",
            help="debug: sign of the m0*tau denominator term (default plus)",
        )
    return parser


def _parse_list(text: str, cast, what: str) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse {what} list from {text!r}") from None


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file sections with command line overrides."""
    problem_section: dict[str, str] = {}
    disc: dict[str, str] = {}
    experiment: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                sections = parse_config(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        problem_section = sections["problem"]
        disc = sections["discretization"]
        experiment = sections["experiment"]
        if experiment.get("mode") not in (None, args.mode):
            raise UsageError(
                f"config requests mode {experiment['mode']!r}, "
                f"command line says {args.mode!r}"
            )

    if args.preset:
        spec = spec_from_mapping({**problem_section, "preset": args.preset})
    elif problem_section:
        spec = spec_from_mapping(problem_section)
    else:
        raise UsageError("no problem given: pass --preset NAME or --config PATH")
    if args.T is not None:
        spec = replace(spec, T=args.T)

    def pick(cli_value, section, key, cast=str):
        if cli_value is not None:
            return cli_value
        if key in section:
            try:
                return cast(section[key])
            except ValueError as exc:
                raise UsageError(f"cannot parse {key} = {section[key]!r}: {exc}") from None
        return None

    n_text = pick(args.n, disc, "n")
    if n_text is None:
        raise UsageError("no time resolution given (use --n or [discretization] n)")
    n_list = _parse_list(str(n_text), int, "--n")
    mx = pick(args.mx, disc, "mx", int)
    if mx is None:
        raise UsageError("no spatial resolution given (use --mx or [discretization] mx)")
    my = pick(args.my, disc, "my", int)
    if spec.ndim == 2 and my is None:
        my = mx
    if spec.ndim == 1 and my is not None:
        raise UsageError("--my given for a 1D problem")

    fine_factor = pick(args.fine_factor, experiment, "fine_factor", int)
    noise_text = pick(args.noise, experiment, "noise")
    sign_text = pick(args.denominator_sign, experiment, "kernel_denominator_sign")
    if sign_text is None:
        sign_text = "plus"
    if sign_text not in ("plus", "minus"):
        raise UsageError(
            f"kernel_denominator_sign must be plus or minus, got {sign_text!r}"
        )
    cfg = ExperimentConfig(
        mode=args.mode,
        spec=spec,
        n_list=n_list,
        mx=int(mx),
        my=int(my) if my is not None else None,
        derivative=pick(args.derivative, experiment, "derivative") or "analytic",
        fine_factor=4 if fine_factor is None else fine_factor,
        out=pick(args.out, experiment, "out"),
        json_path=pick(args.json_path, experiment, "json"),
        noise_sigmas=_parse_list(str(noise_text), float, "--noise") if noise_text else None,
        seed=pick(args.seed, experiment, "seed", int),
        force=bool(pick(args.force, experiment, "force", _as_bool) or False),
        trace=bool(pick(args.trace, experiment, "trace", _as_bool) or False),
        denominator_sign=1.0 if sign_text == "plus" else -1.0,
        measurement_file=problem_section.get("measurement_file"),
    )
    cfg.validate()
    return cfg


_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _as_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError("expected true/false, yes/no, on/off or 1/0") from None


# -- data acquisition --------------------------------------------------


def acquire_measurement(cfg: ExperimentConfig, timegrid: TimeGrid) -> MeasurementSeries:
    """Measurement for a reconstruction at (cfg.mx, timegrid).

    Exact expressions or a sampled file (``validate`` rejects both at
    once), else synthetic generation from the exact kernel on a finer
    grid (time factor ``fine_factor``, space factor 2 unless the factor
    is 1, which keeps the identical grid for deliberate inverse-crime
    runs).
    """
    spec = cfg.spec
    if spec.m_exact is not None:
        if cfg.derivative == "analytic" and spec.mprime_exact is not None:
            return MeasurementSeries.from_expressions(timegrid, spec.m_exact, spec.mprime_exact)
        return MeasurementSeries.from_expressions(timegrid, spec.m_exact)
    if cfg.measurement_file is not None:
        try:
            with open(cfg.measurement_file, "r", encoding="utf-8") as fh:
                return measurement_from_csv(fh.read(), timegrid)
        except OSError as exc:
            raise UsageError(
                f"cannot read measurement file {cfg.measurement_file}: {exc}"
            ) from exc
    if spec.kernel_exact is not None:
        space_factor = 2 if cfg.fine_factor > 1 else 1
        fine_tg = TimeGrid(timegrid.T, timegrid.n * cfg.fine_factor)
        fine_grid = spec.make_grid(
            cfg.mx * space_factor,
            cfg.my * space_factor if cfg.my is not None else None,
        )
        series = generate_measurement(
            spec, fine_grid, fine_tg, derivative=cfg.derivative
        )
        return series.restrict(timegrid)
    raise UsageError(
        "problem has no measurement source (exact m, measurement_file, or exact kernel)"
    )


def _trace_printer(i, t, k, den, resid):
    print(
        f"step={i} t={t:.6g} K={k:.9g} den={den:.9g} resid={resid:.3e}",
        file=sys.stderr,
    )


def _run_reconstruction(
    cfg: ExperimentConfig, timegrid: TimeGrid, measurement: MeasurementSeries
) -> ReconstructionResult:
    grid, _ = cfg.grids()
    return reconstruct(
        cfg.spec,
        grid,
        timegrid,
        measurement,
        force=cfg.force,
        denominator_sign=cfg.denominator_sign,
        trace=_trace_printer if cfg.trace else None,
    )


def kernel_reference(spec: ProblemSpec, timegrid: TimeGrid) -> np.ndarray | None:
    if spec.kernel_exact is None:
        return None
    return KernelSeries.from_expression(spec.kernel_exact, timegrid).values


def kernel_errors(
    rec: np.ndarray, ref: np.ndarray | None, tau: float
) -> tuple[float | None, float | None]:
    if ref is None:
        return None, None
    diff = np.abs(rec - ref)
    err_inf = float(np.max(diff))
    err_l2 = float(math.sqrt(np.sum(diff[1:] ** 2) * tau))
    return err_inf, err_l2


# -- CSV / JSON emission ----------------------------------------------


def kernel_csv_text(nodes: np.ndarray, k_rec: np.ndarray, k_ref: np.ndarray | None) -> str:
    lines = [KERNEL_CSV_HEADER]
    for i, t in enumerate(nodes):
        if k_ref is None:
            lines.append(f"{_fmt(t)},{_fmt(k_rec[i])},,")
        else:
            err = abs(k_rec[i] - k_ref[i])
            lines.append(f"{_fmt(t)},{_fmt(k_rec[i])},{_fmt(k_ref[i])},{_fmt(err)}")
    return "\n".join(lines) + "\n"


def measurement_csv_text(series: MeasurementSeries) -> str:
    lines = [MEASUREMENT_CSV_HEADER]
    nodes = series.timegrid.nodes
    first_deriv = (
        _fmt(series.initial_derivative) if series.initial_derivative is not None else ""
    )
    lines.append(f"{_fmt(nodes[0])},{_fmt(series.values[0])},{first_deriv}")
    for i in range(1, series.timegrid.n + 1):
        lines.append(
            f"{_fmt(nodes[i])},{_fmt(series.values[i])},{_fmt(series.derivative_at(i))}"
        )
    return "\n".join(lines) + "\n"


def table_csv_text(rows: list[dict]) -> str:
    lines = [TABLE_CSV_HEADER]
    for row in rows:
        eoc = EOC_UNDEFINED if row["eoc"] is None else _fmt(row["eoc"])
        err_u = "" if row["err_u"] is None else _fmt(row["err_u"])
        lines.append(
            f"{row['n']},{_fmt(row['tau'])},{_fmt(row['err_inf'])},"
            f"{_fmt(row['err_l2'])},{err_u},{eoc}"
        )
    return "\n".join(lines) + "\n"


def noise_csv_text(rows: list[dict]) -> str:
    lines = [NOISE_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{_fmt(row['sigma'])},{_fmt(row['err_inf'])},{_fmt(row['amplification'])}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    log.info("wrote %s", path)


def emit_json(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _base_report(cfg: ExperimentConfig, started: float) -> dict:
    return {
        "mode": cfg.mode,
        "config": cfg.echo(),
        "timings": {"total_seconds": time.perf_counter() - started},
    }


def _reconstruction_report(
    cfg: ExperimentConfig, timegrid: TimeGrid, result: ReconstructionResult
) -> dict:
    ref = kernel_reference(cfg.spec, timegrid)
    err_inf, err_l2 = kernel_errors(result.kernel.values, ref, timegrid.tau)
    report = {
        "time": {"T": timegrid.T, "n": timegrid.n, "tau": timegrid.tau},
        "derivative_source": result.derivative_source,
        "threshold": result.threshold.as_dict(),
        "diagnostics": result.diagnostics.as_dict(),
    }
    if err_inf is not None:
        report["errors"] = {"kernel_inf": err_inf, "kernel_l2": err_l2}
    return report


# -- modes -------------------------------------------------------------


def run_forward_mode(cfg: ExperimentConfig) -> dict:
    started = time.perf_counter()
    spec = cfg.spec
    if spec.kernel_exact is None:
        raise UsageError("forward mode needs an exact kernel in the problem")
    grid, timegrid = cfg.grids()
    kernel = KernelSeries.from_expression(spec.kernel_exact, timegrid)
    run = run_forward(spec, grid, timegrid, kernel)
    series = measurement_from_run(spec, grid, timegrid, run, cfg.derivative)
    if cfg.out:
        emit_csv(measurement_csv_text(series), cfg.out)
    report = _base_report(cfg, started)
    report["measurement"] = {
        "rows": timegrid.n + 1,
        "max_compat_residual": float(np.max(run.compat_residuals)),
        "derivative_source": series.provenance,
    }
    return report


def run_reconstruct_mode(cfg: ExperimentConfig) -> dict:
    started = time.perf_counter()
    grid, timegrid = cfg.grids()
    series = acquire_measurement(cfg, timegrid)
    result = _run_reconstruction(cfg, timegrid, series)
    if cfg.out:
        ref = kernel_reference(cfg.spec, timegrid)
        emit_csv(kernel_csv_text(timegrid.nodes, result.kernel.values, ref), cfg.out)
    report = _base_report(cfg, started)
    report.update(_reconstruction_report(cfg, timegrid, result))
    return report


def run_roundtrip_mode(cfg: ExperimentConfig) -> dict:
    """Forward data and reconstruction on the identical grid and step."""
    started = time.perf_counter()
    spec = cfg.spec
    if spec.kernel_exact is None:
        raise UsageError("roundtrip mode needs an exact kernel in the problem")
    grid, timegrid = cfg.grids()
    kernel_in = KernelSeries.from_expression(spec.kernel_exact, timegrid)
    fwd = run_forward(spec, grid, timegrid, kernel_in)
    series = measurement_from_run(spec, grid, timegrid, fwd, derivative="discrete")
    result = _run_reconstruction(cfg, timegrid, series)
    kernel_err = float(np.max(np.abs(result.kernel.values - kernel_in.values)))
    state_err = float(np.max(np.abs(result.trajectory.values - fwd.trajectory.values)))
    if cfg.out:
        emit_csv(
            kernel_csv_text(timegrid.nodes, result.kernel.values, kernel_in.values),
            cfg.out,
        )
    report = _base_report(cfg, started)
    report.update(_reconstruction_report(cfg, timegrid, result))
    report["roundtrip"] = {
        "kernel_max_error": kernel_err,
        "state_max_error": state_err,
        "forward_max_compat_residual": float(np.max(fwd.compat_residuals)),
    }
    return report


def eoc_value(e_coarse: float, e_fine: float, tau_coarse: float, tau_fine: float):
    """log(e_j / e_{j+1}) / log(tau_j / tau_{j+1}); None when undefined."""
    if not (math.isfinite(e_coarse) and math.isfinite(e_fine)):
        return None
    if e_coarse <= 0.0 or e_fine <= 0.0:
        return None
    return math.log(e_coarse / e_fine) / math.log(tau_coarse / tau_fine)


def convergence_study(cfg: ExperimentConfig) -> list[dict]:
    """Reconstruct for each n (fixed spatial grid) and tabulate errors.

    The spatial grid stays at the requested resolution so the table
    isolates the first-order time discretization.
    """
    spec = cfg.spec
    if spec.kernel_exact is None:
        raise UsageError("convergence mode needs an exact kernel as reference")
    grid = spec.make_grid(cfg.mx, cfg.my)
    rows: list[dict] = []
    for n in cfg.n_list:
        timegrid = TimeGrid(spec.T, n)
        series = acquire_measurement(cfg, timegrid)
        result = reconstruct(
            spec,
            grid,
            timegrid,
            series,
            force=cfg.force,
            denominator_sign=cfg.denominator_sign,
            trace=_trace_printer if cfg.trace else None,
        )
        ref = kernel_reference(spec, timegrid)
        err_inf, err_l2 = kernel_errors(result.kernel.values, ref, timegrid.tau)
        err_u = None
        if spec.u_exact is not None:
            exact_T = expr.evaluate(
                spec.u_exact, {**grid.coordinate_fields(), "t": timegrid.T}
            )
            err_u = float(np.max(np.abs(result.trajectory.values[-1] - exact_T)))
        rows.append(
            {
                "n": n,
                "tau": timegrid.tau,
                "err_inf": err_inf,
                "err_l2": err_l2,
                "err_u": err_u,
                "eoc": None,
                "diagnostics": result.diagnostics.as_dict(),
            }
        )
    for prev, row in zip(rows, rows[1:]):
        row["eoc"] = eoc_value(prev["err_inf"], row["err_inf"], prev["tau"], row["tau"])
    return rows


def run_convergence_mode(cfg: ExperimentConfig) -> dict:
    started = time.perf_counter()
    rows = convergence_study(cfg)
    if cfg.out:
        emit_csv(table_csv_text(rows), cfg.out)
    report = _base_report(cfg, started)
    report["rows"] = rows
    return report


def run_noise_mode(cfg: ExperimentConfig) -> dict:
    """Reconstruct under measurement noise and report the amplification."""
    started = time.perf_counter()
    spec = cfg.spec
    if spec.kernel_exact is None:
        raise UsageError("noise-sweep mode needs an exact kernel as reference")
    grid, timegrid = cfg.grids()
    base = acquire_measurement(cfg, timegrid)
    ref = kernel_reference(spec, timegrid)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for sigma in cfg.noise_sigmas:
        noisy = base.with_noise(sigma, rng)
        result = _run_reconstruction(cfg, timegrid, noisy)
        err_inf, _ = kernel_errors(result.kernel.values, ref, timegrid.tau)
        rows.append(
            {"sigma": sigma, "err_inf": err_inf, "amplification": err_inf / sigma}
        )
    if cfg.out:
        emit_csv(noise_csv_text(rows), cfg.out)
    report = _base_report(cfg, started)
    report["rows"] = rows
    report["seed"] = cfg.seed
    return report


_MODE_RUNNERS = {
    "forward": run_forward_mode,
    "reconstruct": run_reconstruct_mode,
    "roundtrip": run_roundtrip_mode,
    "convergence": run_convergence_mode,
    "noise-sweep": run_noise_mode,
}


def run_cli(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.mode is None:
            raise UsageError("no subcommand given; see kernrec --help")
        cfg = resolve_config(args)
        report = _MODE_RUNNERS[cfg.mode](cfg)
        if cfg.json_path:
            emit_json(report, cfg.json_path)
        return EXIT_OK
    except UsageError as exc:
        print(f"kernrec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"kernrec: validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ExprError, OSError) as exc:
        print(f"kernrec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KernrecError as exc:  # anything else from this package
        print(f"kernrec: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("KERNREC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
