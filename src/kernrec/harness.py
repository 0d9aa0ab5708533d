"""Command line interface and experiment orchestration.

Subcommands: ``forward``, ``reconstruct``, ``roundtrip``, ``convergence``
and ``noise-sweep``.  Problems come from ``--preset NAME`` or from a
``--config PATH`` file in the flat ``key = value`` format (sections
``[problem]``, ``[discretization]``, ``[experiment]``); command line
flags override config values.  Each option is one row of ``OPTIONS``,
which gives its flag, its config key, its cast and the modes and data
that use it; an option the run would not use is rejected.  An
``ExperimentConfig`` holds the defaults and validates every option when
it is built, including the exact kernel that all modes but
``reconstruct`` need.  Each mode runner builds its grids once and
returns its CSV text (``csv_text`` states the format) and its own part
of the JSON report; ``run_cli`` writes ``--out``, adds the mode, the
configuration echo and the timings, and writes ``--json``, and a run
that exits non-zero leaves no output file.  Synthetic data always
comes from ``forward.run_forward``.

Exit codes: 0 success, 1 usage error (including a config key that its
section does not accept, an option the mode ignores and an output path
that names an input or the other output), 2 numerical
failure (singular update, non-finite state, I/O, an array too large
to allocate), 3 validation failure
(step threshold, floor violation, non-finite or non-positive problem
numbers, a malformed measurement file).  ``main`` prints each warning
as one ``kernrec: warning: ...`` line.  Set ``KERNREC_LOG`` to a
logging level name for extra output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

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
from .forward import KernelSeries, run_forward
from .grid import SpatialGrid
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

    def __post_init__(self) -> None:
        if self.my is None and self.spec.ndim == 2:
            self.my = self.mx
        self.validate()

    def validate(self) -> None:
        if not self.n_list:
            raise UsageError("no time resolution given (use --n)")
        if any(n < 1 for n in self.n_list):
            raise UsageError("--n must be a positive step count")
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
        if self.mode == "noise-sweep":
            if not self.noise_sigmas:
                raise UsageError("noise-sweep requires --noise SIGMA[,SIGMA...]")
            if self.seed is None:
                raise UsageError("noise-sweep requires --seed")
            if self.seed < 0:
                raise UsageError(f"--seed must be a non-negative integer, got {self.seed}")
            bad = [s for s in self.noise_sigmas if not 0.0 < s < math.inf]
            if bad:
                raise UsageError(f"--noise levels must be positive and finite, got {bad[0]}")
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
        if self.mode != "reconstruct" and self.spec.kernel_exact is None:
            raise UsageError(f"{self.mode} mode needs an exact kernel in the problem")

    @property
    def n(self) -> int:
        return self.n_list[0]

    def grids(self):
        timegrid = TimeGrid(self.spec.T, self.n)
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


# -- options -----------------------------------------------------------


_MODES = {
    "forward": "simulate with the exact kernel and dump the measurement",
    "reconstruct": "recover the kernel from measurement data",
    "roundtrip": "forward then reconstruct on the identical grid",
    "convergence": "reconstruct over a list of n and tabulate EOC",
    "noise-sweep": "observe noise amplification over a list of sigma",
}
_ALL_MODES = frozenset(_MODES)
# forward runs no reconstruction
_RECONSTRUCTING = _ALL_MODES - {"forward"}
_NOISE_SWEEP = frozenset({"noise-sweep"})

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}
_SIGNS = {"plus": 1.0, "minus": -1.0}


def _as_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError("expected true/false, yes/no, on/off or 1/0") from None


def _list_of(cast: Callable[[str], object]) -> Callable[[str], list]:
    """Cast of a comma list; blank entries are skipped, so "" is the empty list."""
    return lambda text: [cast(tok) for tok in text.split(",") if tok.strip()]


def _path(text: str) -> str:
    if not text:
        raise ValueError("an empty path names no file")
    return text


def _unused_beside_data(spec, measurement_file, value):
    if spec.m_exact is not None or measurement_file is not None:
        return (
            "has no effect: the problem gives its measurement "
            "(exact m or measurement_file), so no data is generated"
        )


def _derivative_rule(spec, measurement_file, value):
    if measurement_file is not None:
        return "has no effect: m' is read from the measurement_file, or differenced from its samples"
    if value == "analytic" and spec.mprime_exact is None:
        # without one the run would fall back to the backward difference
        return f"analytic needs an exact m' (mprime), and problem {spec.name!r} has none"


@dataclass(frozen=True)
class _Option:
    """One option: flag ``--key`` and config key ``[section] key``.

    ``cast`` reads the text of either alike.  ``modes`` use the option;
    ``rule(spec, measurement_file, value)`` says why the problem's data
    leaves the value unused, or returns None.
    """

    key: str
    field: str  # of ExperimentConfig
    cast: Callable[[str], object]
    help: str
    section: str = "experiment"
    choices: tuple[str, ...] = ()
    modes: frozenset = _ALL_MODES
    rule: Callable | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    @property
    def label(self) -> str:
        return f"{self.flag} ([{self.section}] {self.key})"


OPTIONS = (
    _Option("n", "n_list", _list_of(int), "time steps (comma list for convergence)",
            section="discretization"),
    _Option("mx", "mx", int, "cells along x", section="discretization"),
    _Option("my", "my", int, "cells along y (2D only)", section="discretization",
            rule=lambda spec, _, value: spec.ndim == 1 and "has no effect: the problem is 1D"),
    _Option("out", "out", _path, "CSV output path"),
    _Option("json", "json_path", _path, "JSON report path"),
    # roundtrip differentiates its own same-grid data; noise-sweep
    # differences its noisy samples whatever m' the data had
    _Option("derivative", "derivative", str,
            "measurement derivative source (default analytic when available)",
            choices=("analytic", "discrete"),
            modes=_ALL_MODES - {"roundtrip", "noise-sweep"}, rule=_derivative_rule),
    _Option("fine_factor", "fine_factor", int,
            "time refinement of synthetic data (space gets x2 when >1; 1 = same grid)",
            modes=_NOISE_SWEEP | {"reconstruct", "convergence"}, rule=_unused_beside_data),
    _Option("noise", "noise_sigmas", _list_of(float), "comma list of noise levels sigma",
            modes=_NOISE_SWEEP),
    _Option("seed", "seed", int, "RNG seed (noise-sweep only)", modes=_NOISE_SWEEP),
    _Option("force", "force", _as_bool, "run past a failed step-threshold check",
            modes=_RECONSTRUCTING),
    _Option("trace", "trace", _as_bool, "print per-step trace rows to stderr",
            modes=_RECONSTRUCTING),
    _Option("kernel_denominator_sign", "denominator_sign", _SIGNS.__getitem__,
            "debug: sign of the m0*tau denominator term (default plus)",
            choices=tuple(_SIGNS), modes=_RECONSTRUCTING),
)

# the keys [discretization] and [experiment] accept: the table's, and mode
_SECTION_KEYS = {
    "discretization": frozenset(o.key for o in OPTIONS if o.section == "discretization"),
    "experiment": frozenset(o.key for o in OPTIONS if o.section == "experiment") | {"mode"},
}


# -- argument parsing -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="kernrec", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, blurb in _MODES.items():
        p = sub.add_parser(mode, help=blurb)
        p.add_argument("--preset", help="built-in problem name")
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--T", type=float, help="override the time horizon")
        for opt in OPTIONS:
            if opt.cast is _as_bool:  # a switch: the bare flag reads as "true"
                p.add_argument(opt.flag, action="store_const", const="true", help=opt.help)
            else:
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(opt.flag, metavar=metavar, help=opt.help)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file sections with command line overrides.

    Row by row of ``OPTIONS``: the flag, else the key, cast, and rejected
    when the run would not use it.  An option given nowhere keeps its
    ``ExperimentConfig`` default.
    """
    sections: dict[str, dict[str, str]] = {"problem": {}, "discretization": {}, "experiment": {}}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                sections = parse_config(fh.read(), _SECTION_KEYS)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        requested = sections["experiment"].get("mode")
        if requested not in (None, args.mode):
            raise UsageError(
                f"config requests mode {requested!r}, command line says {args.mode!r}"
            )

    problem_section = sections["problem"]
    if args.preset:
        spec = spec_from_mapping({**problem_section, "preset": args.preset})
    elif problem_section:
        spec = spec_from_mapping(problem_section)
    else:
        raise UsageError("no problem given: pass --preset NAME or --config PATH")
    if args.T is not None:
        spec = replace(spec, T=args.T)

    measurement_file = problem_section.get("measurement_file")
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    values = {}
    for opt in OPTIONS:
        text, where = getattr(args, opt.key), opt.flag
        if text is None:
            text, where = sections[opt.section].get(opt.key), f"[{opt.section}] {opt.key} ="
        if text is None:
            if opt.field in required:
                raise UsageError(f"{opt.label} is required")
            continue
        try:
            if opt.choices and text not in opt.choices:
                raise ValueError(f"expected one of {', '.join(opt.choices)}")
            value = opt.cast(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse {where} {text!r}: {exc}") from None
        if args.mode not in opt.modes:
            raise UsageError(f"{opt.label} has no effect in {args.mode} mode")
        reason = opt.rule and opt.rule(spec, measurement_file, value)
        if reason:
            raise UsageError(f"{opt.label} {reason}")
        values[opt.field] = value
    # an output must not overwrite an input or the other output
    files = [(opt.label, values.get(opt.field)) for opt in OPTIONS if opt.key in ("out", "json")]
    files += [("--config", args.config), ("[problem] measurement_file", measurement_file)]
    for i, (label, path) in enumerate(files[:2]):
        for other, other_path in files[i + 1 :]:
            if path and other_path and os.path.realpath(path) == os.path.realpath(other_path):
                raise UsageError(f"{label} and {other} name the same file {path!r}")
    return ExperimentConfig(
        mode=args.mode, spec=spec, measurement_file=measurement_file, **values
    )


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
        fwd = run_forward(spec, fine_grid, fine_tg, derivative=cfg.derivative)
        return fwd.measurement.restrict(timegrid)
    raise UsageError(
        "problem has no measurement source (exact m, measurement_file, or exact kernel)"
    )


def _trace_printer(i, t, k, den, resid):
    print(
        f"step={i} t={t:.6g} K={k:.9g} den={den:.9g} resid={resid:.3e}",
        file=sys.stderr,
    )


def _run_reconstruction(
    cfg: ExperimentConfig,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    measurement: MeasurementSeries,
) -> ReconstructionResult:
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


def kernel_errors(rec: np.ndarray, ref: np.ndarray, tau: float) -> tuple[float, float]:
    diff = np.abs(rec - ref)
    err_inf = float(np.max(diff))
    err_l2 = float(math.sqrt(np.sum(diff[1:] ** 2) * tau))
    return err_inf, err_l2


# -- CSV / JSON emission ----------------------------------------------


def csv_text(header: str, *columns) -> str:
    """CSV text of ``header`` and one row per entry of the equal-length columns.

    The format of every kernrec CSV: a number in 17 significant digits
    (``.17g``), so that identical runs give byte-identical files; None as
    an empty field; text, such as ``EOC_UNDEFINED``, as given.
    """
    # an array's numbers go to the row template as they are; any other column as text
    template = ",".join("{:.17g}" if isinstance(c, np.ndarray) else "{}" for c in columns)
    cells = [
        c.tolist() if isinstance(c, np.ndarray)
        else ["" if x is None else x if isinstance(x, str) else f"{x:.17g}" for x in c]
        for c in columns
    ]
    return "\n".join([header, *map(template.format, *cells)]) + "\n"


def _discard(path: str) -> None:
    """Remove an output of a failed run; a device, pipe or link it named stays."""
    with contextlib.suppress(OSError):
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)


def _write(text: str, path: str) -> None:
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
    except BaseException:  # opened, then failed: leave no partial file
        _discard(path)
        raise
    log.info("wrote %s", path)


def emit_csv(text: str, path: str) -> None:
    _write(text, path)


def emit_json(report: dict, path: str) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


def _reconstruction_outputs(
    timegrid: TimeGrid, result: ReconstructionResult, ref: np.ndarray | None
) -> tuple[str, dict]:
    k_rec = result.kernel.values
    report = {
        "time": {"T": timegrid.T, "n": timegrid.n, "tau": timegrid.tau},
        "derivative_source": result.derivative_source,
        "threshold": result.threshold.as_dict(),
        "diagnostics": result.diagnostics.as_dict(),
    }
    if ref is None:  # no exact kernel: empty reference columns, no errors
        blank = [None] * k_rec.size
        return csv_text(KERNEL_CSV_HEADER, timegrid.nodes, k_rec, blank, blank), report
    err_inf, err_l2 = kernel_errors(k_rec, ref, timegrid.tau)
    report["errors"] = {"kernel_inf": err_inf, "kernel_l2": err_l2}
    return csv_text(KERNEL_CSV_HEADER, timegrid.nodes, k_rec, ref, np.abs(k_rec - ref)), report


# -- modes -------------------------------------------------------------


def run_forward_mode(cfg: ExperimentConfig) -> tuple[str, dict]:
    grid, timegrid = cfg.grids()
    fwd = run_forward(cfg.spec, grid, timegrid, derivative=cfg.derivative)
    series = fwd.measurement
    mprime = [series.initial_derivative, *series.derivatives.tolist()]
    text = csv_text(MEASUREMENT_CSV_HEADER, timegrid.nodes, series.values, mprime)
    return text, {
        "measurement": {
            "rows": timegrid.n + 1,
            "max_compat_residual": float(np.max(fwd.compat_residuals)),
            "derivative_source": series.provenance,
        }
    }


def run_reconstruct_mode(cfg: ExperimentConfig) -> tuple[str, dict]:
    grid, timegrid = cfg.grids()
    series = acquire_measurement(cfg, timegrid)
    result = _run_reconstruction(cfg, grid, timegrid, series)
    return _reconstruction_outputs(timegrid, result, kernel_reference(cfg.spec, timegrid))


def run_roundtrip_mode(cfg: ExperimentConfig) -> tuple[str, dict]:
    """Forward data and reconstruction on the identical grid and step."""
    grid, timegrid = cfg.grids()
    fwd = run_forward(cfg.spec, grid, timegrid, derivative="discrete")
    result = _run_reconstruction(cfg, grid, timegrid, fwd.measurement)
    ref = fwd.kernel.values
    text, report = _reconstruction_outputs(timegrid, result, ref)
    report["roundtrip"] = {
        "kernel_max_error": float(np.max(np.abs(result.kernel.values - ref))),
        "state_max_error": float(np.max(np.abs(result.states - fwd.states))),
        "forward_max_compat_residual": float(np.max(fwd.compat_residuals)),
    }
    return text, report


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
    grid, _ = cfg.grids()
    rows: list[dict] = []
    for n in cfg.n_list:
        timegrid = TimeGrid(spec.T, n)
        series = acquire_measurement(cfg, timegrid)
        result = _run_reconstruction(cfg, grid, timegrid, series)
        ref = kernel_reference(spec, timegrid)
        err_inf, err_l2 = kernel_errors(result.kernel.values, ref, timegrid.tau)
        err_u = None
        if spec.u_exact is not None:
            exact_T = expr.evaluate(
                spec.u_exact, {**grid.coordinate_fields(), "t": timegrid.T}
            )
            err_u = float(np.max(np.abs(result.states[-1] - exact_T)))
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


def run_convergence_mode(cfg: ExperimentConfig) -> tuple[str, dict]:
    rows = convergence_study(cfg)
    columns = [[row[key] for row in rows] for key in ("n", "tau", "err_inf", "err_l2", "err_u")]
    eoc = [EOC_UNDEFINED if row["eoc"] is None else row["eoc"] for row in rows]
    return csv_text(TABLE_CSV_HEADER, *columns, eoc), {"rows": rows}


def run_noise_mode(cfg: ExperimentConfig) -> tuple[str, dict]:
    """Reconstruct under measurement noise and report the amplification."""
    grid, timegrid = cfg.grids()
    base = acquire_measurement(cfg, timegrid)
    ref = kernel_reference(cfg.spec, timegrid)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for sigma in cfg.noise_sigmas:
        result = _run_reconstruction(cfg, grid, timegrid, base.with_noise(sigma, rng))
        err_inf, _ = kernel_errors(result.kernel.values, ref, timegrid.tau)
        rows.append({"sigma": sigma, "err_inf": err_inf, "amplification": err_inf / sigma})
    columns = [[row[key] for row in rows] for key in ("sigma", "err_inf", "amplification")]
    return csv_text(NOISE_CSV_HEADER, *columns), {"rows": rows, "seed": cfg.seed}


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
        cfg = resolve_config(parser.parse_args(argv))
        started = time.perf_counter()
        text, report = _MODE_RUNNERS[cfg.mode](cfg)
        if cfg.out:
            emit_csv(text, cfg.out)
        if cfg.json_path:
            report.update(
                mode=cfg.mode,
                config=cfg.echo(),
                timings={"total_seconds": time.perf_counter() - started},
            )
            try:
                emit_json(report, cfg.json_path)
            except BaseException:
                if cfg.out:
                    _discard(cfg.out)
                raise
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
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"kernrec: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"kernrec: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("KERNREC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning  # one line each, without the source location
        return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
