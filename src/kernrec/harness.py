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
returns its CSV header and columns and its own part of the JSON report;
``run_cli`` checks that every number in them is finite, formats the CSV
(``csv_text`` states the format) and writes it only for ``--out``, adds
the mode, the configuration echo and the timings, and writes ``--json``,
and a run that exits non-zero leaves no output file.  Synthetic data
always comes from ``forward.run_forward``.

Exit codes: 0 success, 1 usage error (including a config key that its
section does not accept, a flag given twice, an empty ``--preset`` or
``--config``, an option the mode ignores and an output path that names
an input or the other output), 2 numerical failure (singular
update, non-finite state, a non-finite number in the CSV or report, I/O,
an array too large to allocate), 3 validation failure (step threshold,
floor violation, non-finite or non-positive problem numbers, a malformed
measurement file).  A reconstruction's warnings and, with ``--trace``,
its per-step rows go to stderr once it returns or faults, series by
series (``_run_reconstruction``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import expr
from .errors import (
    ConfigError,
    ExprError,
    KernrecError,
    NonFiniteError,
    NumericalError,
    UsageError,
    ValidationError,
)
from .forward import run_forward
from .grid import SpatialGrid
from .inverse import ReconstructionResult, reconstruct, trace_rows
from .problem import (
    MeasurementSeries,
    ProblemSpec,
    TimeGrid,
    measurement_from_csv,
    parse_config,
    spec_from_mapping,
)

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
    derivative: str | None = None  # analytic when the problem has an exact m'
    fine_factor: int = 4
    out: str | None = None
    json_path: str | None = None
    noise_sigmas: list[float] | None = None
    seed: int | None = None
    force: bool = False
    trace: bool = False
    denominator_sign: float = 1.0

    def __post_init__(self) -> None:
        if self.my is None and self.spec.ndim == 2:
            self.my = self.mx
        if self.derivative is None:
            self.derivative = "discrete" if self.spec.mprime_exact is None else "analytic"
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
        if self.spec.measurement_file is not None and self.mode in ("forward", "roundtrip"):
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
        """The run's problem and options; an option the run does not use is None."""
        values = {opt: getattr(self, opt.field) for opt in OPTIONS}
        used = {opt.field: value for opt, value in values.items()
                if not _unused(opt, self.mode, self.spec, value)}
        return {
            "mode": self.mode,
            "problem": self.spec.name,
            "extents": list(self.spec.extents),
            "T": self.spec.T,
            "omega": self.spec.omega_floor,
            "measurement_file": self.spec.measurement_file,
            "n": self.n_list if self.mode == "convergence" else self.n_list[0],
            "mx": self.mx,
            "my": used.get("my"),
            "derivative": used.get("derivative"),
            "fine_factor": used.get("fine_factor"),
            "noise": used.get("noise_sigmas"),
            "seed": used.get("seed"),
            "force": used.get("force"),
            "denominator_sign": used.get("denominator_sign"),
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


def _unused_beside_data(spec, value):
    if spec.m_exact is not None or spec.measurement_file is not None:
        return (
            "has no effect: the problem gives its measurement "
            "(exact m or measurement_file), so no data is generated"
        )


def _derivative_rule(spec, value):
    if spec.measurement_file is not None:
        return "has no effect: m' is read from the measurement_file, or differenced from its samples"
    if value == "analytic" and spec.mprime_exact is None:
        # without one the run would fall back to the backward difference
        return f"analytic needs an exact m' (mprime), and problem {spec.name!r} has none"


class _Option(NamedTuple):
    """One option: flag ``--key`` and config key ``[section] key``.

    ``cast`` reads the text of either alike.  ``modes`` use the option;
    ``rule(spec, value)`` says why the problem's data
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


def _unused(opt: _Option, mode: str, spec, value) -> str | None:
    """Why a ``mode`` run on this problem's data would not use ``value``, or None."""
    if mode not in opt.modes:
        return f"has no effect in {mode} mode"
    return opt.rule(spec, value) if opt.rule else None


OPTIONS = (
    _Option("n", "n_list", _list_of(int), "time steps (comma list for convergence)",
            section="discretization"),
    _Option("mx", "mx", int, "cells along x", section="discretization"),
    _Option("my", "my", int, "cells along y (2D only)", section="discretization",
            rule=lambda spec, value: spec.ndim == 1 and "has no effect: the problem is 1D"),
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


class _Once(argparse.Action):
    """Store a flag's value, or a switch's const; a second use is an error,
    as a repeated config key is, so that no value is silently replaced."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def build_parser() -> _Parser:
    # every mode takes the same options: argparse checks them once, in
    # this parent, and copies them into each mode's parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", action=_Once, help="built-in problem name")
    common.add_argument("--config", action=_Once, help="path to a config file")
    common.add_argument("--T", action=_Once, type=float, help="override the time horizon")
    for opt in OPTIONS:
        if opt.cast is _as_bool:  # a switch: the bare flag reads as "true"
            common.add_argument(opt.flag, action=_Once, nargs=0, const="true", help=opt.help)
        else:
            metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
            common.add_argument(opt.flag, action=_Once, metavar=metavar, help=opt.help)
    parser = _Parser(prog="kernrec", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, blurb in _MODES.items():
        sub.add_parser(mode, help=blurb, parents=[common])
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config file sections with command line overrides.

    Row by row of ``OPTIONS``: the flag, else the key, cast, and rejected
    when the run would not use it.  An option given nowhere keeps its
    ``ExperimentConfig`` default.
    """
    sections: dict[str, dict[str, str]] = {"problem": {}, "discretization": {}, "experiment": {}}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:
                sections = parse_config(fh.read(), _SECTION_KEYS)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        requested = sections["experiment"].get("mode")
        if requested not in (None, args.mode):
            raise UsageError(
                f"config requests mode {requested!r}, command line says {args.mode!r}"
            )

    # --preset and --T are [problem] values that win over the keys
    problem_section = sections["problem"]
    if args.preset is not None:
        problem_section["preset"] = args.preset
    elif not problem_section:
        raise UsageError("no problem given: pass --preset NAME or --config PATH")
    if args.T is not None:
        problem_section["T"] = repr(args.T)
    # a relative measurement file is read from the config's directory
    if problem_section.get("measurement_file"):
        problem_section["measurement_file"] = os.path.join(
            os.path.dirname(args.config), problem_section["measurement_file"]
        )
    spec = spec_from_mapping(problem_section)

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
        reason = _unused(opt, args.mode, spec, value)
        if reason:
            raise UsageError(f"{opt.label} {reason}")
        values[opt.field] = value
    # an output must not overwrite an input or the other output
    files = [(opt.label, values.get(opt.field)) for opt in OPTIONS if opt.key in ("out", "json")]
    files += [("--config", args.config), ("[problem] measurement_file", spec.measurement_file)]
    for i, (label, path) in enumerate(files[:2]):
        for other, other_path in files[i + 1 :]:
            if path and other_path and os.path.realpath(path) == os.path.realpath(other_path):
                raise UsageError(f"{label} and {other} name the same file {path!r}")
    return ExperimentConfig(mode=args.mode, spec=spec, **values)


# -- data acquisition --------------------------------------------------


def acquire_measurement(
    cfg: ExperimentConfig, grid: SpatialGrid, timegrid: TimeGrid
) -> MeasurementSeries:
    """Measurement for a reconstruction on (grid, timegrid).

    Exact expressions, or a file of the last n's samples restricted to
    timegrid (a ProblemSpec holds at most one of the two), else synthetic
    generation from the exact kernel on a finer grid (time factor
    ``fine_factor``, space factor 2 unless the factor is 1, which keeps
    the identical grid for deliberate inverse-crime runs).
    """
    spec = cfg.spec
    if spec.m_exact is not None:
        mprime = spec.mprime_exact if cfg.derivative == "analytic" else None
        return MeasurementSeries.from_expressions(timegrid, spec.m_exact, mprime)
    if spec.measurement_file is not None:
        return _measurement_file(cfg).restrict(timegrid)
    if spec.kernel_exact is not None:
        space_factor = 2 if cfg.fine_factor > 1 else 1
        fine_tg = TimeGrid(timegrid.T, timegrid.n * cfg.fine_factor)
        fine_grid = SpatialGrid(grid.extents, tuple(m * space_factor for m in grid.cells))
        fwd = run_forward(spec, fine_grid, fine_tg, derivative=cfg.derivative)
        return fwd.measurement.restrict(timegrid)
    raise UsageError(
        "problem has no measurement source (exact m, measurement_file, or exact kernel)"
    )


def _measurement_file(cfg: ExperimentConfig) -> MeasurementSeries:
    """The samples of the problem's measurement file on the last n of the
    list, each n of which must divide the file's step count."""
    path = cfg.spec.measurement_file
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read measurement file {path}: {exc}") from exc
    steps = cfg.n_list[-1]
    series = measurement_from_csv(text, TimeGrid(cfg.spec.T, steps))
    for n in cfg.n_list:
        if steps % n:
            raise ValidationError(
                f"--n entry {n} does not divide the measurement file's {steps} steps"
            )
    return series


def _print_series(cfg: ExperimentConfig, texts, rows) -> None:
    """A series' warnings, then, with --trace, its rows, on stderr."""
    for text in texts:
        print(f"kernrec: warning: {text}", file=sys.stderr)
    for i, t, k, den, resid in rows if cfg.trace else ():
        print(f"step={i} t={t:.6g} K={k:.9g} den={den:.9g} resid={resid:.3e}", file=sys.stderr)


def _run_reconstruction(
    cfg: ExperimentConfig,
    grid: SpatialGrid,
    timegrid: TimeGrid,
    measurement: MeasurementSeries | list[MeasurementSeries],
) -> ReconstructionResult:
    """Reconstruct, then print each series' warnings and trace rows, series
    by series: from the result, or from the error of a single series."""
    try:
        result = reconstruct(cfg.spec, grid, timegrid, measurement, force=cfg.force,
                             denominator_sign=cfg.denominator_sign)
    except (KernrecError, MemoryError) as exc:  # a MemoryError may carry neither
        _print_series(cfg, getattr(exc, "warnings", ()), getattr(exc, "trace", ()))
        raise
    each = (result.warnings, result.kernel, result.denominators, result.compat_residuals)
    for texts, *arrays in [each] if isinstance(measurement, MeasurementSeries) else zip(*each):
        _print_series(cfg, texts, trace_rows(timegrid, *arrays))
    return result


def kernel_reference(spec: ProblemSpec, timegrid: TimeGrid) -> np.ndarray | None:
    if spec.kernel_exact is None:
        return None
    return timegrid.sample(spec.kernel_exact)


def kernel_errors(rec: np.ndarray, ref: np.ndarray, tau: float) -> tuple[float, float]:
    # an error that overflows is reported by the run's finiteness check
    with np.errstate(all="ignore"):
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


def _non_finite_at(value, path: str) -> str | None:
    """Path of the first non-finite number in ``value``, or None.

    Dict keys are visited in sorted order, as the report is written, list
    entries and array elements in order; None, text and integers are skipped.
    """
    if isinstance(value, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(value))
        return f"{path}[{bad[0]}]" if bad.size else None
    if isinstance(value, dict):
        found = (_non_finite_at(value[k], f"{path}.{k}" if path else k) for k in sorted(value))
    elif isinstance(value, list):
        found = (_non_finite_at(v, f"{path}[{i}]") for i, v in enumerate(value))
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, found), None)


def _check_finite(header: str, columns: list, report: dict) -> None:
    """Raise NonFiniteError naming the first non-finite number to be written:
    the report's, by key path, then the CSV's, by column and row."""
    where = _non_finite_at(report, "") or next(
        filter(None, map(_non_finite_at, columns, header.split(","))), None
    )
    if where:
        raise NonFiniteError(f"{where} is not finite")


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


def emit_csv(text: str, path: str) -> None:
    _write(text, path)


def emit_json(report: dict, path: str) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", path)


def _reconstruction_outputs(
    series: MeasurementSeries, result: ReconstructionResult, ref: np.ndarray | None
) -> tuple[str, list, dict]:
    """CSV and report of a reconstruction from ``series``."""
    timegrid, k_rec = series.timegrid, result.kernel
    report = {
        "time": {"T": timegrid.T, "n": timegrid.n, "tau": timegrid.tau},
        "derivative_source": series.provenance,
        "threshold": result.threshold._asdict(),
        "diagnostics": result.diagnostics._asdict(),
    }
    if ref is None:  # no exact kernel: empty reference columns, no errors
        blank = [None] * k_rec.size
        return KERNEL_CSV_HEADER, [timegrid.nodes, k_rec, blank, blank], report
    err_inf, err_l2 = kernel_errors(k_rec, ref, timegrid.tau)
    report["errors"] = {"kernel_inf": err_inf, "kernel_l2": err_l2}
    return KERNEL_CSV_HEADER, [timegrid.nodes, k_rec, ref, np.abs(k_rec - ref)], report


# -- modes -------------------------------------------------------------


def run_forward_mode(cfg: ExperimentConfig) -> tuple[str, list, dict]:
    grid, timegrid = cfg.grids()
    fwd = run_forward(cfg.spec, grid, timegrid, derivative=cfg.derivative)
    series = fwd.measurement
    mprime = [series.initial_derivative, *series.derivatives.tolist()]
    return MEASUREMENT_CSV_HEADER, [timegrid.nodes, series.values, mprime], {
        "measurement": {
            "rows": timegrid.n + 1,
            "max_compat_residual": float(np.max(fwd.compat_residuals)),
            "derivative_source": series.provenance,
        }
    }


def run_reconstruct_mode(cfg: ExperimentConfig) -> tuple[str, list, dict]:
    grid, timegrid = cfg.grids()
    series = acquire_measurement(cfg, grid, timegrid)
    result = _run_reconstruction(cfg, grid, timegrid, series)
    return _reconstruction_outputs(series, result, kernel_reference(cfg.spec, timegrid))


def run_roundtrip_mode(cfg: ExperimentConfig) -> tuple[str, list, dict]:
    """Forward data and reconstruction on the identical grid and step."""
    grid, timegrid = cfg.grids()
    fwd = run_forward(cfg.spec, grid, timegrid, derivative="discrete")
    result = _run_reconstruction(cfg, grid, timegrid, fwd.measurement)
    header, columns, report = _reconstruction_outputs(fwd.measurement, result, fwd.kernel)
    report["roundtrip"] = {
        "kernel_max_error": report["errors"]["kernel_inf"],
        "state_max_error": float(np.max(np.abs(result.states - fwd.states))),
        "forward_max_compat_residual": float(np.max(fwd.compat_residuals)),
    }
    return header, columns, report


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
    # a measurement file is read once, before the first level
    data = None if spec.measurement_file is None else _measurement_file(cfg)
    rows: list[dict] = []
    for n in cfg.n_list:
        timegrid = TimeGrid(spec.T, n)
        if data is None:
            series = acquire_measurement(cfg, grid, timegrid)
        else:
            series = data.restrict(timegrid)
        result = _run_reconstruction(cfg, grid, timegrid, series)
        ref = kernel_reference(spec, timegrid)
        err_inf, err_l2 = kernel_errors(result.kernel, ref, timegrid.tau)
        err_u = None
        if spec.u_exact is not None:
            exact_T = expr.evaluate(
                spec.u_exact, {**grid.coordinate_fields(), "t": timegrid.T}
            )
            with np.errstate(all="ignore"):  # as kernel_errors
                err_u = float(np.max(np.abs(result.states[-1] - exact_T)))
        rows.append(
            {
                "n": n,
                "tau": timegrid.tau,
                "err_inf": err_inf,
                "err_l2": err_l2,
                "err_u": err_u,
                "eoc": None,
                "diagnostics": result.diagnostics._asdict(),
            }
        )
    for prev, row in zip(rows, rows[1:]):
        row["eoc"] = eoc_value(prev["err_inf"], row["err_inf"], prev["tau"], row["tau"])
    return rows


def run_convergence_mode(cfg: ExperimentConfig) -> tuple[str, list, dict]:
    rows = convergence_study(cfg)
    columns = [[row[key] for row in rows] for key in ("n", "tau", "err_inf", "err_l2", "err_u")]
    eoc = [EOC_UNDEFINED if row["eoc"] is None else row["eoc"] for row in rows]
    return TABLE_CSV_HEADER, [*columns, eoc], {"rows": rows}


def run_noise_mode(cfg: ExperimentConfig) -> tuple[str, list, dict]:
    """Reconstruct under measurement noise and report the amplification.

    The levels' series are drawn in sigma order and reconstructed in one
    march.  If a draw or the march fails, the levels are drawn again from
    the seed and run one after another, so the first level that fails
    ends the sweep after the levels before it, as when they run alone.
    """
    grid, timegrid = cfg.grids()
    base = acquire_measurement(cfg, grid, timegrid)
    ref = kernel_reference(cfg.spec, timegrid)

    def draws():  # the same draws at each call: reconstruct uses no random generator
        rng = np.random.default_rng(cfg.seed)
        return (base.with_noise(sigma, rng) for sigma in cfg.noise_sigmas)

    error = None
    try:
        result = _run_reconstruction(cfg, grid, timegrid, list(draws()))
    except KernrecError as exc:
        # without its traceback, the error does not hold the batch's states
        error = exc.with_traceback(None)
    if error is not None:
        for series in draws():
            _run_reconstruction(cfg, grid, timegrid, series)
        raise error  # the march faults where no level alone does
    rows = []
    levels = zip(cfg.noise_sigmas, result.kernel, result.compat_residuals, result.denominators)
    for sigma, k_rec, residuals, denominators in levels:
        err = np.abs(k_rec - ref)
        err_inf = float(np.max(err))
        rows.append({"sigma": sigma, "err_inf": err_inf, "amplification": err_inf / sigma,
                     "err_inf_after_0": float(np.max(err[1:])),  # without K_0's bias
                     "max_compat_residual": float(np.max(residuals)),
                     "min_denominator_magnitude": float(np.min(np.abs(denominators)))})
    columns = [[row[key] for row in rows] for key in ("sigma", "err_inf", "amplification")]
    return NOISE_CSV_HEADER, columns, {"rows": rows, "seed": cfg.seed}


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
        header, columns, report = _MODE_RUNNERS[cfg.mode](cfg)
        _check_finite(header, columns, report)
        if cfg.out:
            emit_csv(csv_text(header, *columns), cfg.out)
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


def main(argv: list[str] | None = None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
