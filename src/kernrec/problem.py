"""Problem definitions: continuous data, time grids, measurement series.

A :class:`ProblemSpec` bundles the data of the evolution problem

    d/dt u - Lap(u) + K(t) h + (K * u)(t) = f(x, t, u, grad u)

with Neumann data g, initial state u0, horizon T and the asserted floor
omega <= min_t |(h(t), 1)|.  Expressions are written in the language of
:mod:`kernrec.expr`; ``p``/``q`` denote the gradient components inside f.

Configs are flat ``key = value`` files with ``#`` comments and the three
section headers ``[problem]``, ``[discretization]``, ``[experiment]``;
expressions are quoted strings.  Each section accepts a fixed set of
keys, and any other key is a ConfigError, so no key is silently ignored.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import expr
from .errors import ConfigError, ExprError, FloorViolationError, ValidationError
from .grid import SpatialGrid

_ALLOWED_VARS = {
    "f": {"x", "y", "t", "u", "p", "q"},
    "h": {"x", "y", "t"},
    "g": {"x", "y", "t"},
    "u0": {"x", "y"},
    "kernel": {"t"},
    "m": {"t"},
    "mprime": {"t"},
    "u_exact": {"x", "y", "t"},
}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition t_i = i * T / n, i = 0..n."""

    T: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValidationError(f"time horizon must be positive and finite, got {self.T}")
        if self.n < 1:
            raise ValidationError(f"need at least one time step, got n={self.n}")

    @property
    def tau(self) -> float:
        return self.T / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """Validated continuous problem data plus optional exact references."""

    name: str
    extents: tuple[float, ...]
    T: float
    omega_floor: float
    f: expr.Expression
    h: expr.Expression
    g: expr.Expression
    u0: expr.Expression
    kernel_exact: expr.Expression | None = None
    m_exact: expr.Expression | None = None
    mprime_exact: expr.Expression | None = None
    u_exact: expr.Expression | None = None

    def __post_init__(self):
        # the chained comparisons are false for NaN as well
        if not 0.0 < self.T < math.inf:
            raise ValidationError(f"time horizon must be positive and finite, got T={self.T}")
        if not 0.0 < self.omega_floor < math.inf:
            raise ValidationError(
                f"floor must be positive and finite, got omega={self.omega_floor}"
            )
        if len(self.extents) not in (1, 2) or not all(0.0 < L < math.inf for L in self.extents):
            raise ValidationError(f"bad domain extents {self.extents}")
        for key in ("f", "h", "g", "u0", "kernel", "m", "mprime", "u_exact"):
            tree = getattr(self, _FIELD_BY_KEY[key])
            if tree is None:
                continue
            allowed = set(_ALLOWED_VARS[key])
            if self.ndim == 1:
                allowed.discard("y")
            used = expr.variables(tree)
            if not used <= allowed:
                raise ValidationError(
                    f"'{key}' uses variables {sorted(used - allowed)}; "
                    f"allowed: {sorted(allowed)}"
                )

    @property
    def ndim(self) -> int:
        return len(self.extents)

    def make_grid(self, cells_x: int, cells_y: int | None = None) -> SpatialGrid:
        if self.ndim == 1:
            return SpatialGrid.interval(self.extents[0], cells_x)
        if cells_y is None:
            cells_y = cells_x
        return SpatialGrid.rectangle(self.extents[0], self.extents[1], cells_x, cells_y)


_FIELD_BY_KEY = {
    "f": "f",
    "h": "h",
    "g": "g",
    "u0": "u0",
    "kernel": "kernel_exact",
    "m": "m_exact",
    "mprime": "mprime_exact",
    "u_exact": "u_exact",
}


@dataclass(frozen=True)
class MeasurementSeries:
    """Samples m_0..m_n with derivative samples m'_1..m'_n.

    ``provenance`` records whether the derivatives were supplied
    ("analytic") or substituted by the backward difference of the
    samples ("discrete-difference").  ``initial_derivative`` carries
    m'(0) when known; it is only needed to pin the kernel value at t=0.
    """

    timegrid: TimeGrid
    values: np.ndarray
    derivatives: np.ndarray
    provenance: str
    initial_derivative: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        derivs = np.asarray(self.derivatives, dtype=float)
        if values.shape != (self.timegrid.n + 1,):
            raise ValidationError(
                f"expected {self.timegrid.n + 1} measurement samples, got {values.shape}"
            )
        if derivs.shape != (self.timegrid.n,):
            raise ValidationError(
                f"expected {self.timegrid.n} derivative samples, got {derivs.shape}"
            )
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
            raise ValidationError("measurement contains non-finite values")
        if self.provenance not in ("analytic", "discrete-difference"):
            raise ValidationError(f"unknown derivative provenance {self.provenance!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivatives", derivs)

    @property
    def m0(self) -> float:
        return float(self.values[0])

    def derivative_at(self, i: int) -> float:
        """m'_i for 1 <= i <= n."""
        if not 1 <= i <= self.timegrid.n:
            raise IndexError(f"derivative index {i} out of range 1..{self.timegrid.n}")
        return float(self.derivatives[i - 1])

    @classmethod
    def from_samples(
        cls,
        timegrid: TimeGrid,
        values: np.ndarray,
        initial_derivative: float | None = None,
    ) -> "MeasurementSeries":
        values = np.asarray(values, dtype=float)
        derivs = np.diff(values) / timegrid.tau
        return cls(timegrid, values, derivs, "discrete-difference", initial_derivative)

    @classmethod
    def from_expressions(
        cls,
        timegrid: TimeGrid,
        m: expr.Expression,
        mprime: expr.Expression | None = None,
    ) -> "MeasurementSeries":
        nodes = timegrid.nodes
        values = np.asarray(expr.evaluate(m, {"t": nodes}), dtype=float)
        values = np.broadcast_to(values, (timegrid.n + 1,)).copy()
        if mprime is not None:
            derivs = np.asarray(expr.evaluate(mprime, {"t": nodes[1:]}), dtype=float)
            derivs = np.broadcast_to(derivs, (timegrid.n,)).copy()
            initial = float(expr.evaluate(mprime, {"t": 0.0}))
            return cls(timegrid, values, derivs, "analytic", initial)
        return cls.from_samples(timegrid, values)

    def restrict(self, coarse: TimeGrid) -> "MeasurementSeries":
        """Restriction onto a coarser grid by index subsampling.

        The fine step count must be an integer multiple of the coarse
        one.  Discrete-difference derivatives are recomputed from the
        subsampled values (the backward difference on the coarse grid).
        """
        if abs(coarse.T - self.timegrid.T) > 1e-12 * max(1.0, self.timegrid.T):
            raise ValidationError("restriction requires the same time horizon")
        if self.timegrid.n % coarse.n != 0:
            raise ValidationError(
                f"fine step count {self.timegrid.n} is not a multiple of {coarse.n}"
            )
        factor = self.timegrid.n // coarse.n
        values = self.values[::factor]
        if self.provenance == "analytic":
            derivs = self.derivatives[factor - 1 :: factor]
            return MeasurementSeries(
                coarse, values, derivs, "analytic", self.initial_derivative
            )
        return MeasurementSeries.from_samples(coarse, values, self.initial_derivative)

    def with_noise(self, sigma: float, rng: np.random.Generator) -> "MeasurementSeries":
        """Additive i.i.d. Gaussian perturbation; derivatives re-differenced."""
        if sigma < 0:
            raise ValidationError("noise level must be nonnegative")
        noisy = self.values + rng.normal(0.0, sigma, size=self.values.shape)
        return MeasurementSeries.from_samples(self.timegrid, noisy)


def measurement_from_csv(text: str, timegrid: TimeGrid) -> MeasurementSeries:
    """Parse a ``t,m[,mprime]`` CSV into a series aligned with ``timegrid``."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and row[0].strip()]
    if rows and not _is_number(rows[0][0]):
        rows = rows[1:]
    if len(rows) != timegrid.n + 1:
        raise ValidationError(
            f"measurement file has {len(rows)} rows, expected {timegrid.n + 1}"
        )
    t = np.array([float(r[0]) for r in rows])
    if not np.allclose(t, timegrid.nodes, rtol=0.0, atol=1e-9 * max(1.0, timegrid.T)):
        raise ValidationError("measurement file times do not match the time grid")
    values = np.array([float(r[1]) for r in rows])
    has_deriv = all(len(r) >= 3 and r[2].strip() != "" for r in rows[1:])
    if has_deriv:
        derivs = np.array([float(r[2]) for r in rows[1:]])
        initial = None
        if len(rows[0]) >= 3 and rows[0][2].strip() != "":
            initial = float(rows[0][2])
        return MeasurementSeries(timegrid, values, derivs, "analytic", initial)
    return MeasurementSeries.from_samples(timegrid, values)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# -- floor validation ------------------------------------------------


def volume_mean_of_h(
    spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid
) -> np.ndarray:
    """(h(t_i), 1) for every time node, via the lumped quadrature."""
    coords = grid.coordinate_fields()
    w = grid.weights.ravel()
    nodes = timegrid.nodes
    if "t" not in expr.variables(spec.h):
        env = dict(coords)
        hv = np.broadcast_to(
            np.asarray(expr.evaluate(spec.h, env), dtype=float), grid.shape
        )
        return np.full(nodes.size, float(np.sum(w * hv.ravel())))
    env = {k: v.reshape(-1, 1) for k, v in coords.items()}
    env["t"] = nodes.reshape(1, -1)
    hv = np.asarray(expr.evaluate(spec.h, env), dtype=float)
    hv = np.broadcast_to(hv, (w.size, nodes.size))
    return w @ hv


def validate_floor(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid) -> None:
    """Discrete check of the standing assumption |(h(t_i), 1)| >= omega.

    A relative slack of 1e-12 absorbs quadrature roundoff so that
    problems sitting exactly on the floor pass.
    """
    means = volume_mean_of_h(spec, grid, timegrid)
    worst = int(np.argmin(np.abs(means)))
    slack = 1e-12 * max(1.0, spec.omega_floor)
    if abs(means[worst]) < spec.omega_floor - slack:
        raise FloorViolationError(
            f"|(h(t),1)| = {abs(means[worst]):.6g} < omega = {spec.omega_floor:g} "
            f"at t = {timegrid.nodes[worst]:g}"
        )


# -- config parsing --------------------------------------------------

_SECTIONS = ("problem", "discretization", "experiment")

# keys each section accepts; [problem] depends on whether it names a preset
_DISCRETIZATION_KEYS = frozenset({"n", "mx", "my"})
_EXPERIMENT_KEYS = frozenset({
    "mode", "out", "json", "derivative", "fine_factor", "noise", "seed",
    "force", "trace", "kernel_denominator_sign",
})
_INLINE_KEYS = frozenset({"name", "lx", "ly", "T", "omega", "measurement_file", *_FIELD_BY_KEY})
_PRESET_KEYS = frozenset({"preset", "T", "omega", "measurement_file"})


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse the flat key = value format into per-section dicts.

    Values keep their raw text except that surrounding double quotes
    are stripped.  Unknown sections, malformed lines, repeated keys and
    keys that [discretization] or [experiment] do not accept raise
    ConfigError; the [problem] keys are checked by spec_from_mapping.
    """
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}] on line {lineno}")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' on line {lineno}: {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"key outside any section on line {lineno}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        if key in sections[current]:
            raise ConfigError(f"key '{key}' repeated in [{current}] on line {lineno}")
        sections[current][key] = value
    _check_keys("discretization", sections["discretization"], _DISCRETIZATION_KEYS)
    _check_keys("experiment", sections["experiment"], _EXPERIMENT_KEYS)
    return sections


def _check_keys(
    section: str, given: Mapping[str, str], accepted: frozenset, context: str = ""
) -> None:
    for key in given:
        if key not in accepted:
            raise ConfigError(
                f"unknown key '{key}' in [{section}]{context}; "
                f"accepted: {', '.join(sorted(accepted))}"
            )


def _get_expr(section: Mapping[str, str], key: str, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError("missing mandatory key", key=key)
        return None
    try:
        return expr.parse(section[key])
    except ExprError as exc:
        raise ConfigError(f"cannot parse expression: {exc}", key=key) from exc


def _get_float(section: Mapping[str, str], key: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError("missing mandatory key", key=key)
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"expected a number, got {section[key]!r}", key=key) from None


def spec_from_mapping(problem: Mapping[str, str]) -> ProblemSpec:
    """Build a ProblemSpec from a [problem] section (preset or inline).

    A preset accepts T, omega and measurement_file, plus its own
    parameters (contaminant only); an inline problem accepts the
    expression, extent and floor keys.  Any other key is a ConfigError.
    """
    preset = problem.get("preset")
    if preset is not None:
        spec = make_preset(preset, problem)
        _check_keys(
            "problem", problem, _PRESET_KEYS | _PRESET_OPTIONS.get(preset, frozenset()),
            f" with preset '{preset}'",
        )
        if "T" in problem:
            spec = replace(spec, T=_get_float(problem, "T"))
        if "omega" in problem:
            spec = replace(spec, omega_floor=_get_float(problem, "omega"))
        return spec
    _check_keys("problem", problem, _INLINE_KEYS)
    lx = _get_float(problem, "lx")
    extents: tuple[float, ...] = (lx,)
    if "ly" in problem:
        extents = (lx, _get_float(problem, "ly"))
    return ProblemSpec(
        name=problem.get("name", "inline"),
        extents=extents,
        T=_get_float(problem, "T"),
        omega_floor=_get_float(problem, "omega"),
        f=_get_expr(problem, "f", required=True),
        h=_get_expr(problem, "h", required=True),
        g=_get_expr(problem, "g", required=True),
        u0=_get_expr(problem, "u0", required=True),
        kernel_exact=_get_expr(problem, "kernel"),
        m_exact=_get_expr(problem, "m"),
        mprime_exact=_get_expr(problem, "mprime"),
        u_exact=_get_expr(problem, "u_exact"),
    )


# -- presets ---------------------------------------------------------


def preset_manufactured_1d() -> ProblemSpec:
    """Closed-form 1D fixture on (0,1) x (0,1].

    The state (1+t)(1+cos(pi x)) with kernel exp(-t) satisfies the
    evolution problem with h = 1, g = 0 and the forcing below; the
    measurement is m(t) = 1 + t.  The memory term has the closed form
    t (1 + cos(pi x)), which the test suite re-verifies by quadrature.
    """
    return ProblemSpec(
        name="manufactured1d",
        extents=(1.0,),
        T=1.0,
        omega_floor=1.0,
        f=expr.parse(
            "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))"
        ),
        h=expr.parse("1"),
        g=expr.parse("0"),
        u0=expr.parse("1+cos(pi*x)"),
        kernel_exact=expr.parse("exp(-t)"),
        m_exact=expr.parse("1+t"),
        mprime_exact=expr.parse("1"),
        u_exact=expr.parse("(1+t)*(1+cos(pi*x))"),
    )


def preset_contaminant(
    rho_b: float = 1.0,
    porosity: float = 1.0,
    kr: float = 1.0,
    kd: float = 1.0,
    s0: float = 1.0,
    v: float = 0.0,
) -> ProblemSpec:
    """Reactive-transport model with first-order sorption kinetics.

    Eliminating the sorbed concentration yields a memory kernel
    K(t) = -(rho_b/porosity) kr^2 kd exp(-kr t), the constant source
    factor h = -s0/(kr kd) and the reaction/advection term
    f = -(rho_b/porosity) kr kd u - v . grad u.
    """
    for key, value in {"rho_b": rho_b, "porosity": porosity, "kr": kr,
                       "kd": kd, "s0": s0, "v": v}.items():
        if not math.isfinite(value):
            raise ValidationError(f"contaminant parameter {key} must be finite, got {value}")
    if kr <= 0:
        raise ValidationError(f"desorption rate must be positive, got kr={kr}")
    if kd == 0:
        raise ValidationError("distribution coefficient kd must be nonzero")
    if porosity <= 0:
        raise ValidationError(f"porosity must be positive, got {porosity}")
    try:
        kr_sq = kr**2
    except OverflowError:  # float ** raises where float * gives inf
        kr_sq = math.inf
    kernel_coeff = rho_b / porosity * kr_sq * kd
    h_value = -s0 / (kr * kd) if kr * kd != 0.0 else math.inf  # kr kd underflowed
    reaction = rho_b / porosity * kr * kd
    for name, value in {"kernel coefficient (rho_b/porosity) kr^2 kd": kernel_coeff,
                        "h = -s0/(kr kd)": h_value,
                        "reaction coefficient (rho_b/porosity) kr kd": reaction}.items():
        if not math.isfinite(value):
            raise ValidationError(f"contaminant {name} is not finite ({value})")
    f_src = f"{(-reaction)!r}*u"
    if v != 0.0:
        f_src += f" + {(-v)!r}*p"
    return ProblemSpec(
        name="contaminant",
        extents=(1.0,),
        T=1.0,
        omega_floor=abs(h_value),
        f=expr.parse(f_src),
        h=expr.parse(repr(h_value)),
        g=expr.parse("0"),
        u0=expr.parse("1+cos(pi*x)"),
        kernel_exact=expr.parse(f"{(-kernel_coeff)!r}*exp(-{kr!r}*t)"),
    )


def preset_zero_1d() -> ProblemSpec:
    """All-zero data; the reconstruction must return exact zeros."""
    return ProblemSpec(
        name="zero1d",
        extents=(1.0,),
        T=1.0,
        omega_floor=1.0,
        f=expr.parse("0"),
        h=expr.parse("1"),
        g=expr.parse("0"),
        u0=expr.parse("0"),
        kernel_exact=expr.parse("0"),
        m_exact=expr.parse("0"),
        mprime_exact=expr.parse("0"),
        u_exact=expr.parse("0"),
    )


PRESETS = {
    "manufactured1d": preset_manufactured_1d,
    "contaminant": preset_contaminant,
    "zero1d": preset_zero_1d,
}

# parameters a preset takes as config keys, beyond _PRESET_KEYS
_PRESET_OPTIONS = {"contaminant": frozenset({"rho_b", "porosity", "kr", "kd", "s0", "v"})}


def make_preset(name: str, options: Mapping[str, str] | None = None) -> ProblemSpec:
    """Instantiate a preset by name, honoring parameter overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    accepted = _PRESET_OPTIONS.get(name, frozenset())
    kwargs = {key: _get_float(options, key) for key in options or {} if key in accepted}
    return PRESETS[name](**kwargs)
