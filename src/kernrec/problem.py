"""Problem definitions: continuous data, time grids, measurement series.

A :class:`ProblemSpec` bundles the data of the evolution problem

    d/dt u - Lap(u) + K(t) h + (K * u)(t) = f(x, t, u, grad u)

with Neumann data g, initial state u0, horizon T and the asserted floor
omega <= min_t |(h(t), 1)|.  Expressions are written in the language of
:mod:`kernrec.expr`; ``p``/``q`` denote the gradient components inside f,
and ``y`` and ``q`` exist on a rectangle only.

Configs are flat ``key = value`` files with ``#`` comments and the three
section headers ``[problem]``, ``[discretization]``, ``[experiment]``;
expressions are quoted strings.  Each section accepts a fixed set of
keys, and any other key is a ConfigError, so no key is silently ignored.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import expr
from .errors import ConfigError, DomainFaultError, ExprError, FloorViolationError, ValidationError
from .grid import COORDINATES, DERIVATIVES, SpatialGrid

# each [problem] expression key: its ProblemSpec field, the variables it
# may use (y and q on a rectangle only) and whether an inline problem needs it
_EXPRESSION_KEYS = {
    "f": ("f", {"x", "y", "t", "u", "p", "q"}, True),
    "h": ("h", {"x", "y", "t"}, True),
    "g": ("g", {"x", "y", "t"}, True),
    "u0": ("u0", {"x", "y"}, True),
    "kernel": ("kernel_exact", {"t"}, False),
    "m": ("m_exact", {"t"}, False),
    "mprime": ("mprime_exact", {"t"}, False),
    "u_exact": ("u_exact", {"x", "y", "t"}, False),
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
        # the step's operator holds 1/tau: a tau that underflows has none
        if not (self.tau > 0.0 and 1.0 / self.tau < math.inf):
            raise ValidationError(
                f"time step tau = T/n = {self.T:g}/{self.n} = {self.tau:g} has no finite 1/tau"
            )

    @property
    def tau(self) -> float:
        return self.T / self.n

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """t_0..t_n, built once and read-only."""
        nodes = np.linspace(0.0, self.T, self.n + 1)
        nodes.flags.writeable = False
        return nodes

    def sample(self, tree: expr.Expression) -> np.ndarray:
        """An expression of t at t_0..t_n, in a new array."""
        return expr.sample(tree, {"t": self.nodes}, (self.n + 1,))


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
    measurement_file: str | None = None  # sampled t,m[,mprime] rows, instead of an exact m

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
        absent = set(COORDINATES[self.ndim :] + DERIVATIVES[self.ndim :])
        for key, (name, allowed, _) in _EXPRESSION_KEYS.items():
            tree = getattr(self, name)
            if tree is None:
                continue
            allowed = allowed - absent
            used = expr.variables(tree)
            if not used <= allowed:
                raise ValidationError(
                    f"'{key}' uses variables {sorted(used - allowed)}; "
                    f"allowed: {sorted(allowed)}"
                )
        if self.measurement_file is not None and self.m_exact is not None:
            raise ConfigError(
                "conflicts with the problem's exact measurement m; give one source",
                key="measurement_file",
            )

    @property
    def ndim(self) -> int:
        return len(self.extents)

    def make_grid(self, cells_x: int, cells_y: int | None = None) -> SpatialGrid:
        """The grid on this domain; cells_y defaults to cells_x, a 1D domain ignores it."""
        cells = (cells_x, cells_x if cells_y is None else cells_y)
        return SpatialGrid(self.extents, cells[: self.ndim])


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """Samples m_0..m_n, the m'_1..m'_n given with them or None, and m'(0)
    or None.

    ``derivatives`` are the given m'_1..m'_n, else the backward
    differences (m_i - m_{i-1}) / tau of the samples, and ``provenance``
    says which: "analytic" or "discrete-difference".
    ``initial_derivative`` carries m'(0) when known; it is only needed
    to pin the kernel value at t=0.  A series compares and hashes by identity.
    """

    timegrid: TimeGrid
    values: np.ndarray
    mprime: np.ndarray | None = None
    initial_derivative: float | None = None
    derivatives: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.timegrid.n
        values = np.asarray(self.values, dtype=float)
        if values.shape != (n + 1,):
            raise ValidationError(f"expected {n + 1} measurement samples, got {values.shape}")
        if self.mprime is None:
            # an overflow here is reported by the finiteness check below
            with np.errstate(all="ignore"):
                derivs = np.diff(values) / self.timegrid.tau
        else:
            derivs = np.asarray(self.mprime, dtype=float)
            if derivs.shape != (n,):
                raise ValidationError(f"expected {n} derivative samples, got {derivs.shape}")
            object.__setattr__(self, "mprime", derivs)
        initial = [] if self.initial_derivative is None else [self.initial_derivative]
        if not all(np.isfinite(a).all() for a in (values, derivs, initial)):
            raise ValidationError("measurement contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivatives", derivs)

    @property
    def provenance(self) -> str:
        return "discrete-difference" if self.mprime is None else "analytic"

    @property
    def m0(self) -> float:
        return float(self.values[0])

    @classmethod
    def from_expressions(
        cls, timegrid: TimeGrid, m: expr.Expression, mprime: expr.Expression | None = None
    ) -> "MeasurementSeries":
        values = timegrid.sample(m)
        if mprime is not None:
            return cls.analytic(timegrid, values, mprime)
        return cls(timegrid, values)

    @classmethod
    def analytic(
        cls, timegrid: TimeGrid, values: np.ndarray, mprime: expr.Expression
    ) -> "MeasurementSeries":
        """Samples m_0..m_n with the exact m' at t_1..t_n and at t = 0."""
        derivs = expr.sample(mprime, {"t": timegrid.nodes[1:]}, (timegrid.n,))
        return cls(timegrid, values, derivs, expr.evaluate(mprime, {"t": 0.0}))

    def restrict(self, coarse: TimeGrid) -> "MeasurementSeries":
        """Restriction onto a coarser grid by index subsampling.

        The fine step count must be an integer multiple of the coarse
        one.  Given derivatives are subsampled; without them, the
        subsampled values are differenced on the coarse grid.
        """
        if abs(coarse.T - self.timegrid.T) > 1e-12 * max(1.0, self.timegrid.T):
            raise ValidationError("restriction requires the same time horizon")
        if self.timegrid.n % coarse.n != 0:
            raise ValidationError(
                f"fine step count {self.timegrid.n} is not a multiple of {coarse.n}"
            )
        factor = self.timegrid.n // coarse.n
        mprime = None if self.mprime is None else self.mprime[factor - 1 :: factor]
        return MeasurementSeries(coarse, self.values[::factor], mprime, self.initial_derivative)

    def with_noise(self, sigma: float, rng: np.random.Generator) -> "MeasurementSeries":
        """Additive i.i.d. Gaussian perturbation; derivatives re-differenced."""
        if sigma < 0:
            raise ValidationError("noise level must be nonnegative")
        with np.errstate(all="ignore"):  # the constructor rejects a non-finite sum
            noisy = self.values + rng.normal(0.0, sigma, size=self.values.shape)
        try:
            return MeasurementSeries(self.timegrid, noisy)
        except ValidationError:  # the samples, or their differences, overflow
            raise ValidationError(
                f"noise of sigma = {sigma:g} made the measurement samples overflow"
            ) from None


def measurement_from_csv(text: str, timegrid: TimeGrid) -> MeasurementSeries:
    """Parse a ``t,m[,mprime]`` CSV into a series aligned with ``timegrid``."""
    import csv  # only a run that reads a measurement file pays for the import

    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    # a header's t is text that is not a number; a blank t is a data row's
    if rows and rows[0][0].strip() and not _is_number(rows[0][0]):
        rows = rows[1:]
    for k, row in enumerate(rows):
        if any(cell.strip() for cell in row[3:]):
            raise ValidationError(f"measurement file data row {k + 1} has a value after m'")
    if len(rows) != timegrid.n + 1:
        steps = f" ({len(rows) - 1} steps)" if rows else ""
        raise ValidationError(
            f"measurement file has {len(rows)} rows{steps}, "
            f"expected {timegrid.n + 1} for n = {timegrid.n}"
        )

    def number(k: int, column: int) -> float:
        """Column ``column`` of data row k (0-based), named 1-based in errors."""
        row = rows[k]
        if len(row) <= column:
            raise ValidationError(
                f"measurement file data row {k + 1} has {len(row)} column(s), "
                f"expected at least {column + 1}"
            )
        try:
            return float(row[column])
        except ValueError:
            raise ValidationError(
                f"measurement file data row {k + 1}: {row[column]!r} is not a number"
            ) from None

    t = np.array([number(k, 0) for k in range(len(rows))])
    if not np.allclose(t, timegrid.nodes, rtol=0.0, atol=1e-9 * max(1.0, timegrid.T)):
        raise ValidationError("measurement file times do not match the time grid")
    values = np.array([number(k, 1) for k in range(len(rows))])
    # m'(0) is optional; m'_1..m'_n are given in every row or in none
    given = [len(row) >= 3 and row[2].strip() != "" for row in rows]
    if any(given[1:]) and not all(given[1:]):
        raise ValidationError(
            f"measurement file data row {given.index(False, 1) + 1} has no m' "
            "although other rows after the first carry one"
        )
    mprime = np.array([number(k, 2) for k in range(1, len(rows))]) if given[1] else None
    return MeasurementSeries(timegrid, values, mprime, number(0, 2) if given[0] else None)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# -- time-node blocks ------------------------------------------------

# Values per block of a walk over the time nodes: one call of a compiled
# tree for many time nodes saves its per-call cost, but a block that
# leaves the cache is slower than node by node.  200 values of
# manufactured1d's f on 8001 nodes took 8-10 ms node by node, 7-9 ms with
# 2**14 values per block, 7-12 ms with 2**17 and 11-13 ms in one block
# (best of 60, on 2 vCPU with numpy 2.4).  One generator, node_pairs,
# serves the step loop and the floor check.  The post-march walks over
# the states use the same bound, which keeps their temporaries in cache.
BLOCK_VALUES = 1 << 14


def block_slices(count: int, row_size: int) -> Iterator[slice]:
    """Consecutive slices of ``count`` rows of ``row_size`` values, each
    at most BLOCK_VALUES values and at least one row."""
    rows = max(1, BLOCK_VALUES // row_size)
    return (slice(lo, min(lo + rows, count)) for lo in range(0, count, rows))


def _pairs(
    compiled: expr.Compiled, t: np.ndarray, grid: SpatialGrid, boundary: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Fields of ``compiled`` at the times of the column ``t``, and their (.,1).

    With ``boundary``, the sums are (.,1)_Gamma and the fields are served
    as the boundary load w_Gamma g.
    """
    values = expr.sample(compiled, {"t": t}, (len(t), *grid.shape))
    sums = grid.integral(values, boundary)
    return (grid.boundary_weights * values if boundary else values), sums


def node_pairs(
    compiled: expr.Compiled, grid: SpatialGrid, boundary: bool, nodes: np.ndarray
) -> Iterator[tuple[np.ndarray, float]]:
    """(field, (field,1)) of ``compiled`` at each of ``nodes``, in order, or
    with ``boundary`` (w_Gamma field, (field,1)_Gamma).

    The one stream from a compiled f, h or g to the step loop and the
    floor check.  A tree of t is evaluated with t bound as a column, one
    block of at most BLOCK_VALUES values when the consumer reaches it,
    each row bit for bit that node's own value.  A block that raises
    DomainFaultError is served again node by node, so the fault is
    raised at its own node, after the nodes before it.  A tree without t
    is evaluated once, at the first node, and repeated.
    """
    column = nodes.reshape(-1, *(1,) * grid.ndim)
    if "t" not in compiled.free:
        fields, sums = _pairs(compiled, column[:1], grid, boundary)
        yield from itertools.repeat((fields[0], sums.item()), len(nodes))
        return
    for rows in block_slices(len(nodes), grid.weights.size):
        t = column[rows]
        try:
            blocks = [_pairs(compiled, t, grid, boundary)]
        except DomainFaultError:
            blocks = (_pairs(compiled, t[k : k + 1], grid, boundary) for k in range(len(t)))
        for fields, sums in blocks:
            yield from zip(fields, sums.tolist())


# -- floor validation ------------------------------------------------


def validate_floor(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid) -> None:
    """Discrete check of the standing assumption |(h(t_i), 1)| >= omega.

    The means are the (h_i,1) of ``node_pairs``, exactly those the
    kernel update divides by, taken one block of time nodes at a time.
    A relative slack of 1e-12 absorbs quadrature roundoff so that
    problems sitting exactly on the floor pass.
    """
    nodes = timegrid.nodes
    pairs = node_pairs(expr.compile(spec.h, grid.coordinate_fields()), grid, False, nodes)
    means = np.fromiter((mean for _, mean in pairs), float, count=len(nodes))
    worst = int(np.argmin(np.abs(means)))
    slack = 1e-12 * max(1.0, spec.omega_floor)
    if abs(means[worst]) < spec.omega_floor - slack:
        raise FloorViolationError(
            f"|(h(t),1)| = {abs(means[worst]):.6g} < omega = {spec.omega_floor:g} "
            f"at t = {nodes[worst]:g}"
        )


# -- config parsing --------------------------------------------------

_SECTIONS = ("problem", "discretization", "experiment")

# keys [problem] accepts, depending on whether it names a preset
_INLINE_KEYS = frozenset({"name", "lx", "ly", "T", "omega", "measurement_file", *_EXPRESSION_KEYS})
_PRESET_KEYS = frozenset({"preset", "T", "omega", "measurement_file"})


def parse_config(
    text: str, accepted: Mapping[str, frozenset] | None = None
) -> dict[str, dict[str, str]]:
    """Parse the flat key = value format into per-section dicts.

    A ``#`` outside double quotes starts a comment.  Values keep their
    raw text except that surrounding double quotes are stripped.
    Unknown sections, malformed lines, repeated keys and keys that
    ``accepted`` does not list for their section raise ConfigError; the
    [problem] keys are checked by spec_from_mapping.
    """
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # the line up to its first # outside double quotes
        line = re.match(r'(?:[^"#]|"[^"]*"?)*', raw).group().strip()
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
    for section, keys in (accepted or {}).items():
        _check_keys(section, sections[section], keys)
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


def _get_expr(section: Mapping[str, str], key: str, required: bool):
    if key not in section:
        if required:
            raise ConfigError("missing mandatory key", key=key)
        return None
    try:
        return expr.parse(section[key])
    except ExprError as exc:
        raise ConfigError(f"cannot parse expression: {exc}", key=key) from exc


def _get_float(section: Mapping[str, str], key: str) -> float:
    if key not in section:
        raise ConfigError("missing mandatory key", key=key)
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"expected a number, got {section[key]!r}", key=key) from None


def spec_from_mapping(problem: Mapping[str, str]) -> ProblemSpec:
    """Build a ProblemSpec from a [problem] section (preset or inline).

    A preset accepts T, omega and measurement_file, plus its own
    parameters (contaminant only); an inline problem accepts the
    expression, extent and floor keys.  Any other key is a ConfigError.
    A preset is the inline section of ``PRESETS`` with the given T, omega
    and measurement_file laid over it.
    """
    preset = problem.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        accepted = _PRESET_OPTIONS.get(preset, frozenset())
        section = PRESETS[preset](
            **{key: _get_float(problem, key) for key in problem if key in accepted}
        )
        _check_keys("problem", problem, _PRESET_KEYS | accepted, f" with preset '{preset}'")
        given = {key: problem[key] for key in ("T", "omega", "measurement_file") if key in problem}
        problem = {**section, **given}
    _check_keys("problem", problem, _INLINE_KEYS)
    lx = _get_float(problem, "lx")
    extents: tuple[float, ...] = (lx,)
    if "ly" in problem:
        extents = (lx, _get_float(problem, "ly"))
    T, omega = _get_float(problem, "T"), _get_float(problem, "omega")
    trees = {
        name: _get_expr(problem, key, required)
        for key, (name, _, required) in _EXPRESSION_KEYS.items()
    }
    return ProblemSpec(
        name=problem.get("name", "inline"), extents=extents, T=T, omega_floor=omega,
        measurement_file=problem.get("measurement_file"), **trees
    )


def make_preset(name: str, options: Mapping[str, str] | None = None) -> ProblemSpec:
    """The spec of a preset, with its options as [problem] keys."""
    return spec_from_mapping({**(options or {}), "preset": name})


# -- presets: the [problem] sections of the built-in problems ----------

# Closed-form 1D fixture on (0,1) x (0,1].  The state (1+t)(1+cos(pi x))
# with kernel exp(-t) satisfies the evolution problem with h = 1, g = 0 and
# the forcing f; the measurement is m(t) = 1 + t.  The memory term has the
# closed form t (1 + cos(pi x)), which the test suite re-verifies by quadrature.
_MANUFACTURED_1D = {
    "name": "manufactured1d", "lx": "1.0", "T": "1.0", "omega": "1.0",
    "f": "(1+cos(pi*x)) + (1+t)*pi^2*cos(pi*x) + exp(-t) + t*(1+cos(pi*x))",
    "h": "1", "g": "0", "u0": "1+cos(pi*x)",
    "kernel": "exp(-t)", "m": "1+t", "mprime": "1", "u_exact": "(1+t)*(1+cos(pi*x))",
}

# All-zero data; the reconstruction must return exact zeros.
_ZERO_1D = {
    "name": "zero1d", "lx": "1.0", "T": "1.0", "omega": "1.0",
    "f": "0", "h": "1", "g": "0", "u0": "0",
    "kernel": "0", "m": "0", "mprime": "0", "u_exact": "0",
}


def _contaminant(
    rho_b: float = 1.0,
    porosity: float = 1.0,
    kr: float = 1.0,
    kd: float = 1.0,
    s0: float = 1.0,
    v: float = 0.0,
) -> dict[str, str]:
    """Reactive-transport model with first-order sorption kinetics.

    Eliminating the sorbed concentration yields a memory kernel
    K(t) = -(rho_b/porosity) kr^2 kd exp(-kr t), the constant source
    factor h = -s0/(kr kd) and the reaction/advection term
    f = -(rho_b/porosity) kr kd u - v . grad u.  The floor is |h|.
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
    if h_value == 0.0:  # s0 = 0, or a quotient that underflows
        raise ValidationError(
            f"contaminant h = -s0/(kr kd) is zero ({h_value!r}), which leaves no positive floor"
        )
    f_src = f"{(-reaction)!r}*u"
    if v != 0.0:
        f_src += f" + {(-v)!r}*p"
    return {
        "name": "contaminant", "lx": "1.0", "T": "1.0", "omega": repr(abs(h_value)),
        "f": f_src, "h": repr(h_value), "g": "0", "u0": "1+cos(pi*x)",
        "kernel": f"{(-kernel_coeff)!r}*exp(-{kr!r}*t)",
    }


# each preset's section, from its parameters (contaminant only)
PRESETS = {
    "manufactured1d": _MANUFACTURED_1D.copy,
    "contaminant": _contaminant,
    "zero1d": _ZERO_1D.copy,
}

# parameters a preset takes as config keys, beyond _PRESET_KEYS
_PRESET_OPTIONS = {"contaminant": frozenset({"rho_b", "porosity", "kr", "kd", "s0", "v"})}
