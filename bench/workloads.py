"""The benchmark's workloads, the inputs they need and their correctness gate.

Each workload is one ``kernrec`` command line.  Sizes were chosen so
that each stresses a different layer (see ``why``); the ``small`` size
of each is only used by the self-test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# kernrec generates synthetic data on a grid refined 4x in time (its
# default --fine-factor) and 2x in space.
FINE_TIME = 4
FINE_SPACE = 2

# Worst relative measurement-identity residual the README guarantees.
IDENTITY_CEILING = 1e-9

KERNEL_HEADER = ["t", "K_rec", "K_ref", "abs_err"]
NOISE_HEADER = ["sigma", "err_inf", "amplification"]

# The 2D manufactured problem on the unit square:
# state (1+t)(1+cos(pi x)cos(pi y)), kernel exp(-t), m = 1+t.  The
# memory term K*u equals t(1+cos(pi x)cos(pi y)), as in the 1D preset.
MANUFACTURED_2D = """\
[problem]
name = "manufactured2d"
f = "(1+cos(pi*x)*cos(pi*y)) + (1+t)*2*pi^2*cos(pi*x)*cos(pi*y) + exp(-t) + t*(1+cos(pi*x)*cos(pi*y))"
h = "1"
g = "0"
u0 = "1+cos(pi*x)*cos(pi*y)"
lx = 1.0
ly = 1.0
T = 1.0
omega = 1.0
kernel = "exp(-t)"
m = "1+t"
mprime = "1"
u_exact = "(1+t)*(1+cos(pi*x)*cos(pi*y))"
"""
CONFIG_2D = "manufactured2d.ini"


@dataclass(frozen=True)
class Size:
    n: int
    mx: int
    tol: float  # ceiling on kernel_err_inf in the correctness gate


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    problem: str  # preset name, or CONFIG_2D for the generated config
    ndim: int
    full: Size
    small: Size
    noise: tuple[float, ...] = ()

    def size(self, small: bool) -> Size:
        return self.small if small else self.full

    def argv(self, seed: int, out_dir: Path, small: bool) -> list[str]:
        size = self.size(small)
        if self.problem == CONFIG_2D:
            source = ["--config", str(out_dir / CONFIG_2D)]
        else:
            source = ["--preset", self.problem]
        argv = [self.mode, *source, "--n", str(size.n), "--mx", str(size.mx)]
        if self.noise:
            argv += ["--noise", ",".join(repr(s) for s in self.noise), "--seed", str(seed)]
        return argv + ["--out", str(self.csv_path(out_dir)), "--json", str(self.json_path(out_dir))]

    def csv_path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.csv"

    def json_path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.name}.json"

    def node_steps(self, small: bool) -> int:
        """Time steps x grid nodes over every run the command makes."""
        size = self.size(small)
        nodes = (size.mx + 1) ** self.ndim
        if not self.noise:
            return size.n * nodes
        fine = (size.n * FINE_TIME) * (size.mx * FINE_SPACE + 1) ** self.ndim
        return fine + len(self.noise) * size.n * nodes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fine1d",
            why="1D, 200 steps on 8001 nodes: solve-bound (Thomas); a solver change shows here",
            mode="reconstruct",
            problem="manufactured1d",
            ndim=1,
            full=Size(200, 8000, 1e-3),
            small=Size(20, 200, 1e-2),
        ),
        Workload(
            name="long1d",
            why="1D, 4000 steps on 51 nodes: per-step overhead (expressions, history "
            "convolution); a solver change should not show",
            mode="reconstruct",
            problem="manufactured1d",
            ndim=1,
            full=Size(4000, 50, 5e-5),
            small=Size(200, 10, 1e-3),
        ),
        Workload(
            name="grid2d",
            why="2D manufactured problem, 160x160, 50 steps: the only 2D, CG-bound path",
            mode="reconstruct",
            problem=CONFIG_2D,
            ndim=2,
            full=Size(50, 160, 4e-3),
            small=Size(10, 16, 3e-2),
        ),
        Workload(
            name="sweep1d",
            why="contaminant noise sweep: one forward data run (1200x401) then 4 "
            "reconstructions on one grid; data generation and per-grid reuse show here",
            mode="noise-sweep",
            problem="contaminant",
            ndim=1,
            full=Size(300, 200, 1.5e-2),
            small=Size(30, 20, 1e-1),
            noise=(1e-6, 1e-5, 1e-4, 1e-3),
        ),
    )
}


def write_inputs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / CONFIG_2D).write_text(MANUFACTURED_2D, encoding="utf-8")


def _finite_rows(path: Path, header: list[str]) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} != {header}")
    values = [[float(v) for v in row] for row in rows[1:]]
    if not all(math.isfinite(v) for row in values for v in row):
        raise ValueError(f"{path.name}: non-finite value")
    return values


def gate(w: Workload, rc: int, out_dir: Path, small: bool) -> float:
    """Check one run's outputs; return kernel_err_inf or raise ValueError."""
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    size = w.size(small)
    with open(w.json_path(out_dir), encoding="utf-8") as fh:
        report = json.load(fh)
    if w.noise:
        rows = _finite_rows(w.csv_path(out_dir), NOISE_HEADER)
        if [r[0] for r in rows] != list(w.noise):
            raise ValueError(f"noise rows {[r[0] for r in rows]} != {list(w.noise)}")
        err = rows[0][1]
        if err != report["rows"][0]["err_inf"]:
            raise ValueError("CSV and report disagree on err_inf")
    else:
        rows = _finite_rows(w.csv_path(out_dir), KERNEL_HEADER)
        if len(rows) != size.n + 1:
            raise ValueError(f"{len(rows)} kernel rows, expected {size.n + 1}")
        err = report["errors"]["kernel_inf"]
        if not math.isclose(max(r[3] for r in rows), err, rel_tol=1e-12):
            raise ValueError("CSV and report disagree on the kernel error")
    if not err <= size.tol:
        raise ValueError(f"kernel_err_inf {err:.3e} above tolerance {size.tol:g}")
    return err
