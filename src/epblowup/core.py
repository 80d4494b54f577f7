"""Model parameters, radial grids, initial profiles, and flow states.

Everything downstream operates on radially symmetric fields sampled at the
centers of a uniform grid on [0, r_max].  Integrals over R^n reduce exactly
to one-dimensional radial integrals, so no n-dimensional mesh is ever built.
RadialGrid.check_profile is the one check on such samples; it raises
GridMismatchError or NonFiniteSampleError.  The gas has two closures:

* ``EP``  -- full compressible flow with an energy equation; the pressure is
  tied to a specific entropy field s through p = exp(s / c_nu) * rho**gamma.
* ``IEP`` -- isentropic flow, p = rho**gamma, no energy equation.

``delta`` selects the sign of the self-consistent force: -1 attracts
(gravity-like), +1 repels (plasma-like).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "GridMismatchError",
    "NonFiniteSampleError",
    "ProfileError",
    "TailViolationError",
    "ModelParams",
    "RadialGrid",
    "unit_ball_measure",
    "ShellGeometry",
    "RadialState",
    "recover_entropy",
    "ProfileSpec",
    "RunSetup",
    "build_profile",
    "parse_config",
    "parse_config_text",
    "TAIL_FRACTION",
]

# The far-field decay check: the density over this fraction of the
# outermost cells must stay within _TAIL_TOL of its peak.
TAIL_FRACTION = 0.05
_TAIL_TOL = 1e-6


class ConfigError(ValueError):
    """Malformed configuration input; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ProfileError(ValueError):
    """Initial data that violates a structural requirement."""


class GridMismatchError(ValueError):
    """Profile and grid disagree on the number of cells."""


class NonFiniteSampleError(ValueError):
    """Profile contains NaN or Inf samples."""


class TailViolationError(ProfileError):
    """Profile does not decay enough before the grid boundary."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension, adiabatic index and force sign of the gas model.

    n must be an integer >= 3 (the interaction kernel -|x|**(2-n) is only
    meaningful there), gamma > 1, delta in {-1, +1}.  Entropy is measured
    in units of the gas constant, so c_nu = 1 / (gamma - 1).
    """

    n: int
    gamma: float
    delta: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError(f"dimension n must be an integer >= 3, got {self.n}")
        if not (self.gamma > 1.0):
            raise ValueError(f"adiabatic index gamma must exceed 1, got {self.gamma}")
        if self.delta not in (-1, 1):
            raise ValueError(f"force sign delta must be -1 or +1, got {self.delta}")

    @property
    def c_nu(self) -> float:
        return 1.0 / (self.gamma - 1.0)


@functools.lru_cache(maxsize=None)
def unit_ball_measure(n: int) -> float:
    """Volume of the unit ball in R^n: pi**(n/2) / Gamma(n/2 + 1)."""
    if int(n) != n or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class ShellGeometry:
    """Metric factors of a grid in dimension n; every array is read-only.

    With r the cell centers and r_in, r_out the inner and outer cell edges:
    weights = (r_out**n - r_in**n) / n, areas = edges**(n-1) (one per face),
    area_jumps = a_out - a_in, inner_cut = r**n - r_in**n,
    shell_sq = r_out**2 - r_in**2, outer_cut = r_out**2 - r**2,
    far_power = r**(2-n) and center_areas = r**(n-1), the face-area power
    at the centers.  weights (midpoint) and simpson are the two
    quadrature rules for int_0^rmax f(r) r**(n-1) dr = f @ rule: simpson is
    composite Simpson on f r**(n-1) across the centers, an even count closed
    by (-1, 8, 5) dr / 12 on the last three samples, plus both half cells
    against the exact measure (r**n / n at the origin).
    """

    weights: np.ndarray
    areas: np.ndarray
    area_jumps: np.ndarray
    inner_cut: np.ndarray
    shell_sq: np.ndarray
    outer_cut: np.ndarray
    far_power: np.ndarray
    center_areas: np.ndarray
    simpson: np.ndarray

    @classmethod
    def of(cls, edges: np.ndarray, centers: np.ndarray, n: int) -> "ShellGeometry":
        r, edges_in, edges_out = centers, edges[:-1], edges[1:]
        areas = edges ** (n - 1)
        cells = len(r)
        odd = cells if cells % 2 else cells - 1  # samples under composite Simpson
        coef = np.zeros(cells)
        coef[1:odd - 1:2], coef[2:odd - 1:2] = 4.0 / 3.0, 2.0 / 3.0
        coef[[0, odd - 1]] += 1.0 / 3.0
        if odd < cells:
            coef[-3:] += np.array([-1.0, 8.0, 5.0]) / 12.0
        simpson = coef * (edges[-1] / cells) * r ** (n - 1)
        simpson[0] += r[0] ** n / n
        simpson[-1] += (edges[-1] ** n - r[-1] ** n) / n
        arrays = (
            (edges_out**n - edges_in**n) / n,
            areas,
            areas[1:] - areas[:-1],
            r**n - edges_in**n,
            edges_out**2 - edges_in**2,
            edges_out**2 - r**2,
            r ** (2.0 - n),
            r ** (n - 1.0),
            simpson,
        )
        for arr in arrays:
            arr.flags.writeable = False
        return cls(*arrays)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered grid on [0, r_max].

    Cell i spans [edges[i], edges[i+1]] and carries its value at centers[i].
    The innermost edge sits exactly at r = 0, which makes the origin a
    zero-area face: no special-casing is needed anywhere downstream.
    Metric factors are computed once per dimension and shared afterwards.
    """

    r_max: float
    cells: int
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    _geometry: dict[int, ShellGeometry] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not (self.r_max > 0.0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if int(self.cells) != self.cells or self.cells < 8:
            raise ValueError(f"need at least 8 cells, got {self.cells}")
        edges = np.linspace(0.0, self.r_max, self.cells + 1)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "centers", 0.5 * (edges[1:] + edges[:-1]))

    @property
    def dr(self) -> float:
        return self.r_max / self.cells

    def geometry(self, n: int) -> ShellGeometry:
        """Metric factors in dimension n, built on first use."""
        geo = self._geometry.get(n)
        if geo is None:
            geo = self._geometry[n] = ShellGeometry.of(self.edges, self.centers, n)
        return geo

    def shell_weights(self, n: int) -> np.ndarray:
        """Exact radial measure of each cell, (r_out**n - r_in**n) / n (read-only)."""
        return self.geometry(n).weights

    def check_profile(self, f, what: str = "profile",
                      ndim: Optional[int] = None) -> np.ndarray:
        """f as floats, once its last axis holds one sample per cell (leading
        axes stack profiles), it has ndim axes if ndim is given, and every
        sample is finite."""
        f = np.asarray(f, dtype=float)
        if f.ndim == 0 or f.shape[-1] != self.cells:
            raise GridMismatchError(
                f"{what} has shape {f.shape} but grid has {self.cells} cells")
        if ndim is not None and f.ndim != ndim:
            raise GridMismatchError(
                f"{what} has shape {f.shape}, not {ndim}-dimensional")
        if not np.isfinite(f).all():
            raise NonFiniteSampleError(f"{what} contains non-finite samples")
        return f

    def tail_slice(self) -> slice:
        k = max(1, int(math.ceil(TAIL_FRACTION * self.cells)))
        return slice(self.cells - k, self.cells)


@dataclass(frozen=True)
class RadialState:
    """Radial flow snapshot: density, radial velocity, pressure.

    Arrays live on grid centers and are treated as immutable.  Derived
    fields are not stored: diagnostics.compute_quantities solves the
    interaction potential from rho, and in EP mode the pressure carries the
    entropy, which recover_entropy reads back where there is gas.
    """

    rho: np.ndarray
    u_r: np.ndarray
    p: np.ndarray
    mode: str
    time: float = 0.0

    def __post_init__(self):
        if self.mode not in ("EP", "IEP"):
            raise ValueError(f"mode must be 'EP' or 'IEP', got {self.mode!r}")
        m = len(self.rho)
        for name in ("u_r", "p"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"field {name} length mismatch")


def recover_entropy(rho: np.ndarray, p: np.ndarray, params: ModelParams,
                    gas: np.ndarray) -> np.ndarray:
    """Specific entropy s = c_nu ln(p / rho**gamma) on the cells where the
    mask gas is true, 0 elsewhere; only gas cells are divided by."""
    s = np.zeros(len(rho))
    s[gas] = params.c_nu * np.log(
        np.maximum(p[gas], 1e-300) / rho[gas] ** params.gamma)
    return s


@dataclass(frozen=True)
class ProfileSpec:
    """Recipe for initial data.

    kind: 'gaussian' (amplitude * exp(-(r/width)**2)),
          'ball'     (amplitude inside r <= radius, zero outside),
          'tabulated' (linear interpolation of table_r/table_rho).
    Velocity law: 'zero', 'linear' (u_r = velocity_alpha * r) or 'tabulated'.
    Entropy law: constant s0, or tabulated via table_s (EP mode only).
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    radius: float = 1.0
    velocity_kind: str = "zero"
    velocity_alpha: float = 0.0
    s0: float = 0.0
    table_r: Optional[Sequence[float]] = None
    table_rho: Optional[Sequence[float]] = None
    table_u: Optional[Sequence[float]] = None
    table_s: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "ball", "tabulated"):
            raise ProfileError(f"unknown profile kind {self.kind!r}")
        if self.velocity_kind not in ("zero", "linear", "tabulated"):
            raise ProfileError(f"unknown velocity kind {self.velocity_kind!r}")
        if self.kind != "tabulated" and not (self.amplitude > 0.0):
            raise ProfileError(f"amplitude must be positive, got {self.amplitude}")


def _interp_table(r: np.ndarray, xs, ys, what: str) -> np.ndarray:
    if xs is None or ys is None:
        raise ProfileError(f"tabulated {what} requires table_r and matching values")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ProfileError(f"tabulated {what}: need matching 1-D tables of length >= 2")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ProfileError(f"tabulated {what}: table has non-finite entries")
    if np.any(np.diff(xs) <= 0):
        raise ProfileError(f"tabulated {what}: radii must be strictly increasing")
    return np.interp(r, xs, ys)


def build_profile(
    spec: ProfileSpec,
    grid: RadialGrid,
    params: ModelParams,
    mode: str = "IEP",
) -> RadialState:
    """Sample a ProfileSpec onto a grid and close the thermodynamics.

    In IEP mode the pressure is rho**gamma and the entropy law is ignored.
    In EP mode p = exp(s / c_nu) * rho**gamma with s from the spec.
    Raises TailViolationError when the density has not decayed to
    1e-6 * max(rho) over the outermost cells, and ProfileError when
    the sampled density is identically zero or any sampled field is not
    finite.
    """
    r = grid.centers
    if spec.kind == "gaussian":
        if not (spec.width > 0.0):
            raise ProfileError(f"gaussian width must be positive, got {spec.width}")
        rho = spec.amplitude * np.exp(-((r / spec.width) ** 2))
    elif spec.kind == "ball":
        if not (spec.radius > 0.0):
            raise ProfileError(f"ball radius must be positive, got {spec.radius}")
        rho = np.where(r <= spec.radius, spec.amplitude, 0.0)
    else:
        rho = _interp_table(r, spec.table_r, spec.table_rho, "density")
        if np.any(rho < 0.0):
            raise ProfileError("tabulated density has negative entries")
    if not np.any(rho > 0.0):
        raise ProfileError(f"{spec.kind} density vanishes identically on the "
                           f"grid (no cell center carries mass)")

    # the potential truncates the far field at r_max, which is only valid
    # for a decayed density
    ratio = float(np.max(rho[grid.tail_slice()])) / float(np.max(rho))
    if ratio > _TAIL_TOL:
        raise TailViolationError(
            f"density tail ratio {ratio:.3e} exceeds {_TAIL_TOL:.1e}; "
            f"enlarge r_max or tighten the profile"
        )

    if spec.velocity_kind == "zero":
        u_r = np.zeros_like(r)
    elif spec.velocity_kind == "linear":
        u_r = spec.velocity_alpha * r
    else:
        u_r = _interp_table(r, spec.table_r, spec.table_u, "velocity")

    if mode == "IEP":
        entropy = None
        p = rho ** params.gamma
    elif mode == "EP":
        if spec.table_s is not None:
            entropy = _interp_table(r, spec.table_r, spec.table_s, "entropy")
        else:
            entropy = np.full_like(r, spec.s0)
        p = np.exp(entropy / params.c_nu) * rho ** params.gamma
    else:
        raise ValueError(f"mode must be 'EP' or 'IEP', got {mode!r}")

    for what, values in (("density", rho), ("velocity", u_r),
                         ("entropy", entropy), ("pressure", p)):
        if values is not None and not np.isfinite(values).all():
            raise ProfileError(f"non-finite {what} in the initial data")
    return RadialState(rho=rho, u_r=u_r, p=p, mode=mode)


# ---------------------------------------------------------------------------
# Plain-text configuration files
# ---------------------------------------------------------------------------
#
# One `key = value` pair per line, '#' starts a comment.  Keys:
#
#   mode                 EP | IEP                        (default IEP)
#   kind                 gaussian | ball | tabulated
#   amplitude, width, radius                             profile shape
#   velocity.kind        zero | linear | tabulated
#   velocity.alpha       slope for the linear law
#   entropy.s0           constant entropy level (EP mode)
#   table.r/.rho/.u/.s   comma-separated tables for tabulated laws
#   grid.r_max, grid.cells
#   model.n, model.gamma, model.delta
#   chlp                 Fourier-inequality constant, positive
#   solver.cfl, solver.t_end  run controls; every step is sampled

_FLOAT_KEYS = {
    "amplitude", "width", "radius", "velocity.alpha", "entropy.s0",
    "grid.r_max", "model.gamma", "chlp",
    "solver.cfl", "solver.t_end",
}
_INT_KEYS = {"grid.cells", "model.n", "model.delta"}
_STR_KEYS = {"mode", "kind", "velocity.kind"}
_LIST_KEYS = {"table.r", "table.rho", "table.u", "table.s"}


@dataclass(frozen=True)
class RunSetup:
    """Everything a CLI entry point needs: model, grid, data, knobs."""

    params: ModelParams
    grid: RadialGrid
    spec: ProfileSpec
    mode: str = "IEP"
    chlp: float = 1.0
    solver_options: dict = field(default_factory=dict)

    def build_state(self) -> RadialState:
        return build_profile(self.spec, self.grid, self.params, self.mode)


def _parse_value(key: str, raw: str, line_no: int):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _LIST_KEYS:
            # build_profile rejects non-finite entries of every table it uses
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        if key not in _FLOAT_KEYS:
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"could not parse value {raw!r} for key {key!r}", line_no)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {raw!r} for key {key!r}", line_no)
    return value


def parse_config_text(text: str) -> RunSetup:
    """Parse a key/value configuration; errors carry 1-based line numbers."""
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r}", line_no)
        key, raw = (part.strip() for part in body.split("=", 1))
        if not key:
            raise ConfigError("empty key", line_no)
        known = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS
        if key not in known:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        values[key] = _parse_value(key, raw, line_no)

    for required in ("kind", "grid.r_max", "grid.cells", "model.n",
                     "model.gamma", "model.delta"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")

    mode = str(values.get("mode", "IEP")).upper()
    if mode not in ("EP", "IEP"):
        raise ConfigError(f"mode must be EP or IEP, got {values['mode']!r}")

    try:
        params = ModelParams(
            n=values["model.n"],
            gamma=values["model.gamma"],
            delta=values["model.delta"],
        )
        grid = RadialGrid(values["grid.r_max"], values["grid.cells"])
        spec = ProfileSpec(
            kind=values["kind"],
            amplitude=values.get("amplitude", 1.0),
            width=values.get("width", 1.0),
            radius=values.get("radius", 1.0),
            velocity_kind=values.get("velocity.kind", "zero"),
            velocity_alpha=values.get("velocity.alpha", 0.0),
            s0=values.get("entropy.s0", 0.0),
            table_r=values.get("table.r"),
            table_rho=values.get("table.rho"),
            table_u=values.get("table.u"),
            table_s=values.get("table.s"),
        )
    except (ValueError, ProfileError) as exc:
        raise ConfigError(str(exc)) from exc

    chlp = values.get("chlp", 1.0)
    if not (chlp > 0.0):
        raise ConfigError(f"chlp must be positive, got {chlp}")

    solver_options = {
        key.split(".", 1)[1]: val
        for key, val in values.items()
        if key.startswith("solver.")
    }
    return RunSetup(
        params=params,
        grid=grid,
        spec=spec,
        mode=mode,
        chlp=chlp,
        solver_options=solver_options,
    )


def parse_config(path) -> RunSetup:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
