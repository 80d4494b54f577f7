"""Moment diagnostics: conserved quantities, virial functionals, rates.

Quantities (all reduced to radial integrals):

    mass            M    = int rho
    momentum_weight F    = int rho u . x  = int rho u_r r
    half_inertia    G    = 1/2 int rho |x|^2
    e_kin                = 1/2 int rho u^2
    e_int                = int p / (gamma - 1)
    e_pot                = -(delta/2) int rho Phi

The dynamics move these along rigid identities: M is constant, dG/dt = F,
and dF/dt equals the virial functional H.  The J functional folds the
conserved energy into a parabola in (t+1); its time series is what the
blow-up certificates squeeze.

Under the polytropic closure e_int is the pressure integral I, so the
isentropic functionals I, IE_delta, IH_delta and IJ_delta are the same
integrals as E_i, E_delta, H_delta and J_delta and are computed once.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ModelParams, RadialGrid, RadialState
from .quadrature import integrate_radial

__all__ = [
    "MissingPotentialError",
    "NonuniformSpacingError",
    "QuantitySet",
    "FunctionalSet",
    "compute_quantities",
    "compute_functionals",
    "finite_difference_rates",
    "series_csv",
    "write_series_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("t", "M", "F", "G", "E_k", "E_i", "E_p", "E_delta", "H", "J")
CSV_VERSION_LINE = "# epblowup time-series v2"


class MissingPotentialError(ValueError):
    """State has no attached potential; solve it before taking moments."""


class NonuniformSpacingError(ValueError):
    """Central differences need uniformly spaced sample times."""


@dataclass(frozen=True)
class QuantitySet:
    """Moment integrals of one snapshot.  Satisfies F**2 <= 4 G E_k."""

    time: float
    mass: float
    momentum_weight: float
    half_inertia: float
    e_kin: float
    e_int: float
    e_pot: float
    e_total: float
    int_rho_phi: float


@dataclass(frozen=True)
class FunctionalSet:
    """Virial functionals and energy-moment parabolas of one snapshot."""

    time: float
    h_delta: float
    j_delta: float


def compute_quantities(state: RadialState, grid: RadialGrid,
                       params: ModelParams) -> QuantitySet:
    """Evaluate all moment integrals of a snapshot (potential required).

    Uses the midpoint rule: cell samples are treated as shell averages,
    which matches the finite-volume data model (cell mass is reproduced
    exactly) and keeps discontinuous profiles like uniform balls at full
    accuracy.
    """
    if state.phi is None:
        raise MissingPotentialError(
            "state carries no potential; run solve_potential and attach it first"
        )
    n, gamma, delta = params.n, params.gamma, params.delta
    r = grid.centers

    rule = "midpoint"
    mass = integrate_radial(state.rho, grid, n, rule)
    momentum_weight = integrate_radial(state.rho * state.u_r * r, grid, n, rule)
    half_inertia = 0.5 * integrate_radial(state.rho * r**2, grid, n, rule)
    e_kin = 0.5 * integrate_radial(state.rho * state.u_r**2, grid, n, rule)
    e_int = integrate_radial(state.p, grid, n, rule) / (gamma - 1.0)
    int_rho_phi = integrate_radial(state.rho * state.phi, grid, n, rule)
    e_pot = -0.5 * delta * int_rho_phi

    return QuantitySet(
        time=state.time,
        mass=mass,
        momentum_weight=momentum_weight,
        half_inertia=half_inertia,
        e_kin=e_kin,
        e_int=e_int,
        e_pot=e_pot,
        e_total=e_kin + e_int + e_pot,
        int_rho_phi=int_rho_phi,
    )


def compute_functionals(q: QuantitySet, params: ModelParams) -> FunctionalSet:
    """Virial functionals and the (t+1)-parabola energy moments."""
    n, gamma, delta = params.n, params.gamma, params.delta
    h = 2.0 * q.e_kin + n * (gamma - 1.0) * q.e_int \
        - 0.5 * delta * (n - 2.0) * q.int_rho_phi
    tau = q.time + 1.0
    j = q.half_inertia - tau * q.momentum_weight + tau**2 * q.e_total
    return FunctionalSet(time=q.time, h_delta=h, j_delta=j)


def _uniform_dt(times: np.ndarray) -> float:
    if len(times) < 3:
        raise NonuniformSpacingError("need at least 3 samples for central differences")
    steps = np.diff(times)
    dt = float(steps[0])
    if dt <= 0.0 or np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1e-300):
        raise NonuniformSpacingError(
            f"sample times are not uniformly spaced (dt varies within "
            f"[{steps.min():.6g}, {steps.max():.6g}])"
        )
    return dt


def finite_difference_rates(series: Sequence, fields: Optional[Iterable[str]] = None
                            ) -> dict[str, np.ndarray]:
    """Central-difference time derivatives of a uniformly sampled series.

    ``series`` is a sequence of QuantitySet or FunctionalSet (anything with
    a ``time`` attribute and float fields).  Returns arrays over the
    interior sample times under key 't' plus one rate array per field.
    Raises NonuniformSpacingError when the sampling is not uniform.
    """
    times = np.array([s.time for s in series], dtype=float)
    dt = _uniform_dt(times)
    if fields is None:
        first = series[0]
        fields = [
            name for name in vars(first)
            if name != "time" and isinstance(getattr(first, name), float)
        ]
    out: dict[str, np.ndarray] = {"t": times[1:-1]}
    for name in fields:
        vals = np.array([getattr(s, name) for s in series], dtype=float)
        out[name] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    return out


def series_csv(quantities: Sequence[QuantitySet],
               functionals: Sequence[FunctionalSet]) -> str:
    """Render paired series in the fixed, versioned CSV layout."""
    if len(quantities) != len(functionals):
        raise ValueError("quantity and functional series must pair up")
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for q, f in zip(quantities, functionals):
        row = (
            q.time, q.mass, q.momentum_weight, q.half_inertia, q.e_kin,
            q.e_int, q.e_pot, q.e_total, f.h_delta, f.j_delta,
        )
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def write_series_csv(path, quantities, functionals) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(series_csv(quantities, functionals))
