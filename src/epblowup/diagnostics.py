"""Moment diagnostics of a snapshot, their time rates and the CSV layout.

One QuantitySet holds every moment of one snapshot (all reduced to radial
integrals):

    mass            M    = int rho
    momentum_weight F    = int rho u . x  = int rho u_r r
    half_inertia    G    = 1/2 int rho |x|^2
    e_kin                = 1/2 int rho u^2
    e_int                = int p / (gamma - 1)
    e_pot                = -(delta/2) int rho Phi
    e_total     E_delta  = e_kin + e_int + e_pot
    h_delta         H    = 2 e_kin + n (gamma - 1) e_int + (n - 2) e_pot
    j_delta         J    = G - (t+1) F + (t+1)**2 E_delta

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
from typing import Iterable, Sequence

import numpy as np

from .core import ModelParams, RadialGrid, RadialState
from .poisson import solve_potential
from .quadrature import integrate_radial

__all__ = [
    "NonuniformSpacingError",
    "QuantitySet",
    "compute_quantities",
    "finite_difference_rates",
    "series_csv",
    "write_series_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("t", "M", "F", "G", "E_k", "E_i", "E_p", "E_delta", "H", "J")
CSV_VERSION_LINE = "# epblowup time-series v2"


class NonuniformSpacingError(ValueError):
    """Central differences need uniformly spaced sample times."""


@dataclass(frozen=True)
class QuantitySet:
    """Moment integrals, virial functional and energy-moment parabola of one
    snapshot.  Satisfies F**2 <= 4 G E_k."""

    time: float
    mass: float
    momentum_weight: float
    half_inertia: float
    e_kin: float
    e_int: float
    e_pot: float
    e_total: float
    h_delta: float
    j_delta: float


def compute_quantities(state: RadialState, grid: RadialGrid,
                       params: ModelParams) -> QuantitySet:
    """Evaluate all moment integrals of a snapshot, the virial functional
    H and the (t+1)-parabola energy moment J.

    The potential energy takes the potential of state.rho from one
    solve_potential call, and the six integrals are one integrate_radial
    call on one (6, N) block of their integrands, filled row by row.  Uses
    the midpoint rule: cell samples are treated as shell averages, which
    matches the finite-volume data model (cell mass is reproduced exactly)
    and keeps discontinuous profiles like uniform balls at full accuracy.
    """
    n, gamma, delta = params.n, params.gamma, params.delta
    r = grid.centers
    rho, u = state.rho, state.u_r

    phi = solve_potential(rho, grid, n)
    # rows: rho, rho u r, rho r**2, rho u**2, p and rho phi
    integrands = np.empty((6, grid.cells))
    integrands[0] = rho
    np.multiply(rho, u, out=integrands[1])
    integrands[1] *= r
    np.multiply(r, r, out=integrands[2])
    integrands[2] *= rho
    np.multiply(u, u, out=integrands[3])
    integrands[3] *= rho
    integrands[4] = state.p
    np.multiply(rho, phi, out=integrands[5])
    mass, momentum_weight, inertia, twice_e_kin, pressure_int, int_rho_phi = \
        integrate_radial(integrands, grid, n, "midpoint").tolist()
    half_inertia = 0.5 * inertia
    e_kin = 0.5 * twice_e_kin
    e_int = pressure_int / (gamma - 1.0)
    e_pot = -0.5 * delta * int_rho_phi
    e_total = e_kin + e_int + e_pot
    h = 2.0 * e_kin + n * (gamma - 1.0) * e_int + (n - 2.0) * e_pot
    tau = state.time + 1.0

    return QuantitySet(
        time=state.time,
        mass=mass,
        momentum_weight=momentum_weight,
        half_inertia=half_inertia,
        e_kin=e_kin,
        e_int=e_int,
        e_pot=e_pot,
        e_total=e_total,
        h_delta=h,
        j_delta=half_inertia - tau * momentum_weight + tau**2 * e_total,
    )


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


def finite_difference_rates(series: Sequence, fields: Iterable[str]
                            ) -> dict[str, np.ndarray]:
    """Central-difference time derivatives of a uniformly sampled series.

    ``series`` is a sequence of QuantitySet (or anything with a ``time``
    attribute and the named float fields).  Returns arrays over the
    interior sample times under key 't' plus one rate array per field.
    Raises NonuniformSpacingError when the sampling is not uniform.
    """
    times = np.array([s.time for s in series], dtype=float)
    dt = _uniform_dt(times)
    out: dict[str, np.ndarray] = {"t": times[1:-1]}
    for name in fields:
        vals = np.array([getattr(s, name) for s in series], dtype=float)
        out[name] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    return out


def series_csv(quantities: Sequence[QuantitySet]) -> str:
    """Render a series in the fixed, versioned CSV layout."""
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for q in quantities:
        row = (
            q.time, q.mass, q.momentum_weight, q.half_inertia, q.e_kin,
            q.e_int, q.e_pot, q.e_total, q.h_delta, q.j_delta,
        )
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def write_series_csv(path, quantities) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(series_csv(quantities))
