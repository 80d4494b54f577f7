"""Radial finite-volume solver for the self-forced gas equations.

Desk-scale scheme meant to exercise the diagnostics, not a production
hydro code.  Conservative update on the radial metric with exact shell
volumes and r**(n-1) face areas, Rusanov (local Lax-Friedrichs) fluxes on
minmod MUSCL face states and two-stage Heun time stepping.  Each stage takes
the interaction force dPhi/dr of its own density from the enclosed moment
(poisson.enclosed_weight_force), so stepping never solves for Phi; Phi is
solved only inside diagnostics.compute_quantities, once per sampled state;
every step is sampled.

A step works on one stacked array U of conserved rows:
  IEP  -- (rho, rho u),       pressure rho**gamma;
  EP   -- (rho, rho u, E),    E = rho u^2 / 2 + p / (gamma - 1),
          energy flux (E + p) u, and (matching the conserved total-energy
          identity of the continuum system) a zero right-hand side in the
          energy equation, so E_k + E_i is conserved up to the outflow flux.
Each Heun stage is one array update of U.  One vacuum policy (_clean)
follows every update: it floors the density and makes cells at or below ten
times the floor inert vacuum -- zero momentum and, in EP mode, exactly the
cold-adiabat energy -- while wet EP energy is held at or above that adiabat.
The signal speed max(|u| + c) of the cleaned input bounds the step; since
vacuum cells are cold, it reads the gas.  The density floor and the clamp of
the recovered pressure at zero act on cells; the minmod reconstruction
preserves both, so the face states need no second clamp.

The momentum source splits into the well-balanced geometric part
p (a_out - a_in) / w -- which cancels the flux of a uniform pressure
exactly -- and the interaction force delta rho dPhi/dr.

Buffers.  A step's cost at desk sizes is the count of numpy calls, not the
arithmetic, so each stage fills blocks allocated fresh in its own call --
the conserved rows, the cell primitives, the face states and fluxes, the
divergence -- with out= and in-place ufuncs, rather than stacking or
np.where-copying temporaries.  Three rules hold throughout:
  - no function writes into its inputs (the state's arrays, _rhs's U, a
    density); _clean alone works in place, on the block its caller filled;
  - nothing is kept between calls: no module-level or per-grid workspace;
  - each element goes through the operations of the formula written in
    the comments, in its order: operands may swap (b*a for a*b, or x *= b),
    but nothing is reassociated, x**2 is only ever x*x, and a division
    stays a division.  The results are therefore bit for bit those of the
    plain expressions.

Runs stop early on positivity failure, on a CFL collapse of the time
step, or when max |d(u_r)/dr| exceeds a thousand times its initial scale
(steepening detector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelParams, RadialGrid, RadialState, recover_entropy
from .diagnostics import (QuantitySet, compute_quantities,
                          finite_difference_rates, NonuniformSpacingError)
from .poisson import enclosed_weight_force

__all__ = ["SolverConfig", "RunResult", "step", "run"]

# Density floor of the vacuum policy; run() requires the initial peak to
# stay at least ten orders above it.
_DENSITY_FLOOR = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Run controls.

    fixed_dt pins the step size (refinement studies); otherwise the step
    adapts to cfl * dr / max(|u| + c).  run() samples diagnostics after
    every step.
    """

    t_end: float
    cfl: float = 0.4
    fixed_dt: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.t_end < math.inf):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.fixed_dt is not None and not (0.0 < self.fixed_dt < math.inf):
            raise ValueError(
                f"fixed_dt must be positive and finite when given, got {self.fixed_dt}")


def _drift_rel(series: list[float]) -> float:
    """max |x - x0| / max(|x0|, 1e-300) over a series that starts at x0."""
    x0 = series[0]
    return max(abs(x - x0) for x in series) / max(abs(x0), 1e-300)


@dataclass
class RunResult:
    """Diagnostics series plus how (and when) the run ended.

    quantities holds one QuantitySet per sample, H and J included.
    stop_reason is one of 't_end', 'positivity', 'cfl', 'gradient-blowup'.
    max_grad_u is the largest wet-cell max |d(u_r)/dr| over the samples;
    min_entropy is the smallest entropy over the samples (None in IEP mode),
    read on cells denser than a thousand times the density floor and taken
    as 0 on the rest.
    """

    quantities: list[QuantitySet]
    stop_reason: str
    final_state: RadialState
    steps_taken: int
    max_grad_u: float
    min_entropy: Optional[float]

    @property
    def times(self) -> np.ndarray:
        return np.array([q.time for q in self.quantities])

    def summary(self) -> dict:
        qs = self.quantities
        out = {
            "stop_reason": self.stop_reason,
            "steps": self.steps_taken,
            "t_final": qs[-1].time,
            "samples": len(qs),
            "mass_drift_rel": _drift_rel([q.mass for q in qs]),
            "max_grad_u": self.max_grad_u,
        }
        # each mode has its own conserved energy; the other one is not a law
        if self.final_state.mode == "IEP":
            out["ie_drift_rel"] = _drift_rel([q.e_total for q in qs])
            out["ek_ei_drift_rel"] = None
        else:
            out["ie_drift_rel"] = None
            out["ek_ei_drift_rel"] = _drift_rel([q.e_kin + q.e_int for q in qs])
        if self.min_entropy is not None:
            out["min_entropy"] = self.min_entropy
        # identity residuals need uniform sampling; report null otherwise
        try:
            rates = finite_difference_rates(qs, ("mass", "half_inertia",
                                                 "momentum_weight"))
            f_mid = np.array([q.momentum_weight for q in qs[1:-1]])
            virials = np.array([q.h_delta for q in qs[1:-1]])
            out["residual_dG_dt"] = float(np.max(np.abs(rates["half_inertia"] - f_mid)))
            out["residual_dF_dt"] = float(np.max(np.abs(rates["momentum_weight"] - virials)))
            out["residual_dM_dt"] = float(np.max(np.abs(rates["mass"])))
        except NonuniformSpacingError:
            out["residual_dG_dt"] = None
            out["residual_dF_dt"] = None
            out["residual_dM_dt"] = None
        return out


# --------------------------------------------------------------------------
# Scheme internals
# --------------------------------------------------------------------------

def _conserved(rho: np.ndarray, u: np.ndarray, p: np.ndarray, gamma: float,
               energy: bool) -> np.ndarray:
    """Conserved rows (rho, rho u), plus E when energy is set, of primitives
    with any leading axes, as one fresh (..., rows, N) block."""
    U = np.empty(rho.shape[:-1] + (3 if energy else 2, rho.shape[-1]))
    U[..., 0, :] = rho
    np.multiply(rho, u, out=U[..., 1, :])
    if energy:
        # E = p / (gamma - 1) + (0.5 rho) u**2
        e = np.multiply(u, u, out=U[..., 2, :])
        e *= 0.5 * rho
        e += p / (gamma - 1.0)
    return U


def _clean(U: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the vacuum policy to the conserved rows U in place; returns U.

    Density is floored, and cells at or below ten times the floor are
    vacuum: they lose their momentum and, in EP mode, hold exactly the
    energy e_min of a cold adiabat far below any physical state, so energy
    flux into them cannot heat them and their sound speed cannot set the
    step.  Wet EP cells are held at or above kinetic energy plus e_min: the
    force kick can push kinetic energy past the total, and the recovered
    pressure must stay positive.
    """
    floor = _DENSITY_FLOOR
    rho = np.maximum(U[0], floor, out=U[0])
    # a nan density is not wet, so it counts as vacuum
    vacuum = ~(rho > 10.0 * floor)
    np.copyto(U[1], 0.0, where=vacuum)
    if len(U) == 3:
        # e_min = 1e-12 rho**gamma / (gamma - 1); wet cells keep
        # E >= 0.5 mom**2 / rho + e_min, vacuum cells take e_min
        e_min = rho**gamma
        e_min *= 1e-12
        e_min /= gamma - 1.0
        e_floor = np.multiply(U[1], U[1])
        e_floor *= 0.5
        e_floor /= rho
        e_floor += e_min
        np.maximum(U[2], e_floor, out=U[2])
        np.copyto(U[2], e_min, where=vacuum)
    return U


def _primitives(U: np.ndarray, gamma: float):
    """Cell primitives of clean conserved rows as one fresh (3, N) block
    (rho, u, p), and the sound speed c.

    The pressure is returned as recovered, so a negative value stays
    visible; the sound speed takes its non-negative part.
    """
    rho, mom = U[0], U[1]
    prim = np.empty((3, U.shape[1]))
    prim[0] = rho
    np.divide(mom, rho, out=prim[1])
    p = prim[2]
    if len(U) == 3:
        # p = (gamma - 1) (E - 0.5 mom**2 / rho)
        np.multiply(mom, mom, out=p)
        p *= 0.5
        p /= rho
        np.subtract(U[2], p, out=p)
        p *= gamma - 1.0
    else:
        p[:] = rho**gamma
    # c = sqrt(gamma max(p, 0) / rho)
    c = np.maximum(p, 0.0)
    c *= gamma
    c /= rho
    np.sqrt(c, out=c)
    return prim, c


def _minmod(a: np.ndarray, b: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """The slope of smaller magnitude where a and b share a strict sign,
    else +0.0 (also where either is nan); written into out when given."""
    # fmax/fmin map nan to 0; adding +0.0 turns a -0.0 sum into +0.0.
    # The upper part comes first, so out may alias a or b.
    upper = np.maximum(a, b)
    np.fmin(upper, 0.0, out=upper)
    lower = np.minimum(a, b, out=out)
    np.fmax(lower, 0.0, out=lower)
    lower += upper
    lower += 0.0
    return lower


def _reconstruct(v: np.ndarray) -> np.ndarray:
    """Minmod MUSCL face states of each row of v at interior faces 1..N-1
    plus the outflow face N, stacked as one (2, rows, N) array [left, right].

    No face of a row lies below the row's smallest value: a limited face
    lies between its cell's value a and the midpoint with a neighbour b,
    and fl(a - fl(0.5 fl(a - b))) >= b whenever a >= b, because rounding is
    monotone; the first, last and outflow faces copy cells.  A floor or a
    clamp that holds on the cells therefore holds on the faces.
    """
    rows, cells = v.shape
    # all rows go through one pass over the flattened array; the entries
    # that straddle two rows are overwritten by the outflow faces below
    flat = v.reshape(-1)
    faces = np.empty((2, rows * cells))
    left, right = faces
    d = flat[1:] - flat[:-1]
    half = np.empty_like(flat)
    _minmod(d[:-1], d[1:], out=half[1:-1])
    half[1:-1] *= 0.5
    # no slope in the first and last cell of each row
    half[::cells] = 0.0
    half[cells - 1::cells] = 0.0
    np.add(flat, half, out=left)
    np.subtract(flat[1:], half[1:], out=right[:-1])
    faces = faces.reshape(2, rows, cells)
    # outflow face: extrapolate the last cell as-is
    faces[:, :, -1] = v[:, -1]
    return faces


def _rhs(U: np.ndarray, grid: RadialGrid, params: ModelParams):
    """Time derivative of the clean conserved rows U, and the largest cell
    signal speed |u| + c."""
    gamma, n = params.gamma, params.n
    rows, cells = U.shape
    rho = U[0]
    # the pressure is clamped at zero for the faces and the source
    prim, c = _primitives(U, gamma)
    u, p = prim[1], prim[2]
    np.maximum(p, 0.0, out=p)
    c += np.abs(u)
    speed = float(c.max())

    # every face quantity below is a (2, ...) pair of left and right
    # states, floored and clamped as the cells are (_reconstruct);
    # half_s = 0.5 max(signal_l, signal_r)
    faces = _reconstruct(prim)
    rho_f, u_f, p_f = faces[:, 0], faces[:, 1], faces[:, 2]
    signal_f = np.multiply(p_f, gamma)
    signal_f /= rho_f
    np.sqrt(signal_f, out=signal_f)
    signal_f += np.abs(u_f)
    half_s = np.maximum(signal_f[0], signal_f[1])
    half_s *= 0.5

    # conserved face states (rho, mom, E) and their fluxes
    # (mom, mom u + p, (E + p) u), one (2, rows, N) block each
    states = _conserved(rho_f, u_f, p_f, gamma, rows == 3)
    fluxes = np.empty((2, rows, cells))
    mom_f = states[:, 1]
    fluxes[:, 0] = mom_f
    np.multiply(mom_f, u_f, out=fluxes[:, 1])
    fluxes[:, 1] += p_f
    if rows == 3:
        np.add(states[:, 2], p_f, out=fluxes[:, 2])
        fluxes[:, 2] *= u_f

    # Rusanov flux 0.5 (F_l + F_r) - half_s (U_r - U_l) over all rows at
    # once, times the face areas r**(n-1) (zero at the origin); the origin
    # face needs no flux at all
    geo = grid.geometry(n)
    w = geo.weights
    area_flux = np.empty((rows, cells + 1))
    area_flux[:, 0] = 0.0
    flux = np.add(fluxes[0], fluxes[1], out=area_flux[:, 1:])
    flux *= 0.5
    jump = np.subtract(states[1], states[0], out=states[1])
    jump *= half_s
    flux -= jump
    flux *= geo.areas[1:]

    # divergence -(a_out flux_out - a_in flux_in) / w over the exact shell
    # volumes w
    dU = np.subtract(area_flux[:, 1:], area_flux[:, :-1])
    np.negative(dU, out=dU)
    dU /= w
    # well-balanced geometric source p (a_out - a_in) / w: cancels the area
    # difference of a uniform pressure exactly; then the interaction force
    # (delta rho) dPhi/dr
    source = np.multiply(p, geo.area_jumps)
    source /= w
    dU[1] += source
    force = np.multiply(rho, params.delta)
    force *= enclosed_weight_force(rho, grid, n)
    dU[1] += force
    return dU, speed


def step(state: RadialState, grid: RadialGrid, params: ModelParams,
         cfg: SolverConfig, dt: float) -> tuple[RadialState, dict]:
    """Advance one Heun step of at most dt; returns (new state, info).

    The conserved rows U of the state are cleaned once, then each stage is
    one array update followed by the vacuum policy.  The step is dt held to
    the CFL limit cfl * dr / max(|u| + c) of the cleaned input, or dt
    itself when cfg.fixed_dt is set.  info carries the dt used, the CFL
    limit dt_cfl and the positivity flag, which reads the recovered
    pressure without a clamp at zero.
    """
    gamma = params.gamma
    U0 = _clean(_conserved(state.rho, state.u_r, state.p, gamma,
                           state.mode == "EP"), gamma)
    dU0, speed = _rhs(U0, grid, params)
    dt_cfl = cfg.cfl * grid.dr / max(speed, 1e-300)
    if cfg.fixed_dt is None:
        dt = min(dt, dt_cfl)

    # U1 = U0 + dt dU0, filled into dU0's block
    U1 = dU0
    U1 *= dt
    U1 += U0
    _clean(U1, gamma)
    dU1, _ = _rhs(U1, grid, params)
    # U2 = (U0 + U1 + dt dU1) / 2, filled into U1's block
    dU1 *= dt
    U2 = U1
    U2 += U0
    U2 += dU1
    U2 *= 0.5
    _clean(U2, gamma)

    prim, _ = _primitives(U2, gamma)
    new = RadialState(rho=U2[0], u_r=prim[1], p=prim[2], mode=state.mode,
                      time=state.time + dt)
    ok = bool(np.isfinite(new.rho).all() and np.isfinite(new.u_r).all()
              and np.isfinite(new.p).all() and (new.p >= 0.0).all())
    return new, {"dt": dt, "dt_cfl": dt_cfl, "positive": ok}


def _max_grad(state: RadialState, grid: RadialGrid, rho_scale: float) -> float:
    # np.gradient's uniform-spacing formulas: central differences inside,
    # one-sided ones in the first and last cell
    u, dr = state.u_r, grid.dr
    du = np.empty_like(u)
    np.subtract(u[2:], u[:-2], out=du[1:-1])
    du[1:-1] /= 2.0 * dr
    du[0] = (u[1] - u[0]) / dr
    du[-1] = (u[-1] - u[-2]) / dr
    # the numerical skin where gas meets floored vacuum carries a velocity
    # jump that sharpens with resolution; it is not a steepening of the
    # solution itself, so only cells with appreciable density count. The
    # cut is relative to the initial peak, not the current one: a collapse
    # spike raises the current peak by orders of magnitude and a cut tied
    # to it would silence the still-perfectly-wet envelope.
    wet = state.rho > 1e-6 * rho_scale
    return float(np.abs(np.where(wet, du, 0.0)).max())


def run(state: RadialState, grid: RadialGrid, params: ModelParams,
        cfg: SolverConfig) -> RunResult:
    """March to t_end (or an early stop), sampling diagnostics on the way.

    Each step is asked for the base step, cut to what is left of t_end,
    and step() holds it to its CFL limit.  The base step is the initial CFL
    limit with 10% headroom, rounded to divide t_end; healthy runs therefore
    sample at exactly uniform times, and the series only turns nonuniform
    when the flow genuinely accelerates.  The initial state and every
    step are sampled, each with one compute_quantities call, which solves
    the sampled state's potential.
    """
    peak0 = float(np.max(state.rho))
    if peak0 <= 0.0:
        raise ValueError("initial density vanishes; nothing to evolve")
    if _DENSITY_FLOOR > 1e-10 * peak0:
        raise ValueError(
            f"initial peak density {peak0:.3e} is within ten orders of the "
            f"density floor {_DENSITY_FLOOR:.0e}"
        )

    # the cleaned initial data give the step's own signal speed, and the
    # steepening detector's scale: the initial wet-cell velocity gradient,
    # or an acoustic scale when the initial flow is at rest
    gamma = params.gamma
    U0 = _clean(_conserved(state.rho, state.u_r, state.p, gamma,
                           state.mode == "EP"), gamma)
    prim, c = _primitives(U0, gamma)
    u = prim[1]
    grad0 = _max_grad(state, grid, peak0)
    grad_cap = 1e3 * max(grad0, float(np.max(c)) / grid.r_max)

    if cfg.fixed_dt is not None:
        dt_base = cfg.fixed_dt
    else:
        speed0 = float((np.abs(u) + c).max())
        dt_raw = 0.9 * cfg.cfl * grid.dr / max(speed0, 1e-300)
        dt_base = cfg.t_end / max(1, math.ceil(cfg.t_end / dt_raw))

    quantities, grads, entropies = [], [], []

    def sample(s: RadialState, max_grad: float) -> None:
        quantities.append(compute_quantities(s, grid, params))
        grads.append(max_grad)
        if s.mode == "EP":
            # the entropy is only meaningful where there is gas
            gas = s.rho > 1e3 * _DENSITY_FLOOR
            entropies.append(float(np.min(
                recover_entropy(s.rho, s.p, params, gas))))

    sample(state, grad0)

    stop_reason = "t_end"
    steps = 0
    current = state
    while (stop_reason == "t_end"
           and current.time < cfg.t_end - 1e-12 * cfg.t_end):
        current, info = step(current, grid, params, cfg,
                             min(dt_base, cfg.t_end - current.time))
        steps += 1
        max_grad = _max_grad(current, grid, peak0)
        sample(current, max_grad)
        if not info["positive"]:
            stop_reason = "positivity"
        elif info["dt"] < 1e-13 * cfg.t_end:
            stop_reason = "cfl"
        elif max_grad > grad_cap:
            stop_reason = "gradient-blowup"

    return RunResult(
        quantities=quantities,
        stop_reason=stop_reason,
        final_state=current,
        steps_taken=steps,
        max_grad_u=max(grads),
        min_entropy=min(entropies) if entropies else None,
    )

