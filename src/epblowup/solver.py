"""Radial finite-volume solver for the self-forced gas equations.

Desk-scale scheme meant to exercise the diagnostics, not a production
hydro code.  Conservative update on the radial metric with exact shell
volumes and r**(n-1) face areas, Rusanov (local Lax-Friedrichs) fluxes,
optional minmod MUSCL reconstruction, two-stage Heun time stepping, and the
potential of each stage's density.  Stage 2 always solves for it; stage 1
reuses the potential that run() solved to sample the previous step, which
is the same array a fresh solve would return, and solves only after steps
that were not sampled.

Closures:
  IEP  -- conserved (rho, rho u),       pressure rho**gamma;
  EP   -- conserved (rho, rho u, E),    E = rho u^2 / 2 + p / (gamma - 1),
          energy flux (E + p) u, and (matching the conserved total-energy
          identity of the continuum system) a zero right-hand side in the
          energy equation.  Set work_term=True to add the force work
          delta rho u dPhi/dr for comparison runs.

The momentum source splits into the well-balanced geometric part
p (a_out - a_in) / w -- which cancels the flux of a uniform pressure
exactly -- and the interaction force delta rho dPhi/dr.

Runs stop early on positivity failure, on a CFL collapse of the time
step, or when max |d(u_r)/dr| exceeds a thousand times its initial scale
(steepening detector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ModelParams, RadialGrid, RadialState
from .diagnostics import (FunctionalSet, QuantitySet, compute_functionals,
                          compute_quantities, finite_difference_rates,
                          NonuniformSpacingError)
from .poisson import radial_force, solve_potential

__all__ = ["SolverConfig", "RunResult", "step", "run"]


@dataclass(frozen=True)
class SolverConfig:
    """Run controls.

    fixed_dt pins the step size (refinement studies); otherwise the step
    adapts to cfl * dr / max(|u| + c).  output_stride samples diagnostics
    every so many steps.  density_floor must stay at least ten orders below
    the initial peak density; it is revalidated at run start.
    """

    t_end: float
    cfl: float = 0.4
    density_floor: float = 1e-14
    reconstruction: str = "muscl"
    output_stride: int = 1
    fixed_dt: Optional[float] = None
    work_term: bool = False

    def __post_init__(self):
        if not (self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.cfl < 1.0):
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (self.density_floor > 0.0):
            raise ValueError("density_floor must be positive")
        if self.reconstruction not in ("pc", "muscl"):
            raise ValueError(f"unknown reconstruction {self.reconstruction!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.fixed_dt is not None and self.fixed_dt <= 0.0:
            raise ValueError("fixed_dt must be positive when given")


@dataclass
class RunResult:
    """Diagnostics series plus how (and when) the run ended.

    stop_reason is one of 't_end', 'positivity', 'cfl', 'gradient-blowup'.
    max_grad_u is the largest wet-cell max |d(u_r)/dr| over the samples;
    min_entropy is the smallest entropy over the samples (None in IEP mode).
    """

    quantities: list[QuantitySet]
    functionals: list[FunctionalSet]
    stop_reason: str
    final_state: RadialState
    steps_taken: int
    max_grad_u: float
    min_entropy: Optional[float]

    @property
    def times(self) -> np.ndarray:
        return np.array([q.time for q in self.quantities])

    def summary(self, params: ModelParams) -> dict:
        qs = self.quantities
        m0 = qs[0].mass
        out = {
            "stop_reason": self.stop_reason,
            "steps": self.steps_taken,
            "t_final": qs[-1].time,
            "samples": len(qs),
            "mass_drift_rel": max(abs(q.mass - m0) for q in qs) / abs(m0),
            "max_grad_u": self.max_grad_u,
        }
        # each mode has its own conserved energy; the other one is not a law
        if self.final_state.mode == "IEP":
            out["ie_drift_rel"] = max(
                abs(q.e_total - qs[0].e_total) for q in qs
            ) / max(abs(qs[0].e_total), 1e-300)
            out["ek_ei_drift_rel"] = None
        else:
            out["ie_drift_rel"] = None
            out["ek_ei_drift_rel"] = max(
                abs((q.e_kin + q.e_int) - (qs[0].e_kin + qs[0].e_int)) for q in qs
            ) / max(abs(qs[0].e_kin + qs[0].e_int), 1e-300)
        if self.min_entropy is not None:
            out["min_entropy"] = self.min_entropy
        # identity residuals need uniform sampling; report null otherwise
        try:
            rates = finite_difference_rates(qs, ("mass", "half_inertia",
                                                 "momentum_weight"))
            f_mid = np.array([q.momentum_weight for q in qs[1:-1]])
            virials = np.array([f.h_delta for f in self.functionals[1:-1]])
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

def _pressure(rho: np.ndarray, ene: Optional[np.ndarray], mom: np.ndarray,
              params: ModelParams, mode: str) -> np.ndarray:
    if mode == "IEP":
        return rho ** params.gamma
    kinetic = 0.5 * mom**2 / rho
    return (params.gamma - 1.0) * (ene - kinetic)


def _primitives(rho, mom, ene, params: ModelParams, cfg: SolverConfig,
                mode: str):
    """Floored density, velocity, non-negative pressure and sound speed."""
    floor = cfg.density_floor
    rho = np.maximum(rho, floor)
    u = np.where(rho > 10.0 * floor, mom / rho, 0.0)
    p = _pressure(rho, ene, mom, params, mode)
    p = np.maximum(p, 0.0)
    c = np.sqrt(params.gamma * p / rho)
    return rho, u, p, c


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The slope of smaller magnitude where a and b share a strict sign,
    else +0.0 (also where either is nan)."""
    # fmax/fmin map nan to 0; adding +0.0 turns a -0.0 sum into +0.0
    return np.fmax(np.minimum(a, b), 0.0) + np.fmin(np.maximum(a, b), 0.0) + 0.0


def _reconstruct(v: np.ndarray, scheme: str) -> np.ndarray:
    """Face states of each row of v at interior faces 1..N-1 plus the
    outflow face N, stacked as one (2, rows, N) array [left, right]."""
    rows, cells = v.shape
    # all rows go through one pass over the flattened array; the entries
    # that straddle two rows are overwritten by the outflow faces below
    flat = v.reshape(-1)
    faces = np.empty((2, rows * cells))
    left, right = faces
    if scheme == "pc":
        left[:] = flat
        right[:-1] = flat[1:]
    else:
        d = flat[1:] - flat[:-1]
        half = np.zeros_like(flat)
        half[1:-1] = 0.5 * _minmod(d[:-1], d[1:])
        # no slope in the first and last cell of each row
        half[::cells] = 0.0
        half[cells - 1::cells] = 0.0
        np.add(flat, half, out=left)
        np.subtract(flat[1:], half[1:], out=right[:-1])
    faces = faces.reshape(2, rows, cells)
    # outflow face: extrapolate the last cell as-is
    faces[:, :, -1] = v[:, -1]
    return faces


def _rhs(rho, mom, ene, grid: RadialGrid, params: ModelParams,
         cfg: SolverConfig, mode: str, phi: Optional[np.ndarray] = None):
    """Flux divergence + sources for the conserved fields; returns max speed.

    phi, when given, must be the potential of the floored density; it is
    solved for otherwise.
    """
    gamma, n = params.gamma, params.n
    rho, u, p, c = _primitives(rho, mom, ene, params, cfg, mode)

    # every face quantity below is a (2, N) pair of left and right states
    faces = _reconstruct(np.stack((rho, u, p)), cfg.reconstruction)
    rho_f, u_f, p_f = faces[:, 0], faces[:, 1], faces[:, 2]
    np.maximum(p_f, 0.0, out=p_f)
    np.maximum(rho_f, cfg.density_floor, out=rho_f)
    speed_l, speed_r = np.abs(u_f) + np.sqrt(gamma * p_f / rho_f)
    half_s = 0.5 * np.maximum(speed_l, speed_r)

    mom_f = rho_f * u_f
    (rho_l, rho_r), (p_l, p_r), (mom_l, mom_r) = rho_f, p_f, mom_f
    mu_l, mu_r = mom_f * u_f
    fluxes = [
        0.5 * (mom_l + mom_r) - half_s * (rho_r - rho_l),
        0.5 * (mu_l + p_l + mu_r + p_r) - half_s * (mom_r - mom_l),
    ]
    if mode == "EP":
        e_f = p_f / (gamma - 1.0) + 0.5 * rho_f * u_f**2
        eu_l, eu_r = (e_f + p_f) * u_f
        fluxes.append(0.5 * (eu_l + eu_r) - half_s * (e_f[1] - e_f[0]))

    # metric factors: face areas r**(n-1) (zero at the origin) and exact
    # shell volumes; the origin face needs no flux at all
    geo = grid.geometry(n)
    w = geo.weights
    flux = np.zeros((len(fluxes), grid.cells + 1))
    for row, f in zip(flux, fluxes):
        np.multiply(geo.areas[1:], f, out=row[1:])
    div = -(flux[:, 1:] - flux[:, :-1]) / w
    d_rho, d_mom = div[0], div[1]
    d_ene = div[2] if mode == "EP" else None
    # well-balanced geometric source: cancels the area difference of a
    # uniform pressure exactly
    d_mom += p * geo.area_jumps / w

    if phi is None:
        phi = solve_potential(rho, grid, n, tail_check=False)
    grav = radial_force(phi, grid)
    d_mom = d_mom + params.delta * rho * grav
    if mode == "EP" and cfg.work_term:
        d_ene = d_ene + params.delta * mom * grav

    max_speed = float((np.abs(u) + c).max())
    return d_rho, d_mom, d_ene, max_speed


def _clean(rho, mom, ene, cfg: SolverConfig, gamma: float):
    rho = np.maximum(rho, cfg.density_floor)
    mom = np.where(rho > 10.0 * cfg.density_floor, mom, 0.0)
    if ene is not None:
        # keep the recovered pressure positive: in near-vacuum cells the
        # gravity kick can push kinetic energy past the total, so clamp the
        # internal part to a cold adiabat far below any physical state
        e_min = 1e-12 * rho**gamma / (gamma - 1.0)
        ene = np.maximum(ene, 0.5 * mom**2 / rho + e_min)
    return rho, mom, ene


def _conserved(state: RadialState, params: ModelParams):
    rho = state.rho.copy()
    mom = state.rho * state.u_r
    ene = None
    if state.mode == "EP":
        ene = state.p / (params.gamma - 1.0) + 0.5 * state.rho * state.u_r**2
    return rho, mom, ene


def _to_state(rho, mom, ene, params: ModelParams, cfg: SolverConfig,
              mode: str, t: float) -> RadialState:
    u = np.where(rho > 10.0 * cfg.density_floor, mom / rho, 0.0)
    p = _pressure(rho, ene, mom, params, mode)
    entropy = None
    if mode == "EP":
        # recovered entropy field; only meaningful where there is gas
        safe = rho > 1e3 * cfg.density_floor
        ratio = np.where(safe, np.maximum(p, 1e-300) / rho**params.gamma, 1.0)
        entropy = params.c_nu * np.log(ratio)
    return RadialState(rho=rho, u_r=u, p=p, mode=mode, entropy=entropy, time=t)


def step(state: RadialState, grid: RadialGrid, params: ModelParams,
         cfg: SolverConfig, dt: Optional[float] = None) -> tuple[RadialState, dict]:
    """Advance one Heun step; returns (new state, info).

    info carries the dt actually used, the CFL-limited dt, and positivity
    flags.  The potential is solved at stage 2.  Stage 1 reuses state.phi
    when the density already sits at or above the floor, because then it
    is exactly the potential a fresh solve would give; otherwise it solves
    as well.
    """
    mode = state.mode
    rho0, mom0, ene0 = _conserved(state, params)
    phi0 = None
    if state.phi is not None and (state.rho >= cfg.density_floor).all():
        phi0 = state.phi

    d_rho, d_mom, d_ene, speed = _rhs(rho0, mom0, ene0, grid, params, cfg,
                                      mode, phi0)
    dt_cfl = cfg.cfl * grid.dr / max(speed, 1e-300)
    if dt is None:
        dt = cfg.fixed_dt if cfg.fixed_dt is not None else dt_cfl

    rho1 = rho0 + dt * d_rho
    mom1 = mom0 + dt * d_mom
    ene1 = ene0 + dt * d_ene if mode == "EP" else None
    rho1, mom1, ene1 = _clean(rho1, mom1, ene1, cfg, params.gamma)

    d_rho2, d_mom2, d_ene2, speed2 = _rhs(rho1, mom1, ene1, grid, params, cfg,
                                          mode)
    rho2 = 0.5 * (rho0 + rho1 + dt * d_rho2)
    mom2 = 0.5 * (mom0 + mom1 + dt * d_mom2)
    ene2 = 0.5 * (ene0 + ene1 + dt * d_ene2) if mode == "EP" else None
    rho2, mom2, ene2 = _clean(rho2, mom2, ene2, cfg, params.gamma)

    new = _to_state(rho2, mom2, ene2, params, cfg, mode, state.time + dt)
    ok = bool(np.isfinite(new.rho).all() and np.isfinite(new.u_r).all()
              and np.isfinite(new.p).all() and (new.p >= 0.0).all())
    return new, {"dt": dt, "dt_cfl": dt_cfl, "max_speed": max(speed, speed2),
                 "positive": ok}


def _sound_speed(state: RadialState, params: ModelParams,
                 cfg: SolverConfig) -> np.ndarray:
    return np.sqrt(params.gamma * np.maximum(state.p, 0.0)
                   / np.maximum(state.rho, cfg.density_floor))


def _max_grad(state: RadialState, grid: RadialGrid, rho_scale: float) -> float:
    du = np.gradient(state.u_r, grid.dr)
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

    The step size is the smaller of the CFL step and a base step derived
    from the initial CFL limit with 10% headroom, rounded to divide t_end;
    healthy runs therefore sample at exactly uniform times, and the series
    only turns nonuniform when the flow genuinely accelerates.
    """
    peak0 = float(np.max(state.rho))
    if peak0 <= 0.0:
        raise ValueError("initial density vanishes; nothing to evolve")
    if cfg.density_floor > 1e-10 * peak0:
        raise ValueError(
            f"density_floor {cfg.density_floor:.3e} is too close to the "
            f"initial peak {peak0:.3e}; keep it at or below 1e-10 * peak"
        )

    if state.phi is None:
        state = state.with_phi(solve_potential(state.rho, grid, params.n,
                                               tail_check=False))

    # velocity-gradient scale for the steepening detector; fall back on an
    # acoustic scale when the initial flow is at rest
    du0 = np.gradient(state.u_r, grid.dr)
    c0 = _sound_speed(state, params, cfg)
    grad_scale = max(float(np.max(np.abs(du0))), float(np.max(c0)) / grid.r_max)
    grad_cap = 1e3 * grad_scale

    if cfg.fixed_dt is not None:
        dt_base = cfg.fixed_dt
    else:
        _, u, _, c = _primitives(*_conserved(state, params), params, cfg,
                                 state.mode)
        speed0 = float((np.abs(u) + c).max())
        dt_raw = 0.9 * cfg.cfl * grid.dr / max(speed0, 1e-300)
        dt_base = cfg.t_end / max(1, math.ceil(cfg.t_end / dt_raw))

    quantities, functionals, grads, entropies = [], [], [], []

    def sample(s: RadialState, max_grad: float) -> None:
        q = compute_quantities(s, grid, params)
        quantities.append(q)
        functionals.append(compute_functionals(q, params))
        grads.append(max_grad)
        if s.mode == "EP":
            entropies.append(float(np.min(s.entropy)))

    sample(state, _max_grad(state, grid, peak0))

    stop_reason = "t_end"
    steps = 0
    current = state
    while current.time < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(dt_base, cfg.t_end - current.time)
        if cfg.fixed_dt is None:
            dt = min(dt, _cfl_cap(current, grid, params, cfg))
        nxt, info = step(current, grid, params, cfg, dt=dt)
        steps += 1
        if not info["positive"]:
            stop_reason = "positivity"
            current = nxt
            break
        if info["dt"] < 1e-13 * cfg.t_end:
            stop_reason = "cfl"
            current = nxt
            break
        current = nxt

        max_grad = _max_grad(current, grid, peak0)
        sample_due = (steps % cfg.output_stride == 0) or (
            current.time >= cfg.t_end - 1e-12 * cfg.t_end)
        if sample_due:
            # the next step reuses this potential at its first stage
            current = current.with_phi(solve_potential(
                current.rho, grid, params.n, tail_check=False))
            sample(current, max_grad)
        if max_grad > grad_cap:
            stop_reason = "gradient-blowup"
            break

    final = current
    if final.phi is None:
        final = final.with_phi(solve_potential(final.rho, grid, params.n,
                                               tail_check=False))
    if quantities[-1].time < final.time - 1e-15:
        sample(final, _max_grad(final, grid, peak0))
    return RunResult(
        quantities=quantities,
        functionals=functionals,
        stop_reason=stop_reason,
        final_state=final,
        steps_taken=steps,
        max_grad_u=max(grads),
        min_entropy=min(entropies) if entropies else None,
    )


def _cfl_cap(state: RadialState, grid: RadialGrid, params: ModelParams,
             cfg: SolverConfig) -> float:
    """Current CFL-limited step for the running state."""
    speed = float((np.abs(state.u_r) + _sound_speed(state, params, cfg)).max())
    return cfg.cfl * grid.dr / max(speed, 1e-300)
