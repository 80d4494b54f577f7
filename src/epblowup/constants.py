"""Closed-form constants behind the blow-up certificates.

This module evaluates every constant that the certificate checks consume:
the convolution-inequality constant at its minimizing exponents
p = q = 2n/(n+2) (a closed form), the mass lower-bound constant, the
interaction-splitting constants, and the full per-configuration table
C0..C11 assembled from initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import recover_entropy, unit_ball_measure
from .diagnostics import compute_quantities

__all__ = [
    "InfeasibleExponentError",
    "minimize_hls",
    "chemin_c8",
    "mass_bound_constants",
    "interaction_split_constant",
    "ConstantsTable",
    "build_table",
]


class InfeasibleExponentError(ValueError):
    """No admissible exponent pair exists for the requested (n, gamma)."""


# --------------------------------------------------------------------------
# Convolution inequality constant
# --------------------------------------------------------------------------

def minimize_hls(n: int, gamma: float) -> tuple[float, float, float]:
    """Smallest convolution constant on the admissible exponent curve.

    For n >= 3, int int f g |x-y|**(2-n) <= C(p, q) ||f||_p ||g||_q on the
    curve 1/p + 1/q = (n+2)/n, p, q > 1.  With a = (n-2)/n, x = 1 - 1/p,
    y = 1 - 1/q (so x + y = a) and the (n-1)-ball volume omega_{n-1},

        C(p, q) = (1/(p q)) (n/2) (omega_{n-1}/n)**a [(a/x)**a + (a/y)**a].

    Returns (p, q, C) at p = q = 2n/(n+2), where the bracket is 2**(1+a).
    Why p = q is the minimum: 1/(p q) = 1 - a + t with t = x y, and AM-GM
    bounds the bracket below by 2 (a**2/t)**(a/2), with equality at x = y.
    That bound times 1 - a + t decreases up to t = a**2/4 (x = y) when
    a <= 3 - sqrt(5), i.e. for 3 <= n <= 8; tests/test_constants.py checks
    larger n numerically.

    Raises InfeasibleExponentError when gamma <= 2n/(n+2), where C1's
    exponent theta = (n-2) gamma / (n (gamma-1)) reaches 2; nothing else
    depends on gamma.
    """
    p = 2.0 * n / (n + 2.0)
    if gamma <= p:
        raise InfeasibleExponentError(
            f"gamma={gamma} is at or below 2n/(n+2)={p:.6g}; "
            f"no admissible exponent pair exists"
        )
    a = (n - 2.0) / n
    c = ((n + 2.0) / (2.0 * n)) ** 2 * (n / 2.0) \
        * (unit_ball_measure(n - 1) / n) ** a * 2.0 ** (1.0 + a)
    return p, p, c


# --------------------------------------------------------------------------
# Mass lower bound and interaction splitting
# --------------------------------------------------------------------------

def chemin_c8(n: int, gamma: float) -> float:
    """Constant in the mass bound ||f||_1 <= C8 ||f||_gamma^a (int f |x|^2)^b.

    C8 = 2 * omega_n**(2 (gamma-1) / D) with D = (n+2) gamma - n; the two
    exponents a = 2 gamma / D and b = n (gamma - 1) / D sum against the
    scaling so the bound is dilation invariant.
    """
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    d_exp = (n + 2.0) * gamma - n
    return 2.0 * unit_ball_measure(n) ** (2.0 * (gamma - 1.0) / d_exp)


def mass_bound_constants(n: int, gamma: float, mass: float, s1: float,
                         c_nu: float) -> tuple[float, float]:
    """Constants (C9, C10) in the lower bounds on internal energy by inertia.

    C9  = omega_n**-(gamma-1) * exp(s1/c_nu) * M**(D/2) / (2**(D/2) (gamma-1))
    C10 = the same with the entropy factor dropped (isentropic variant).
    """
    d_exp = (n + 2.0) * gamma - n
    omega = unit_ball_measure(n)
    c10 = omega ** (-(gamma - 1.0)) * mass ** (d_exp / 2.0) / (
        2.0 ** (d_exp / 2.0) * (gamma - 1.0)
    )
    return math.exp(s1 / c_nu) * c10, c10


def _split_low_branch(n: int, gamma: float, mass: float, c_hlp: float,
                      epsilon: float) -> float:
    # frequency cutoff chosen so the high-frequency term lands exactly on
    # epsilon * (pressure integral) / (gamma - 1)
    omega = unit_ball_measure(n)
    m_exp = 2.0 + n * (gamma - 2.0)
    k_coef = n * (n - 2.0) * omega * mass ** (2.0 - gamma) * c_hlp**gamma
    r_cut = (k_coef / epsilon) ** (1.0 / m_exp)
    return n**2 * (n - 2.0) * omega**2 * mass**2 * r_cut ** (n - 2.0)


def _split_high_branch(n: int, gamma: float, mass: float,
                       epsilon: float) -> float:
    omega = unit_ball_measure(n)
    r_sq = n * (n - 2.0) * omega / (epsilon * (gamma - 1.0))
    return epsilon * mass * (gamma - 2.0) + (
        n**2 * (n - 2.0) * omega**2 * mass**2 * r_sq ** ((n - 2.0) / 2.0)
    )


def interaction_split_constant(n: int, gamma: float, mass: float,
                               c_hlp: float = 1.0,
                               epsilon: float = 1.0) -> tuple[float, str]:
    """Additive constant C(eps) in  -int rho Phi <= eps * I + C(eps).

    Splitting the interaction at a radius r in frequency space gives a
    low-frequency term controlled by mass alone and a high-frequency term
    controlled by the internal energy; optimizing r for the requested
    epsilon yields the constant.  Two branches:

    * 2(1 - 1/n) < gamma < 2: the high-frequency control goes through the
      Fourier-norm inequality, so C carries a c_hlp**gamma factor;
    * gamma >= 2: direct interpolation, no Fourier constant involved.

    Returns (constant, branch) with branch in {'low-gamma', 'high-gamma'}.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if mass <= 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    if gamma >= 2.0:
        return _split_high_branch(n, gamma, mass, epsilon), "high-gamma"
    if gamma > 2.0 * (1.0 - 1.0 / n):
        return _split_low_branch(n, gamma, mass, c_hlp, epsilon), "low-gamma"
    raise InfeasibleExponentError(
        f"gamma={gamma} is at or below 2(1 - 1/n)={2.0 * (1.0 - 1.0 / n):.6g}; "
        f"the interaction split is not available"
    )


def _c2_printed(n: int, gamma: float, mass: float, c_hlp: float) -> tuple[float, str]:
    """Interaction bound constant C2 at the canonical split (epsilon = 1)."""
    omega = unit_ball_measure(n)
    if gamma >= 2.0:
        val = 2.0 * mass * (gamma - 2.0) + 2.0 * mass**2 * n ** (1.0 + n / 2.0) * (
            n - 2.0
        ) ** (n / 2.0) * omega ** (1.0 + n / 2.0) * (gamma - 1.0) ** (1.0 - n / 2.0)
        return val, "high-gamma"
    if gamma > 2.0 * (1.0 - 1.0 / n):
        x = (n - 2.0) / (2.0 + n * (gamma - 1.0))
        y = (n - 2.0) * (2.0 - gamma) / (2.0 + n * (gamma - 1.0))
        val = (
            2.0
            * n ** (2.0 + x)
            * (n - 2.0) ** (1.0 + x)
            * omega ** (2.0 + x)
            * mass ** (2.0 + y)
            * c_hlp**y
        )
        return val, "low-gamma"
    raise InfeasibleExponentError(
        f"gamma={gamma} is at or below 2(1 - 1/n); C2 is undefined"
    )


# --------------------------------------------------------------------------
# Per-configuration constants table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsTable:
    """Certificate constants C0..C11 for one initial configuration.

    Entries whose exponents are infeasible for (n, gamma) are None and the
    reason is kept in ``notes``.  c4 follows the sharper (min-coefficient)
    branch of the lower parabola; the max-coefficient companion is c5.
    """

    n: int
    gamma: float
    delta: int
    mode: str
    mass: float
    omega_n: float
    s1: float
    c_hlp: float
    c0: float
    c1: Optional[float]
    c2: Optional[float]
    c3: Optional[float]
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    theta: Optional[float] = None
    p_star: Optional[float] = None
    q_star: Optional[float] = None
    c_hls_min: Optional[float] = None
    c2_branch: Optional[str] = None
    f0: float = 0.0
    g0: float = 0.0
    notes: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "gamma": self.gamma,
            "delta": self.delta,
            "mode": self.mode,
            "mass": self.mass,
            "omega_n": self.omega_n,
            "s1": self.s1,
            "theta": self.theta,
            "p_star": self.p_star,
            "q_star": self.q_star,
            "C_HLS_min": self.c_hls_min,
            "C_HLP": self.c_hlp,
            "c2_branch": self.c2_branch,
            "f0": self.f0,
            "g0": self.g0,
        }
        for k in range(12):
            out[f"C{k}"] = getattr(self, f"c{k}")
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def build_table(state, grid, params, c_hlp: float = 1.0) -> ConstantsTable:
    """Assemble the certificate constants from initial data.

    The moment integrals, the potential energy among them, come from one
    diagnostics.compute_quantities call (midpoint rule).
    """
    q = compute_quantities(state, grid, params)
    n, gamma = params.n, params.gamma
    omega = unit_ball_measure(n)
    notes: list[str] = []

    if state.mode == "EP":
        support = state.rho > 1e-12 * float(np.max(state.rho))
        s = recover_entropy(state.rho, state.p, params, support)
        s1 = float(np.min(s[support])) if np.any(support) else 0.0
    else:
        s1 = 0.0  # isentropic closure: exp(s/c_nu) = 1

    # minimize_hls's gate is theta < 2, and theta > 0 for every n >= 3
    theta = p_star = q_star = c_hls_min = c1 = None
    try:
        p_star, q_star, c_hls_min = minimize_hls(n, gamma)
        theta = (n - 2.0) * gamma / (n * (gamma - 1.0))
        c1 = c_hls_min * q.mass ** (2.0 - theta)
    except InfeasibleExponentError as exc:
        notes.append(f"C1 unavailable: {exc}")

    try:
        c2, c2_branch = _c2_printed(n, gamma, q.mass, c_hlp)
    except InfeasibleExponentError as exc:
        c2, c2_branch = None, None
        notes.append(f"C2 unavailable: {exc}")
    if c_hlp == 1.0:
        notes.append(
            "C_HLP left at the default 1.0; the Fourier-side constant is "
            "not pinned by theory, so C2-derived certificates are only as "
            "trustworthy as this choice (calibration suggests ~3)"
        )

    c0 = q.e_total
    if c2 is not None:
        c3 = max(6.0 - n, n * (2.0 * gamma - 3.0) + 2.0) * c0 + max(
            4.0 - n, n * (gamma - 2.0) + 2.0
        ) * c2
    else:
        c3 = None

    c4 = min(2.0, n * (gamma - 1.0)) * c0
    c5 = max(2.0, n * (gamma - 1.0)) * c0
    c6 = min(4.0 - n, n * (gamma - 2.0) + 2.0) * (q.e_kin + q.e_int) + (n - 2.0) * q.e_total
    c7 = max(4.0 - n, n * (gamma - 2.0) + 2.0) * (q.e_kin + q.e_int) + (n - 2.0) * q.e_total
    c8 = chemin_c8(n, gamma)
    c9, c10 = mass_bound_constants(n, gamma, q.mass, s1, params.c_nu)
    c11 = q.half_inertia - q.momentum_weight + q.e_total

    return ConstantsTable(
        n=n, gamma=gamma, delta=params.delta, mode=state.mode,
        mass=q.mass, omega_n=omega, s1=s1, c_hlp=c_hlp,
        c0=c0, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7,
        c8=c8, c9=c9, c10=c10, c11=c11,
        theta=theta, p_star=p_star, q_star=q_star, c_hls_min=c_hls_min,
        c2_branch=c2_branch,
        f0=q.momentum_weight, g0=q.half_inertia,
        notes=tuple(notes),
    )
