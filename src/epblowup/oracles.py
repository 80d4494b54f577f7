"""Inequality verification: margins of every bound on a density corpus.

Each verify_* routine evaluates one functional inequality on concrete
radial densities and reports (lhs, rhs, margin).  A margin is rhs - lhs,
so nonnegative means the bound held.  The routines share a deterministic
corpus -- named reference shapes plus seeded random Gaussian mixtures --
so reports are reproducible bit for bit.

The Fourier-norm check (verify_hlp) is special: the underlying inequality
has no constructive constant, so the check reports the empirical ratio
lhs / ||f||_p and flags it against the configured c_hlp.  It can calibrate
a corpus-wide constant but never certifies the inequality universally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (chemin_c8, interaction_split_constant,
                        mass_bound_constants, minimize_hls, ConstantsTable)
from .core import ModelParams, RadialGrid
from .diagnostics import QuantitySet
from .quadrature import integrate_radial, interaction_integral

__all__ = [
    "MarginReport",
    "verify_hls",
    "verify_hlp",
    "verify_chemin",
    "verify_lemma_split",
    "verify_energy_bounds",
    "build_corpus",
    "corpus_grid",
    "run_suite",
]


@dataclass(frozen=True)
class MarginReport:
    """One inequality evaluation: margin = rhs - lhs (>= 0 means it held)."""

    name: str
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def rel_margin(self) -> float:
        scale = max(abs(self.rhs), abs(self.lhs), 1e-300)
        return self.margin / scale

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "rel_margin": self.rel_margin,
            "details": self.details,
        }


def verify_hls(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
               label: str = "") -> MarginReport:
    """Interaction energy against the convolution bound.

        int int rho rho |x-y|**(2-n) <= C(p, q) M**(2-theta) ||rho||_gamma**theta

    with the constant at its minimizing exponents p = q = 2n/(n+2).
    """
    n, gamma = params.n, params.gamma
    theta = (n - 2.0) * gamma / (n * (gamma - 1.0))
    p, q, c_val = minimize_hls(n, gamma)
    lhs = interaction_integral(rho, grid, n)
    mass, gamma_int = integrate_radial(np.stack((rho, rho**gamma)), grid, n).tolist()
    rhs = c_val * mass ** (2.0 - theta) * (gamma_int ** (1.0 / gamma)) ** theta
    return MarginReport(
        name=f"hls{':' + label if label else ''}",
        lhs=lhs, rhs=rhs,
        details={"p": p, "q": q, "constant": c_val, "theta": theta, "mass": mass},
    )


# Frequency grid of the Fourier-norm check, shared by verify_hlp and run_suite.
_K_MAX = 16.0
_K_CELLS = 2048


def radial_fourier(f: np.ndarray, grid: RadialGrid, k: np.ndarray) -> np.ndarray:
    """Radial Fourier transform in three dimensions (2 pi i x.xi convention):

        Ff(k) = (2 / k) int_0^inf r f(r) sin(2 pi k r) dr.

    f is one profile, shape (N,), or a stack of m profiles, shape (m, N);
    the result has shape (K,) or (m, K), one row per profile.  The
    len(k) x N sine matrix is built once per call, so transforming a stack
    costs one matrix product instead of m.  Every frequency must be
    positive; ValueError otherwise.
    """
    f = grid.check_profile(f)
    k = np.asarray(k, dtype=float)
    if not (k > 0.0).all():
        raise ValueError("radial_fourier needs frequencies k > 0")
    r = grid.centers
    phase = np.sin(2.0 * math.pi * np.outer(k, r))
    return 2.0 * ((r * f) @ phase.T * grid.dr) / k


def _hlp_report(f: np.ndarray, transform: np.ndarray, grid: RadialGrid,
                k_grid: RadialGrid, p: float, c_hlp: float,
                label: str) -> MarginReport:
    """Score one exponent p of the Fourier-norm bound from f's transform on k_grid."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"Fourier-norm bound needs 1 < p <= 2, got {p}")
    k = k_grid.centers
    weighted = np.abs(transform) ** p * k ** (3.0 * (p - 2.0))
    lhs = integrate_radial(weighted, k_grid, 3) ** (1.0 / p)
    norm_p = integrate_radial(np.abs(f) ** p, grid, 3) ** (1.0 / p)
    ratio = lhs / norm_p if norm_p > 0 else math.inf
    return MarginReport(
        name=f"hlp{':' + label if label else ''}",
        lhs=lhs, rhs=c_hlp * norm_p,
        details={"p": p, "ratio": ratio, "c_hlp": c_hlp,
                 "exceeds_configured": bool(ratio > c_hlp)},
    )


def verify_hlp(f: np.ndarray, grid: RadialGrid, p: float, c_hlp: float = 1.0,
               label: str = "") -> MarginReport:
    """Empirical ratio for the weighted Fourier-norm bound (three dimensions):

        ( int |Ff(xi)|**p |xi|**(3(p-2)) dxi )**(1/p)  <=  C ||f||_p,  1 < p <= 2.

    lhs and ||f||_p are computed by radial quadrature; the report's rhs uses
    the configured c_hlp and ``details['ratio']`` carries lhs / ||f||_p.
    At p = 2 the ratio is 1 by Plancherel, which doubles as a quality gate
    for the transform discretization.
    """
    k_grid = RadialGrid(_K_MAX, _K_CELLS)
    transform = radial_fourier(f, grid, k_grid.centers)
    return _hlp_report(f, transform, grid, k_grid, p, c_hlp, label)


def verify_chemin(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
                  label: str = "") -> MarginReport:
    """Mass bound by gamma-norm and inertia, plus the derived decay floors.

        M <= C8 ||rho||_gamma**(2 gamma / D) (int rho |x|^2)**(n (gamma-1) / D)

    details also carry the induced lower bound on the pressure integral,
    I >= C10 / G**(n(gamma-1)/2), evaluated for this density (isentropic
    reading I = ||rho||_gamma**gamma / (gamma - 1)).
    """
    n, gamma = params.n, params.gamma
    d_exp = (n + 2.0) * gamma - n
    mass, gamma_int, inertia2 = integrate_radial(
        np.stack((rho, rho**gamma, rho * grid.centers**2)), grid, n).tolist()
    norm_g = gamma_int ** (1.0 / gamma)
    c8 = chemin_c8(n, gamma)
    rhs = c8 * norm_g ** (2.0 * gamma / d_exp) * inertia2 ** (n * (gamma - 1.0) / d_exp)

    pressure_int = norm_g**gamma / (gamma - 1.0)
    half_inertia = 0.5 * inertia2
    _, c10 = mass_bound_constants(n, gamma, mass, 0.0, 1.0 / (gamma - 1.0))
    decay_floor = c10 / half_inertia ** (n * (gamma - 1.0) / 2.0) \
        if half_inertia > 0 else math.inf
    return MarginReport(
        name=f"chemin{':' + label if label else ''}",
        lhs=mass, rhs=rhs,
        details={
            "C8": c8,
            "norm_gamma": norm_g,
            "inertia2": inertia2,
            "pressure_int": pressure_int,
            "decay_floor": decay_floor,
            "decay_floor_margin": pressure_int - decay_floor,
        },
    )


def verify_lemma_split(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
                       epsilon: float = 1.0, c_hlp: float = 1.0,
                       label: str = "") -> MarginReport:
    """Interaction energy against the split bound  -int rho Phi <= eps I + C(eps).

    I is the isentropic pressure integral ||rho||_gamma**gamma / (gamma-1);
    C(eps) comes from interaction_split_constant and inherits its branch
    structure (and, below gamma = 2, its c_hlp dependence).
    """
    n, gamma = params.n, params.gamma
    lhs = interaction_integral(rho, grid, n)
    mass, gamma_int = integrate_radial(np.stack((rho, rho**gamma)), grid, n).tolist()
    pressure_int = gamma_int / (gamma - 1.0)
    c_eps, branch = interaction_split_constant(n, gamma, mass, c_hlp, epsilon)
    rhs = epsilon * pressure_int + c_eps
    return MarginReport(
        name=f"split{':' + label if label else ''}",
        lhs=lhs, rhs=rhs,
        details={"epsilon": epsilon, "branch": branch, "C_eps": c_eps,
                 "pressure_int": pressure_int, "mass": mass, "c_hlp": c_hlp},
    )


def verify_energy_bounds(quantities: list[QuantitySet], table: ConstantsTable,
                         params: ModelParams) -> list[MarginReport]:
    """Bounds that the conserved energy forces along an isentropic run.

    Attractive force, gamma > 2(1 - 1/n):
        E_k + I <= 2 C0 + C2      and      E_k + I >= C0.
    Repulsive force:
        E_k + I <= C0.
    Each report's worst violator over the sampled series is returned.
    """
    reports = []

    def worst(name: str, lhs_fn, rhs_fn):
        rows = [(rhs_fn(q) - lhs_fn(q), q) for q in quantities]
        margin, q = min(rows, key=lambda t: t[0])
        return MarginReport(name=name, lhs=lhs_fn(q), rhs=rhs_fn(q),
                            details={"time": q.time})

    if params.delta == -1:
        if table.c2 is not None:
            reports.append(worst(
                "energy-upper",
                lambda q: q.e_kin + q.e_int,
                lambda q: 2.0 * table.c0 + table.c2,
            ))
        reports.append(worst(
            "energy-lower",
            lambda q: table.c0,
            lambda q: q.e_kin + q.e_int,
        ))
    else:
        reports.append(worst(
            "energy-upper",
            lambda q: q.e_kin + q.e_int,
            lambda q: table.c0,
        ))
    return reports


# --------------------------------------------------------------------------
# Deterministic corpus
# --------------------------------------------------------------------------

CORPUS_SEED = 20240817
_CORPUS_RMAX = 8.0
_CORPUS_CELLS = 1024


def corpus_grid() -> RadialGrid:
    return RadialGrid(_CORPUS_RMAX, _CORPUS_CELLS)


def _bump(r: np.ndarray, amp: float, center: float, width: float) -> np.ndarray:
    return amp * np.exp(-(((r - center) / width) ** 2))


def build_corpus(randomized: int = 100) -> list[tuple[str, np.ndarray]]:
    """Named reference densities plus seeded random Gaussian mixtures.

    All entries are nonnegative, not identically zero, and decay below the
    far-field tolerance on the shared corpus grid.  The randomized block is
    reproducible: a fixed seed feeds a PCG64 generator.  A negative
    randomized count raises ValueError.
    """
    if randomized < 0:
        raise ValueError(f"randomized density count must be >= 0, got {randomized}")
    grid = corpus_grid()
    r = grid.centers
    corpus: list[tuple[str, np.ndarray]] = []

    for amp in (0.5, 1.0, 2.0):
        for width in (0.5, 1.0, 1.5):
            corpus.append((f"gauss-a{amp}-w{width}",
                           amp * np.exp(-((r / width) ** 2))))
    for radius in (0.5, 1.0, 1.5):
        for amp in (0.5, 1.0):
            corpus.append((f"ball-a{amp}-R{radius}",
                           np.where(r <= radius, amp, 0.0)))
    for center in (1.0, 2.0):
        for width in (0.25, 0.4):
            corpus.append((f"shell-c{center}-w{width}", _bump(r, 1.0, center, width)))
    corpus.append(("mix-core-shell", _bump(r, 1.0, 0.0, 0.8) + _bump(r, 0.4, 2.0, 0.5)))
    corpus.append(("mix-twin-shells", _bump(r, 0.7, 1.0, 0.3) + _bump(r, 0.5, 2.5, 0.4)))
    corpus.append(("mix-broad", _bump(r, 0.2, 0.0, 2.0) + _bump(r, 1.5, 0.5, 0.4)))

    rng = np.random.default_rng(CORPUS_SEED)
    for k in range(randomized):
        parts = rng.integers(1, 4)
        rho = np.zeros_like(r)
        for _ in range(parts):
            amp = rng.uniform(0.1, 2.0)
            center = rng.uniform(0.0, 2.0)
            width = rng.uniform(0.3, 1.0)
            rho += _bump(r, amp, center, width)
        corpus.append((f"rand-{k:03d}", rho))
    return corpus


def run_suite(suite: str, params: ModelParams, c_hlp: float = 1.0,
              randomized: int = 100) -> dict:
    """Run one verification suite over the corpus; returns a JSON-able report.

    Suites: 'hls', 'hlp', 'chemin', 'split'.  ('bounds' needs a simulation
    and lives with the CLI.)  The worst relative margin and the worst
    Fourier ratio are summarized for quick gating.
    """
    grid = corpus_grid()
    corpus = build_corpus(randomized)
    reports: list[MarginReport] = []

    if suite == "hls":
        for name, rho in corpus:
            reports.append(verify_hls(rho, grid, params, label=name))
    elif suite == "hlp":
        if params.n != 3:
            raise ValueError("the Fourier-norm suite is only set up in dimension 3")
        k_grid = RadialGrid(_K_MAX, _K_CELLS)
        stack = np.array([rho for _, rho in corpus])
        transforms = radial_fourier(stack, grid, k_grid.centers)
        for (name, rho), transform in zip(corpus, transforms):
            for p in (1.5, 5.0 / 3.0, 2.0):
                reports.append(_hlp_report(rho, transform, grid, k_grid, p, c_hlp,
                                           label=f"{name}-p{p:.4g}"))
    elif suite == "chemin":
        for name, rho in corpus:
            reports.append(verify_chemin(rho, grid, params, label=name))
    elif suite == "split":
        for name, rho in corpus:
            for eps in (0.5, 1.0, 2.0):
                reports.append(verify_lemma_split(rho, grid, params,
                                                  epsilon=eps, c_hlp=c_hlp,
                                                  label=f"{name}-eps{eps}"))
    else:
        raise ValueError(f"unknown suite {suite!r}")

    worst = min(reports, key=lambda rep: rep.rel_margin)
    out = {
        "suite": suite,
        "count": len(reports),
        "worst_rel_margin": worst.rel_margin,
        "worst_case": worst.name,
        "reports": [rep.to_json_dict() for rep in reports],
    }
    if suite == "hlp":
        ratios = [rep.details["ratio"] for rep in reports]
        out["max_ratio"] = max(ratios)
    return out
