"""Inequality verification: margins of every bound on a density corpus.

Each verify_* routine evaluates one functional inequality on concrete
radial densities and reports (lhs, rhs, margin).  A margin is rhs - lhs,
so nonnegative means the bound held.  The routines share a deterministic
corpus -- named reference shapes plus seeded random Gaussian mixtures --
so reports are reproducible bit for bit.  Each inequality has one private
scorer that takes a stack of densities; run_suite hands it the whole
corpus, and the verify_* routines are its one-profile case.

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


def _name(kind: str, label: str) -> str:
    return f"{kind}{':' + label if label else ''}"


def _single(rho, grid: RadialGrid) -> np.ndarray:
    """One density as a one-row stack, for the one-profile verify_* calls."""
    return grid.check_profile(rho, "density", ndim=1)[None, :]


def _score_hls(stack: np.ndarray, labels, grid: RadialGrid,
               params: ModelParams) -> list[MarginReport]:
    """HLS reports for a stack of densities (m, N), one per label."""
    n, gamma = params.n, params.gamma
    theta = (n - 2.0) * gamma / (n * (gamma - 1.0))
    p, q, c_val = minimize_hls(n, gamma)
    masses, gamma_ints = integrate_radial(
        np.stack((stack, stack**gamma)), grid, n).tolist()
    return [
        MarginReport(
            name=_name("hls", label),
            lhs=interaction_integral(rho, grid, n),
            rhs=c_val * mass ** (2.0 - theta) * (gamma_int ** (1.0 / gamma)) ** theta,
            details={"p": p, "q": q, "constant": c_val, "theta": theta, "mass": mass},
        )
        for rho, label, mass, gamma_int in zip(stack, labels, masses, gamma_ints)
    ]


def verify_hls(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
               label: str = "") -> MarginReport:
    """Interaction energy against the convolution bound.

        int int rho rho |x-y|**(2-n) <= C(p, q) M**(2-theta) ||rho||_gamma**theta

    with the constant at its minimizing exponents p = q = 2n/(n+2).
    """
    return _score_hls(_single(rho, grid), [label], grid, params)[0]


# Frequency grid of the Fourier-norm check (the hlp scorer's k_grid).
_K_MAX = 16.0
_K_CELLS = 2048


def radial_fourier(f: np.ndarray, grid: RadialGrid, k: np.ndarray) -> np.ndarray:
    """Radial Fourier transform in three dimensions (2 pi i x.xi convention):

        Ff(k) = (2 / k) int_0^inf r f(r) sin(2 pi k r) dr.

    f is one profile, shape (N,), or a stack of m profiles, shape (m, N);
    the result has shape (K,) or (m, K), one row per profile.  Every
    frequency must be positive; ValueError otherwise.

    The sine table comes from angle addition on the uniform grid.  Cell i =
    32 a + b sits at r_i = R_a + s_b with R_a = 32 a dr and s_b = (b + 1/2) dr,
    so

        sin(2 pi k r_i) = sin(2 pi k R_a) cos(2 pi k s_b)
                          + cos(2 pi k R_a) sin(2 pi k s_b),

    and K frequencies cost 2 K (N/32 + 32) sines and cosines instead of K N.
    The table is built 256 frequencies at a time, so the largest array is
    256 x N whatever K is, and a stack shares each block's matrix product.
    """
    f = grid.check_profile(f)
    k = np.asarray(k, dtype=float).ravel()
    if not (k > 0.0).all():
        raise ValueError("radial_fourier needs frequencies k > 0")
    dr = grid.dr
    runs = -(-grid.cells // 32)
    # r f dr, zero-padded to whole runs of 32 cells
    weighted = np.zeros(f.shape[:-1] + (32 * runs,))
    weighted[..., :grid.cells] = grid.centers * f * dr
    coarse = 2.0 * math.pi * 32.0 * dr * np.arange(runs)[:, None]
    fine = 2.0 * math.pi * dr * (np.arange(32) + 0.5)[:, None]
    out = np.empty(f.shape[:-1] + k.shape)
    # two block buffers, reused: fresh 2 MiB arrays each block cost page
    # faults.  Frequency is the last axis, so each ufunc loop runs 256 long.
    buffers = np.empty((2, runs, 32, min(len(k), 256)))
    for lo in range(0, len(k), 256):
        block = k[lo:lo + 256]
        big, small = coarse * block, fine * block
        table, term = buffers[..., :len(block)]
        np.multiply(np.sin(big)[:, None, :], np.cos(small)[None, :, :], out=table)
        np.multiply(np.cos(big)[:, None, :], np.sin(small)[None, :, :], out=term)
        table += term
        out[..., lo:lo + 256] = weighted @ table.reshape(-1, len(block))
    return 2.0 * out / k


def _score_hlp(stack: np.ndarray, labels, grid: RadialGrid, exponents,
               c_hlp: float) -> list[MarginReport]:
    """Fourier-norm reports for a stack of densities (m, N) at each exponent p.

    Reports run density by density, exponents inner; labels holds one per
    report.  Every transform is taken in one radial_fourier call.
    """
    for p in exponents:
        if not (1.0 < p <= 2.0):
            raise ValueError(f"Fourier-norm bound needs 1 < p <= 2, got {p}")
    k_grid = RadialGrid(_K_MAX, _K_CELLS)
    k = k_grid.centers
    ps = np.array(exponents, dtype=float)[:, None, None]
    weighted = np.abs(radial_fourier(stack, grid, k)) ** ps  # (P, m, K)
    weighted *= k ** (3.0 * (ps - 2.0))
    lhs_all = integrate_radial(weighted, k_grid, 3) ** (1.0 / ps[:, :, 0])
    norm_all = integrate_radial(np.abs(stack) ** ps, grid, 3) ** (1.0 / ps[:, :, 0])
    labels = iter(labels)
    reports = []
    for lhs_row, norm_row in zip(lhs_all.T.tolist(), norm_all.T.tolist()):
        for p, lhs, norm_p in zip(exponents, lhs_row, norm_row):
            ratio = lhs / norm_p if norm_p > 0 else math.inf
            reports.append(MarginReport(
                name=_name("hlp", next(labels)),
                lhs=lhs, rhs=c_hlp * norm_p,
                details={"p": p, "ratio": ratio, "c_hlp": c_hlp,
                         "exceeds_configured": bool(ratio > c_hlp)},
            ))
    return reports


def verify_hlp(f: np.ndarray, grid: RadialGrid, p: float, c_hlp: float = 1.0,
               label: str = "") -> MarginReport:
    """Empirical ratio for the weighted Fourier-norm bound (three dimensions):

        ( int |Ff(xi)|**p |xi|**(3(p-2)) dxi )**(1/p)  <=  C ||f||_p,  1 < p <= 2.

    lhs and ||f||_p are computed by radial quadrature; the report's rhs uses
    the configured c_hlp and ``details['ratio']`` carries lhs / ||f||_p.
    At p = 2 the ratio is 1 by Plancherel, which doubles as a quality gate
    for the transform discretization.
    """
    return _score_hlp(_single(f, grid), [label], grid, (p,), c_hlp)[0]


def _score_chemin(stack: np.ndarray, labels, grid: RadialGrid,
                  params: ModelParams) -> list[MarginReport]:
    """Chemin mass-bound reports for a stack of densities (m, N), one per label."""
    n, gamma = params.n, params.gamma
    d_exp = (n + 2.0) * gamma - n
    c8 = chemin_c8(n, gamma)
    families = integrate_radial(
        np.stack((stack, stack**gamma, stack * grid.centers**2)), grid, n)
    reports = []
    for label, (mass, gamma_int, inertia2) in zip(labels, families.T.tolist()):
        norm_g = gamma_int ** (1.0 / gamma)
        rhs = c8 * norm_g ** (2.0 * gamma / d_exp) * inertia2 ** (n * (gamma - 1.0) / d_exp)
        pressure_int = norm_g**gamma / (gamma - 1.0)
        half_inertia = 0.5 * inertia2
        _, c10 = mass_bound_constants(n, gamma, mass, 0.0, 1.0 / (gamma - 1.0))
        decay_floor = c10 / half_inertia ** (n * (gamma - 1.0) / 2.0) \
            if half_inertia > 0 else math.inf
        reports.append(MarginReport(
            name=_name("chemin", label),
            lhs=mass, rhs=rhs,
            details={
                "C8": c8,
                "norm_gamma": norm_g,
                "inertia2": inertia2,
                "pressure_int": pressure_int,
                "decay_floor": decay_floor,
                "decay_floor_margin": pressure_int - decay_floor,
            },
        ))
    return reports


def verify_chemin(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
                  label: str = "") -> MarginReport:
    """Mass bound by gamma-norm and inertia, plus the derived decay floors.

        M <= C8 ||rho||_gamma**(2 gamma / D) (int rho |x|^2)**(n (gamma-1) / D)

    details also carry the induced lower bound on the pressure integral,
    I >= C10 / G**(n(gamma-1)/2), evaluated for this density (isentropic
    reading I = ||rho||_gamma**gamma / (gamma - 1)).
    """
    return _score_chemin(_single(rho, grid), [label], grid, params)[0]


def _score_split(stack: np.ndarray, labels, grid: RadialGrid, params: ModelParams,
                 epsilons, c_hlp: float) -> list[MarginReport]:
    """Split-bound reports for a stack of densities (m, N) at each epsilon.

    Reports run density by density, epsilons inner; labels holds one per
    report.  Each density's interaction energy is computed once.
    """
    n, gamma = params.n, params.gamma
    masses, gamma_ints = integrate_radial(
        np.stack((stack, stack**gamma)), grid, n).tolist()
    labels = iter(labels)
    reports = []
    for rho, mass, gamma_int in zip(stack, masses, gamma_ints):
        lhs = interaction_integral(rho, grid, n)
        pressure_int = gamma_int / (gamma - 1.0)
        for eps in epsilons:
            c_eps, branch = interaction_split_constant(n, gamma, mass, c_hlp, eps)
            reports.append(MarginReport(
                name=_name("split", next(labels)),
                lhs=lhs, rhs=eps * pressure_int + c_eps,
                details={"epsilon": eps, "branch": branch, "C_eps": c_eps,
                         "pressure_int": pressure_int, "mass": mass, "c_hlp": c_hlp},
            ))
    return reports


def verify_lemma_split(rho: np.ndarray, grid: RadialGrid, params: ModelParams,
                       epsilon: float = 1.0, c_hlp: float = 1.0,
                       label: str = "") -> MarginReport:
    """Interaction energy against the split bound  -int rho Phi <= eps I + C(eps).

    I is the isentropic pressure integral ||rho||_gamma**gamma / (gamma-1);
    C(eps) comes from interaction_split_constant and inherits its branch
    structure (and, below gamma = 2, its c_hlp dependence).
    """
    return _score_split(_single(rho, grid), [label], grid, params,
                        (epsilon,), c_hlp)[0]


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


def build_corpus() -> list[tuple[str, np.ndarray]]:
    """22 named reference densities plus 100 seeded random Gaussian mixtures.

    All entries are nonnegative, not identically zero, and decay below the
    far-field tolerance on the shared corpus grid.  The randomized block is
    reproducible: a fixed seed feeds a PCG64 generator, drawn in order, so
    build_corpus()[:22 + k] holds the first k mixtures.
    """
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
    for k in range(100):
        parts = rng.integers(1, 4)
        rho = np.zeros_like(r)
        for _ in range(parts):
            amp = rng.uniform(0.1, 2.0)
            center = rng.uniform(0.0, 2.0)
            width = rng.uniform(0.3, 1.0)
            rho += _bump(r, amp, center, width)
        corpus.append((f"rand-{k:03d}", rho))
    return corpus


def run_suite(suite: str, params: ModelParams,
              corpus: list[tuple[str, np.ndarray]], c_hlp: float = 1.0) -> dict:
    """Run one verification suite over a corpus; returns a JSON-able report.

    corpus is the (name, density) list that build_corpus returns, on
    corpus_grid(); the CLI builds it once and passes it to every suite.
    Suites: 'hls', 'hlp', 'chemin', 'split'.  ('bounds' needs a simulation
    and lives with the CLI.)  Each suite scores the whole corpus as one
    (m, N) stack.  The worst relative margin and the worst Fourier ratio are
    summarized for quick gating.
    """
    grid = corpus_grid()
    names = [name for name, _ in corpus]
    stack = np.array([rho for _, rho in corpus])

    if suite == "hls":
        reports = _score_hls(stack, names, grid, params)
    elif suite == "hlp":
        if params.n != 3:
            raise ValueError("the Fourier-norm suite is only set up in dimension 3")
        exponents = (1.5, 5.0 / 3.0, 2.0)
        labels = [f"{name}-p{p:.4g}" for name in names for p in exponents]
        reports = _score_hlp(stack, labels, grid, exponents, c_hlp)
    elif suite == "chemin":
        reports = _score_chemin(stack, names, grid, params)
    elif suite == "split":
        epsilons = (0.5, 1.0, 2.0)
        labels = [f"{name}-eps{eps}" for name in names for eps in epsilons]
        reports = _score_split(stack, labels, grid, params, epsilons, c_hlp)
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
