"""Radial quadrature for n-dimensional integrals and the interaction energy.

For a radial field f, integrals over R^n reduce to

    int_{R^n} f(|x|) dx = n * omega_n * int_0^rmax f(r) r**(n-1) dr,

with omega_n the unit-ball volume.  The pairwise interaction integral

    int int rho(x) rho(y) |x - y|**(2-n) dx dy

reduces the same way: averaging the kernel over a sphere of radius s leaves
max(r, s)**(2-n), so a double radial sum with that kernel is exact in the
angular variables and only the radial discretization error remains.  Because
the cell centers are sorted, max(r_i, r_j) = r_i for every j < i, and the
double sum folds into one prefix sum over the cells (see interaction_integral).
integrate_radial also takes a stack of profiles (last axis = cells).  Every
profile passes RadialGrid.check_profile (GridMismatchError, NonFiniteSampleError).
"""

from __future__ import annotations

import numpy as np

from .core import RadialGrid, unit_ball_measure

__all__ = [
    "integrate_radial",
    "interaction_integral",
]


def _simpson_uniform(y: np.ndarray, dx: float) -> np.ndarray:
    """Composite Simpson along the last axis, on at least three uniformly
    spaced samples.

    Even sample counts are handled by closing the final interval with the
    parabola through the last three points.
    """
    if y.shape[-1] % 2 == 1:
        core = y
        extra = 0.0
    else:
        core = y[..., :-1]
        extra = dx * (5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]) / 12.0
    s = core[..., 0] + core[..., -1] + 4.0 * np.sum(core[..., 1:-1:2], axis=-1) \
        + 2.0 * np.sum(core[..., 2:-2:2], axis=-1)
    return dx / 3.0 * s + extra


def integrate_radial(f: np.ndarray, grid: RadialGrid, n: int,
                     rule: str = "simpson") -> float | np.ndarray:
    """Integrate a cell-centered radial profile, or a stack of them, over R^n.

    f has shape (N,) or (..., N), one profile per row of the last axis;
    one profile gives a float, a stack an array of the leading shape, so
    several integrals of one snapshot cost one check and one product.

    The midpoint rule weights each sample with the exact shell measure of
    its cell.  The Simpson rule acts on f(r) * r**(n-1) across the centers
    and closes the two boundary half-cells with the local power law, which
    is exact at the origin where the integrand vanishes like r**(n-1).
    Both rules are second order in the cell width.
    """
    f = grid.check_profile(f)
    surface = n * unit_ball_measure(n)

    if rule == "midpoint":
        out = surface * (f @ grid.shell_weights(n))
    elif rule == "simpson":
        r = grid.centers
        inner = _simpson_uniform(f * r ** (n - 1), grid.dr)
        # Half-cells at both ends, integrated against the exact radial measure.
        inner = inner + f[..., 0] * r[0] ** n / n
        inner = inner + f[..., -1] * (grid.r_max**n - r[-1] ** n) / n
        out = surface * inner
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    return float(out) if np.ndim(out) == 0 else out


def interaction_integral(rho: np.ndarray, grid: RadialGrid, n: int) -> float:
    """Pairwise interaction energy of a radial density with itself.

    Evaluates the reduced double integral

        (n omega_n)**2 * int int rho(r) rho(s) max(r, s)**(2-n)
                                 r**(n-1) s**(n-1) dr ds

    on the cells, with q_i = rho_i times the exact shell weight of cell i.
    The centers increase with i, so the kernel of the pair (i, j) with
    j < i is r_i**(2-n), and the double sum over all pairs rearranges
    exactly into

        sum_i q_i**2 r_i**(2-n) + 2 sum_i q_i r_i**(2-n) sum_{j<i} q_j,

    which costs O(N) time and memory.  The kernel is bounded on the
    diagonal and the r**(n-1) weights vanish at the origin, so no
    special-case quadrature is needed anywhere.  Always >= 0.
    """
    rho = grid.check_profile(rho, "density", ndim=1)
    geo = grid.geometry(n)
    surface = n * unit_ball_measure(n)
    q = rho * geo.weights
    below = np.concatenate(([0.0], np.cumsum(q[:-1])))  # sum_{j<i} q_j
    return surface**2 * float((q * geo.far_power) @ (q + 2.0 * below))
