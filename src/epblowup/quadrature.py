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
integrate_radial contracts a profile, or a stack of them (last axis = cells),
with one of the grid's two quadrature weight vectors, ShellGeometry.weights
(midpoint) or ShellGeometry.simpson.  Every profile passes
RadialGrid.check_profile (GridMismatchError, NonFiniteSampleError).
"""

from __future__ import annotations

import numpy as np

from .core import RadialGrid, unit_ball_measure

__all__ = [
    "integrate_radial",
    "interaction_integral",
]


def integrate_radial(f: np.ndarray, grid: RadialGrid, n: int,
                     rule: str = "simpson") -> float | np.ndarray:
    """Integrate a cell-centered radial profile, or a stack of them, over R^n.

    f has shape (N,) or (..., N), one profile per row of the last axis;
    one profile gives a float, a stack an array of the leading shape, so
    several integrals of one snapshot cost one check and one contraction.

    Each rule is a weight vector of grid.geometry(n), built once per grid
    and dimension.  The midpoint rule ("midpoint", the weights vector)
    weights each sample with the exact shell measure of its cell.  The
    Simpson rule ("simpson", the simpson vector) is composite Simpson on
    f(r) * r**(n-1) across the centers, with the two boundary half-cells
    closed against the exact measure.  Both rules are second order in the
    cell width.  Every row is contracted on its own, so a stack gives each
    row bit for bit what that row gives alone.
    """
    f = grid.check_profile(f)
    geo = grid.geometry(n)
    if rule == "midpoint":
        w = geo.weights
    elif rule == "simpson":
        w = geo.simpson
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    # einsum sums each row alone; the blocking of f @ w depends on the stack
    out = n * unit_ball_measure(n) * np.einsum("...i,i->...", f, w)
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
