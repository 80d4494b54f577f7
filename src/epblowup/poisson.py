"""Interaction potential of a radial density and its radial force.

The potential is the convolution Phi(x) = -int |x - y|**(2-n) rho(y) dy.
For radial rho the angular integration is exact: the average of the kernel
over a sphere of radius s equals max(r, s)**(2-n), which collapses the
convolution to two one-dimensional cumulative integrals,

    Phi(r) = -n omega_n [ r**(2-n) int_0^r s**(n-1) rho(s) ds
                          + int_r^rmax s rho(s) ds ].

Phi satisfies  Lap(Phi) = n (n-2) omega_n rho  and is <= 0 for rho >= 0.
Each function takes one profile, not a stack; every profile passes
RadialGrid.check_profile (GridMismatchError, NonFiniteSampleError).
"""

from __future__ import annotations

import numpy as np

from .core import RadialGrid, ShellGeometry, unit_ball_measure

__all__ = [
    "solve_potential",
    "enclosed_weight_force",
    "laplacian_residual",
]


def _inner_moment(rho: np.ndarray, geo: ShellGeometry, n: int) -> np.ndarray:
    """int_0^r s**(n-1) rho ds, cut at each cell center (a fresh array)."""
    # whole shells strictly inside each center, then the cut of its own cell
    inner = np.empty_like(rho)
    inner[0] = 0.0
    np.cumsum(rho[:-1] * geo.weights[:-1], out=inner[1:])
    own = rho * geo.inner_cut
    own /= n
    inner += own
    return inner


def solve_potential(rho: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Potential at cell centers via the two cumulative radial integrals.

    Each cumulative sum is split at the evaluation point's own cell center,
    so the discretization is second order in the cell width.  The far-field
    truncation at r_max is only valid for decayed densities; build_profile
    holds initial data to that, and this function does not check it.
    """
    rho = grid.check_profile(rho, "density", ndim=1)
    geo = grid.geometry(n)
    phi = _inner_moment(rho, geo, n)

    # outer moment: int_r^rmax s rho ds over the whole shells strictly
    # outside each center, summed from the edge inwards, then the own cut
    whole_out = rho * geo.shell_sq
    whole_out /= 2.0
    outer = np.empty_like(rho)
    outer[-1] = 0.0
    np.cumsum(whole_out[:0:-1], out=outer[-2::-1])
    own = rho * geo.outer_cut
    own /= 2.0
    outer += own

    surface = n * unit_ball_measure(n)
    phi *= geo.far_power
    phi += outer
    phi *= -surface
    return phi


def enclosed_weight_force(rho: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """d(Phi)/dr at cell centers from the enclosed moment, without Phi.

    Differentiating the cumulative form of the potential cancels the outer
    moment exactly and leaves

        d(Phi)/dr = n (n-2) omega_n * r**(1-n) * int_0^r s**(n-1) rho ds.

    This is the solver's interaction force: one cumulative sum, second
    order at a density jump, and exact to roundoff on a uniform ball whose
    edge is a cell edge.
    """
    rho = grid.check_profile(rho, "density", ndim=1)
    geo = grid.geometry(n)
    force = _inner_moment(rho, geo, n)
    force *= n * (n - 2.0) * unit_ball_measure(n)
    force /= geo.center_areas
    return force


def laplacian_residual(rho: np.ndarray, phi: np.ndarray, grid: RadialGrid,
                       n: int) -> float:
    """Relative L2 defect of the field equation Lap(Phi) = n(n-2) omega_n rho.

    The Laplacian is discretized in flux form over interior cells,
    (a_out dPhi_out - a_in dPhi_in) / w with face areas a = r**(n-1) and
    exact shell volumes w.  Face derivatives are central differences with a
    curvature-jump correction: the second derivative of Phi jumps with rho
    across a density discontinuity, which a plain central difference smears
    into an O(1) defect in the two neighbouring cells.  Subtracting
    dr * source_jump / 8 (from one-sided Taylor expansions on either side of
    the face) restores second-order accuracy there, and for smooth rho the
    term is itself O(dr^2) so nothing is lost.  The two boundary cells are
    excluded (the outer one sees the truncated far field, the inner one has
    no inward neighbor).
    """
    rho = grid.check_profile(rho, "density", ndim=1)
    phi = grid.check_profile(phi, "potential", ndim=1)
    source = n * (n - 2.0) * unit_ball_measure(n)
    geo = grid.geometry(n)
    faces = geo.areas[1:-1]                      # interior faces only
    dphi = np.diff(phi) / grid.dr                # derivative at interior faces
    dphi = dphi - grid.dr * source * np.diff(rho) / 8.0
    w = geo.weights
    flux = faces * dphi
    lap = (flux[1:] - flux[:-1]) / w[1:-1]
    rhs = source * rho[1:-1]
    wt = w[1:-1]
    num = float(np.sum((lap - rhs) ** 2 * wt))
    den = float(np.sum(rhs**2 * wt))
    # zero density: report the absolute defect instead of dividing by zero
    return (num / den) ** 0.5 if den > 0.0 else num**0.5
