"""Field solve against closed forms, force consistency, residual order.

Closed forms with the convention Delta Phi = n (n-2) omega_n rho (n = 3
means Delta Phi = 4 pi rho):

    uniform ball, rho = 1, R = 1:
        Phi(r) = -2 pi (1 - r^2 / 3)          r <= R
        Phi(r) = -(4 pi / 3) / r              r >= R
    gaussian, rho = exp(-r^2):
        M(r)   = pi^1.5 erf(r) - 2 pi r exp(-r^2)
        Phi(r) = -(M(r) / r + 2 pi exp(-r^2))
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from epblowup.core import (ModelParams, ProfileSpec, RadialGrid,
                           TailViolationError, build_profile, unit_ball_measure)
from epblowup.poisson import (
    enclosed_weight_force,
    laplacian_residual,
    solve_potential,
)


def ball_phi(r):
    inner = -2.0 * math.pi * (1.0 - r**2 / 3.0)
    outer = -(4.0 * math.pi / 3.0) / np.maximum(r, 1e-300)
    return np.where(r <= 1.0, inner, outer)


def gauss_phi(r):
    mr = math.pi**1.5 * erf(r) - 2.0 * math.pi * r * np.exp(-(r**2))
    return -(mr / r + 2.0 * math.pi * np.exp(-(r**2)))


def test_ball_potential_matches_closed_form():
    g = RadialGrid(8.0, 1024)
    rho = (g.centers < 1.0).astype(float)
    phi = solve_potential(rho, g, 3)
    exact = ball_phi(g.centers)
    inside = g.centers < 1.0 - 2 * g.dr
    outside = g.centers > 1.0 + 2 * g.dr
    assert np.max(np.abs(phi[inside] - exact[inside])) < 1e-12
    assert np.max(np.abs(phi[outside] - exact[outside])) < 1e-10


def test_gaussian_potential_matches_closed_form():
    g = RadialGrid(8.0, 1024)
    rho = np.exp(-g.centers**2)
    phi = solve_potential(rho, g, 3)
    err = np.max(np.abs(phi - gauss_phi(g.centers)))
    assert err < 5e-5  # measured 3.6e-5 at this resolution


def test_potential_negative_and_monotone_for_positive_source():
    g = RadialGrid(8.0, 512)
    rho = np.exp(-g.centers**2)
    phi = solve_potential(rho, g, 3)
    assert np.all(phi < 0.0)
    assert np.all(np.diff(phi) > 0.0)  # deepest at the center


def test_forces_agree_and_match_closed_form():
    # the enclosed-moment force against the slope of the solved potential
    # and against the gaussian closed form Phi'(r) = M(r) / r^2
    g = RadialGrid(8.0, 1024)
    rho = np.exp(-g.centers**2)
    f_mass = enclosed_weight_force(rho, g, 3)
    f_grad = np.gradient(solve_potential(rho, g, 3), g.dr, edge_order=2)
    assert np.max(np.abs(f_grad - f_mass)) < 2e-4
    r = g.centers
    exact = (math.pi**1.5 * erf(r) - 2.0 * math.pi * r * np.exp(-(r**2))) / r**2
    assert np.max(np.abs(f_mass - exact)) < 5e-5  # measured 3.3e-5


@pytest.mark.parametrize("cells", [512, 1024, 2048])
def test_ball_force_exact_with_edge_on_cell_edge(cells):
    # R = 1 is a cell edge at every resolution here, so every enclosed
    # moment is an exact sum of shell volumes: the force is exact to
    # roundoff (measured <= 1.2e-15 of the peak), where central differences
    # of Phi are first order at the edge (2.9e-3, 1.5e-3, 7.3e-4)
    g = RadialGrid(8.0, cells)
    r = g.centers
    f = enclosed_weight_force((r < 1.0).astype(float), g, 3)
    exact = np.where(r < 1.0, 4.0 * math.pi * r / 3.0,
                     4.0 * math.pi / (3.0 * r**2))
    assert np.max(np.abs(f - exact)) <= 1e-13 * np.max(exact)


def test_laplacian_residual_small_for_solved_fields():
    g = RadialGrid(8.0, 1024)
    ball = (g.centers < 1.0).astype(float)
    smooth = np.exp(-g.centers**2)
    assert laplacian_residual(ball, solve_potential(ball, g, 3), g, 3) < 1e-3
    assert laplacian_residual(smooth, solve_potential(smooth, g, 3), g, 3) < 1e-5


def test_laplacian_residual_second_order_on_smooth():
    vals = []
    for cells in (128, 256, 512, 1024):
        g = RadialGrid(8.0, cells)
        rho = np.exp(-g.centers**2)
        vals.append(laplacian_residual(rho, solve_potential(rho, g, 3), g, 3))
    for coarse, fine in zip(vals, vals[1:]):
        assert 3.2 < coarse / fine < 4.8


def test_build_profile_guards_truncation():
    # width 2 gaussian leaves real mass at r_max = 4: build_profile refuses
    # it as initial data, while solve_potential solves any finite density
    g = RadialGrid(4.0, 256)
    spec = ProfileSpec(kind="gaussian", amplitude=1.0, width=2.0)
    with pytest.raises(TailViolationError):
        build_profile(spec, g, ModelParams(n=3, gamma=5.0 / 3.0, delta=-1))
    rho = np.exp(-((g.centers / 2.0) ** 2))
    phi = solve_potential(rho, g, 3)
    assert phi.shape == (256,)
    assert np.isfinite(phi).all()


def test_n4_ball_exterior_kernel():
    # in n = 4 the exterior potential falls like r^(-2)
    g = RadialGrid(8.0, 1024)
    rho = (g.centers < 1.0).astype(float)
    phi = solve_potential(rho, g, 4)
    r = g.centers
    outside = r > 1.5
    mass4 = 0.5 * math.pi**2 * 1.0  # omega_4 R^4, R = 1
    assert np.allclose(phi[outside], -mass4 / r[outside] ** 2, atol=1e-10)


# the two cumulative moments as concatenated shifted cumsums, one
# temporary per operation: the fused kernels must match them bit for bit
def _inner_moment_reference(rho, geo, n):
    whole_in = rho * geo.weights
    inner = np.concatenate(([0.0], np.cumsum(whole_in)[:-1]))
    return inner + rho * geo.inner_cut / n


def _solve_potential_reference(rho, g, n):
    geo = g.geometry(n)
    inner = _inner_moment_reference(rho, geo, n)
    whole_out = rho * geo.shell_sq / 2.0
    outer = np.concatenate((np.cumsum(whole_out[::-1])[::-1][1:], [0.0]))
    outer = outer + rho * geo.outer_cut / 2.0
    surface = n * unit_ball_measure(n)
    return -surface * (geo.far_power * inner + outer)


def _force_reference(rho, g, n):
    inner = _inner_moment_reference(rho, g.geometry(n), n)
    return n * (n - 2.0) * unit_ball_measure(n) * inner / g.centers ** (n - 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("cells", [8, 9, 257])
def test_potential_and_force_match_reference(n, cells):
    # densities over 25 decades with exact zeros, on even and odd grids
    rng = np.random.default_rng(cells * n)
    g = RadialGrid(8.0, cells)
    rho = rng.random(cells) * 10.0 ** rng.integers(-20, 5, cells)
    rho[::4] = 0.0
    before = rho.tobytes()
    phi = solve_potential(rho, g, n)
    force = enclosed_weight_force(rho, g, n)
    assert phi.tobytes() == _solve_potential_reference(rho, g, n).tobytes()
    assert force.tobytes() == _force_reference(rho, g, n).tobytes()
    # the density is only read, and the results are fresh arrays
    assert rho.tobytes() == before
    assert not np.shares_memory(phi, rho)
    assert not np.shares_memory(force, rho)
    assert not np.shares_memory(phi, force)
