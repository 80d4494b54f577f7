"""Radial quadrature and the double interaction integral."""

import math

import numpy as np
import pytest

from epblowup.constants import unit_ball_measure
from epblowup.core import RadialGrid
from epblowup.quadrature import integrate_radial, interaction_integral

# closed forms used below (n = 3 throughout):
#   int of exp(-r^2) over R^3       = pi**1.5
#   uniform ball rho=1, R=1 self-interaction with the 1/|x-y| kernel:
#   32 pi^2 / 15
GAUSS_MASS = math.pi ** 1.5
BALL_SELF = 32.0 * math.pi**2 / 15.0
GAUSS_SELF = math.sqrt(2.0) * math.pi ** 2.5


def test_gaussian_mass_both_rules():
    g = RadialGrid(8.0, 1024)
    f = np.exp(-g.centers**2)
    simpson = integrate_radial(f, g, 3, "simpson")
    midpoint = integrate_radial(f, g, 3, "midpoint")
    assert simpson == pytest.approx(GAUSS_MASS, rel=1e-10)
    # midpoint converges at second order; measured 1.02e-5 at 1024 cells
    assert midpoint == pytest.approx(GAUSS_MASS, rel=2e-5)
    assert abs(simpson - GAUSS_MASS) < abs(midpoint - GAUSS_MASS)


def test_midpoint_exact_for_ball():
    # shell-average data model: a uniform ball sampled at cell centers has
    # exact cell masses except in the single cut cell
    g = RadialGrid(8.0, 2000)  # 2000 puts the jump exactly on a cell edge
    f = (g.centers < 1.0).astype(float)
    assert integrate_radial(f, g, 3, "midpoint") == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-12)


def test_simpson_needs_odd_samples_handled():
    # even cell counts must still work (composite rule with end correction)
    g = RadialGrid(4.0, 64)
    f = np.ones(64)
    out = integrate_radial(f, g, 3, "simpson")
    assert out == pytest.approx(4.0 * math.pi / 3.0 * 64.0, rel=1e-6)


def _simpson_written_out(f, grid, n):
    # composite Simpson on f(r) r**(n-1) across the centers, an even sample
    # count closed by the parabola through the last three samples, and the
    # half cells at both ends against the exact measure
    r, dx = grid.centers, grid.dr
    y = f * r ** (n - 1)
    if y.shape[-1] % 2 == 1:
        core, extra = y, 0.0
    else:
        core = y[..., :-1]
        extra = dx * (5.0 * y[..., -1] + 8.0 * y[..., -2] - y[..., -3]) / 12.0
    inner = dx / 3.0 * (core[..., 0] + core[..., -1]
                        + 4.0 * np.sum(core[..., 1:-1:2], axis=-1)
                        + 2.0 * np.sum(core[..., 2:-2:2], axis=-1)) + extra
    inner = inner + f[..., 0] * r[0] ** n / n
    inner = inner + f[..., -1] * (grid.r_max**n - r[-1] ** n) / n
    return n * unit_ball_measure(n) * inner


@pytest.mark.parametrize("cells", [8, 9, 64, 1000, 1024, 2048])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_simpson_weights_match_the_composite_rule(n, cells):
    g = RadialGrid(8.0, cells)
    rng = np.random.default_rng(cells + 10 * n)
    profile = np.exp(-g.centers**2)
    stack = rng.uniform(0.0, 2.0, (3, 4, cells))
    assert integrate_radial(profile, g, n) == pytest.approx(
        _simpson_written_out(profile, g, n), rel=1e-14, abs=0.0)
    np.testing.assert_allclose(integrate_radial(stack, g, n),
                               _simpson_written_out(stack, g, n),
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("rule", ["simpson", "midpoint"])
def test_stack_matches_rows(rule):
    # a stack along the last axis gives each row's own integral, bit for
    # bit: the contraction rounds row by row
    g = RadialGrid(8.0, 1024)
    r = g.centers
    stack = np.array([np.exp(-r**2), (r < 1.0).astype(float),
                      r**2 * np.exp(-r**2), np.exp(-((r - 2.0) / 0.4) ** 2)])
    rows = [integrate_radial(f, g, 3, rule) for f in stack]
    assert all(type(value) is float for value in rows)
    out = integrate_radial(stack, g, 3, rule)
    assert out.shape == (4,)
    assert out.tolist() == rows
    deep = integrate_radial(stack.reshape(2, 2, -1), g, 3, rule)
    assert deep.reshape(-1).tolist() == rows


def test_interaction_ball_closed_form():
    g = RadialGrid(8.0, 1024)
    rho = (g.centers < 1.0).astype(float)
    val = interaction_integral(rho, g, 3)
    assert val == pytest.approx(BALL_SELF, rel=2e-3)


def test_interaction_gaussian_closed_form():
    g = RadialGrid(8.0, 1024)
    rho = np.exp(-g.centers**2)
    val = interaction_integral(rho, g, 3)
    assert val == pytest.approx(GAUSS_SELF, rel=1e-4)


def _interaction_full_double_sum(rho, grid, n):
    # the explicit N x N pair sum that interaction_integral rearranges
    q = rho * grid.shell_weights(n)
    kernel = np.maximum.outer(grid.centers, grid.centers) ** (2 - n)
    return (n * unit_ball_measure(n)) ** 2 * float(q @ kernel @ q)


@pytest.mark.parametrize("cells", [64, 257])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("shape", ["ball", "gaussian", "random"])
def test_interaction_matches_full_double_sum(shape, n, cells):
    g = RadialGrid(4.0, cells)
    rho = {
        "ball": (g.centers < 1.0).astype(float),
        "gaussian": np.exp(-g.centers**2),
        "random": np.random.default_rng(cells + 10 * n).uniform(0.0, 2.0, cells),
    }[shape]
    expect = _interaction_full_double_sum(rho, g, n)
    assert interaction_integral(rho, g, n) == pytest.approx(expect, rel=1e-12)


def test_interaction_scaling_law():
    # kernel max(r,s)^(2-n): rho_lambda(x) = rho(x/lambda) scales the
    # integral by lambda**(n + 2)
    g = RadialGrid(8.0, 1024)
    rho = np.exp(-g.centers**2)
    rho2 = np.exp(-(g.centers / 2.0) ** 2)
    v1 = interaction_integral(rho, g, 3)
    v2 = interaction_integral(rho2, g, 3)
    assert v2 / v1 == pytest.approx(2.0**5, rel=1e-3)


def test_gaussian_mass_refinement_is_second_order():
    errs = []
    for cells in (128, 256, 512):
        g = RadialGrid(8.0, cells)
        mass = integrate_radial(np.exp(-g.centers**2), g, 3, "midpoint")
        errs.append(abs(mass - GAUSS_MASS))
    # error reduction per halving of the cell width
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    assert 3.2 < ratio < 4.8
