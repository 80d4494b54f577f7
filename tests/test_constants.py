"""Special functions, inequality constants and the certificate table."""

import math

import numpy as np
import pytest

from epblowup.constants import (
    InfeasibleExponentError,
    build_table,
    chemin_c8,
    interaction_split_constant,
    mass_bound_constants,
    minimize_hls,
    unit_ball_measure,
)
from epblowup.core import ModelParams, ProfileSpec, RadialGrid, build_profile


def test_unit_ball_measures():
    assert unit_ball_measure(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert unit_ball_measure(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)
    assert unit_ball_measure(5) == pytest.approx(8.0 * math.pi**2 / 15.0, rel=1e-14)


def test_hls_constant_frozen_value():
    # conservative ball-measure normalization; the sharp constant at this
    # diagonal point is 2.294, anything above it is a valid bound
    p_star, q_star, val = minimize_hls(3, 5.0 / 3.0)
    assert (p_star, q_star) == (1.2, 1.2)
    assert val == pytest.approx(2.665497628718767, rel=1e-12)
    assert val > 2.294


def test_hls_exponent_feasibility():
    # the one gate: gamma must exceed 2n/(n+2), the symmetric exponent
    for n in (3, 4, 5, 9):
        p_sym = 2.0 * n / (n + 2.0)
        with pytest.raises(InfeasibleExponentError):
            minimize_hls(n, p_sym)
        assert minimize_hls(n, math.nextafter(p_sym, 2.0))[:2] == (p_sym, p_sym)


def test_hls_window_and_minimizer():
    # n = 4 and 5 pin the (n-1)-ball measure factor, which lands below
    # Lieb's sharp constant there (ROADMAP item 13)
    assert minimize_hls(4, 5.0 / 3.0) == pytest.approx(
        (4.0 / 3.0, 4.0 / 3.0, 3.2562056455122046), rel=1e-12)
    assert minimize_hls(5, 5.0 / 3.0) == pytest.approx(
        (10.0 / 7.0, 10.0 / 7.0, 3.684375867198286), rel=1e-12)
    # the constant does not depend on gamma beyond the gate
    assert minimize_hls(3, 3.0) == minimize_hls(3, 5.0 / 3.0)


def _hls_on_curve(n, inv_p):
    """The convolution constant C(p, q) at 1/p = inv_p on 1/p + 1/q = (n+2)/n."""
    a = (n - 2.0) / n
    inv_q = (n + 2.0) / n - inv_p
    with np.errstate(divide="ignore"):
        bracket = (a / (1.0 - inv_p)) ** a + (a / (1.0 - inv_q)) ** a
    return inv_p * inv_q * (n / 2.0) * (unit_ball_measure(n - 1) / n) ** a * bracket


@pytest.mark.parametrize("n", [*range(3, 13), 20, 50])
def test_minimize_hls_is_the_minimum_on_the_curve(n):
    # the AM-GM argument covers n <= 8; this samples the whole open curve,
    # 2/n < 1/p < 1, endpoints included (the constant diverges there)
    _, _, c_min = minimize_hls(n, 3.0)
    values = _hls_on_curve(n, np.linspace(2.0 / n, 1.0, 200_001))
    assert values.min() >= c_min * (1.0 - 1e-12)
    assert values[100_000] == pytest.approx(c_min, rel=1e-12)  # 1/p = (n+2)/(2n)


def test_minimize_hls_infeasible_raises_every_call():
    # 2n/(n+2) = 6/5 in three dimensions; exceptions are never cached
    for _ in range(2):
        with pytest.raises(InfeasibleExponentError):
            minimize_hls(3, 1.2)
        with pytest.raises(InfeasibleExponentError):
            minimize_hls(3, 1.1)


def test_chemin_constant_closed_form():
    assert chemin_c8(3, 5.0 / 3.0) == pytest.approx(
        2.0 * (4.0 * math.pi / 3.0) ** 0.25, rel=1e-14)
    with pytest.raises(ValueError):
        chemin_c8(3, 1.0)


def test_mass_bound_constants_entropy_factor():
    c9, c10 = mass_bound_constants(3, 5.0 / 3.0, 2.0, s1=-1.5, c_nu=1.5)
    assert c9 == pytest.approx(math.exp(-1.0) * c10, rel=1e-14)
    d = (3 + 2) * (5.0 / 3.0) - 3  # = 16/3
    expect = (4.0 * math.pi / 3.0) ** (-2.0 / 3.0) * 2.0 ** (d / 2.0) / (
        2.0 ** (d / 2.0) * (2.0 / 3.0))
    assert c10 == pytest.approx(expect, rel=1e-12)


def test_interaction_split_constant_branches():
    val, branch = interaction_split_constant(3, 5.0 / 3.0, mass=4.0, c_hlp=3.0)
    assert val > 0.0
    assert branch == "low-gamma"
    _, branch_hi = interaction_split_constant(3, 2.5, mass=4.0, c_hlp=3.0)
    assert branch_hi == "high-gamma"
    with pytest.raises(InfeasibleExponentError):
        interaction_split_constant(3, 1.2, mass=4.0)
    # more mass can only push the constant up
    val2, _ = interaction_split_constant(3, 5.0 / 3.0, mass=8.0, c_hlp=3.0)
    assert val2 > val


def _ep_ball_table(cells):
    params = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)
    grid = RadialGrid(8.0, cells)
    s0 = 1.5 * math.log(0.5)
    st = build_profile(ProfileSpec(kind="ball", amplitude=1.0, radius=1.0, s0=s0),
                       grid, params, mode="EP")
    return build_table(st, grid, params, c_hlp=3.0)


def test_ball_table_closed_form_constants():
    tab = _ep_ball_table(512)
    exact = 2.0 * math.pi - 16.0 * math.pi**2 / 15.0
    assert tab.c7 == pytest.approx(exact, abs=5e-3)
    # C0 is the conserved energy moment: I + Ep = pi - 16 pi^2 / 15 here
    assert tab.c0 == pytest.approx(math.pi - 16.0 * math.pi**2 / 15.0, abs=5e-3)
    assert tab.mass == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)
    # resting data: F0 = 0 and G0 = (1/2) * 4 pi int_0^1 r^4 dr = 2 pi / 5;
    # the cut cell at the ball edge costs ~1.7e-4 relative at 512 cells
    assert tab.f0 == 0.0
    assert tab.g0 == pytest.approx(2.0 * math.pi / 5.0, rel=5e-4)


def test_table_identities_and_entropy_floor():
    tab = _ep_ball_table(256)
    # c11 is the tau = 1 parabola value of the conserved energy moment
    assert tab.c11 == pytest.approx(tab.g0 - tab.f0 + tab.c0, rel=1e-12)
    assert tab.s1 == pytest.approx(1.5 * math.log(0.5), rel=1e-12)
    assert tab.c9 == pytest.approx(0.5 * tab.c10, rel=1e-10)
    assert tab.theta == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_table_json_contract():
    tab = _ep_ball_table(128)
    payload = tab.to_json_dict()
    for key in ("C_HLP", "C_HLS_min", "C0", "C7", "C10", "C11",
                "f0", "g0", "theta", "mass"):
        assert key in payload, key
    assert payload["C_HLP"] == 3.0


def test_default_chlp_carries_caveat():
    params = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)
    grid = RadialGrid(8.0, 128)
    st = build_profile(ProfileSpec(kind="gaussian"), grid, params)
    tab = build_table(st, grid, params)  # c_hlp defaults to 1.0
    assert any("C_HLP" in note for note in tab.notes)
    tab3 = build_table(st, grid, params, c_hlp=3.0)
    assert not any("default 1.0" in note for note in tab3.notes)


@pytest.mark.parametrize("gamma", [1.2, 2.0, 2.5])
def test_default_chlp_caveat_only_where_c2_uses_it(gamma):
    # C2 has a C_HLP factor only on its low-gamma branch: at gamma >= 2 it
    # has none, and at gamma = 1.2 (n = 3) C2 is unavailable
    params = ModelParams(n=3, gamma=gamma, delta=-1)
    grid = RadialGrid(8.0, 128)
    st = build_profile(ProfileSpec(kind="gaussian"), grid, params)
    tab = build_table(st, grid, params)
    assert tab.c2_branch != "low-gamma"
    assert not any("C_HLP" in note for note in tab.notes)


def test_infeasible_interpolation_reported_in_notes():
    # C1 has one gate, minimize_hls's gamma > 2n/(n+2); below it theta =
    # (n-2) gamma / (n (gamma-1)) would reach 2
    grid = RadialGrid(8.0, 64)
    for n in (3, 4, 5):
        p_sym = 2.0 * n / (n + 2.0)
        for gamma in (1.1, p_sym, math.nextafter(p_sym, 2.0), 5.0 / 3.0, 2.5):
            params = ModelParams(n=n, gamma=gamma, delta=-1)
            st = build_profile(ProfileSpec(kind="gaussian"), grid, params)
            tab = build_table(st, grid, params)
            infeasible = gamma <= p_sym
            assert (tab.c1 is None) == infeasible, (n, gamma)
            assert (tab.theta is None) == infeasible
            assert any("C1 unavailable" in note for note in tab.notes) == infeasible
            if not infeasible:
                assert 0.0 < tab.theta < 2.0
