"""Special functions, inequality constants and the certificate table."""

import math

import pytest

from epblowup.constants import (
    InfeasibleExponentError,
    build_table,
    chemin_c8,
    hls_constant,
    hls_exponent_window,
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
    val = hls_constant(1.2, 1.2, 1.0, 3)
    assert val == pytest.approx(2.665497628718767, rel=1e-12)
    assert val > 2.294


def test_hls_exponent_feasibility():
    with pytest.raises(ValueError):
        hls_constant(1.0, 1.2, 1.0, 3)  # p must exceed 1
    with pytest.raises(ValueError):
        hls_constant(2.0, 2.0, 1.0, 3)  # scaling balance violated
    with pytest.raises(InfeasibleExponentError):
        hls_exponent_window(3, 1.1)  # below 2n/(n+2)


def test_hls_window_and_minimizer():
    lo, hi = hls_exponent_window(3, 5.0 / 3.0)
    assert (lo, hi) == pytest.approx((1.0, 1.5))
    p_star, q_star, c_min = minimize_hls(3, 5.0 / 3.0)
    assert p_star == pytest.approx(1.2, abs=1e-6)
    assert q_star == pytest.approx(1.2, abs=1e-6)
    assert c_min == pytest.approx(2.665497628718767, rel=1e-9)


def test_minimize_hls_is_memoized():
    first = minimize_hls(3, 5.0 / 3.0)
    hits = minimize_hls.cache_info().hits
    assert minimize_hls(3, 5.0 / 3.0) == first
    assert minimize_hls.cache_info().hits > hits


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


def test_infeasible_interpolation_reported_in_notes():
    # gamma close to 1 pushes theta = (n-2) gamma / (n (gamma-1)) above 2
    params = ModelParams(n=3, gamma=1.1, delta=-1)
    grid = RadialGrid(8.0, 128)
    st = build_profile(ProfileSpec(kind="gaussian"), grid, params)
    tab = build_table(st, grid, params)
    assert tab.c1 is None
    assert tab.theta is None
    assert any("C1 unavailable" in note for note in tab.notes)
