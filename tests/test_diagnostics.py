"""Moment integrals, functionals, rate extraction and the CSV layout."""

import math
from dataclasses import astuple

import numpy as np
import pytest

import epblowup.diagnostics as diag
from epblowup.core import (ModelParams, ProfileSpec, RadialGrid, RadialState,
                           build_profile)
from epblowup.diagnostics import (
    NonuniformSpacingError,
    compute_quantities,
    finite_difference_rates,
    series_csv,
    write_series_csv,
)
from epblowup.poisson import solve_potential
from epblowup.quadrature import integrate_radial

P3 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)


def make_state(velocity_alpha=0.0, cells=512):
    g = RadialGrid(8.0, cells)
    spec = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0,
                       velocity_kind="linear" if velocity_alpha else "zero",
                       velocity_alpha=velocity_alpha)
    st = build_profile(spec, g, P3, mode="IEP")
    return st, g


def test_quantity_values_against_closed_forms():
    st, g = make_state()
    q = compute_quantities(st, g, P3)
    assert q.mass == pytest.approx(math.pi**1.5, rel=1e-4)
    assert q.momentum_weight == 0.0
    assert q.e_kin == 0.0
    # G = (1/2) int rho r^2 = (3/4) pi^1.5 for the unit gaussian
    assert q.half_inertia == pytest.approx(0.75 * math.pi**1.5, rel=1e-4)
    # I = int rho**gamma / (gamma - 1), gamma = 5/3: (3/2) (3/5)^1.5 pi^1.5
    assert q.e_int == pytest.approx(
        1.5 * (3.0 / 5.0) ** 1.5 * math.pi**1.5, rel=1e-4)
    # attractive: e_pot = +(1/2) int rho phi < 0 here
    assert q.e_pot < 0.0
    int_rho_phi = integrate_radial(st.rho * solve_potential(st.rho, g, 3), g, 3,
                                   "midpoint")
    assert q.e_pot == pytest.approx(0.5 * int_rho_phi, rel=1e-12)
    assert q.e_total == pytest.approx(q.e_kin + q.e_int + q.e_pot, rel=1e-12)


def test_one_integral_and_one_potential_call_per_snapshot(monkeypatch):
    # the six moment integrals go through one stacked integrate_radial call
    st, g = make_state(velocity_alpha=0.3)
    calls = []
    for name in ("integrate_radial", "solve_potential"):
        def counted(*args, _name=name, _fn=getattr(diag, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(diag, name, counted)
    compute_quantities(st, g, P3)
    assert sorted(calls) == ["integrate_radial", "solve_potential"]


def _compute_quantities_reference(state, g, params, seen):
    # the six integrands as one np.stack of one temporary per operation;
    # the row-by-row block must match it bit for bit
    n, gamma, delta = params.n, params.gamma, params.delta
    r = g.centers
    rho, u = state.rho, state.u_r
    phi = solve_potential(rho, g, n)
    integrands = np.stack((rho, rho * u * r, rho * r**2, rho * u**2, state.p,
                           rho * phi))
    seen.append(integrands)
    mass, momentum_weight, inertia, twice_e_kin, pressure_int, int_rho_phi = \
        integrate_radial(integrands, g, n, "midpoint").tolist()
    half_inertia = 0.5 * inertia
    e_kin = 0.5 * twice_e_kin
    e_int = pressure_int / (gamma - 1.0)
    e_pot = -0.5 * delta * int_rho_phi
    e_total = e_kin + e_int + e_pot
    h = 2.0 * e_kin + n * (gamma - 1.0) * e_int + (n - 2.0) * e_pot
    tau = state.time + 1.0
    return (state.time, mass, momentum_weight, half_inertia, e_kin, e_int,
            e_pot, e_total, h, half_inertia - tau * momentum_weight
            + tau**2 * e_total)


@pytest.mark.parametrize("params", [P3, ModelParams(n=4, gamma=1.4, delta=1)])
def test_quantities_match_reference_and_leave_the_state(params, monkeypatch):
    # the integrand blocks themselves are compared too: a sum can hide a
    # last-bit change in one of its terms
    seen = []

    def recorded(f, *args):
        seen.append(np.array(f))
        return integrate_radial(f, *args)

    monkeypatch.setattr(diag, "integrate_radial", recorded)
    rng = np.random.default_rng(params.n)
    g = RadialGrid(8.0, 257)
    rho = np.exp(-g.centers**2) * rng.uniform(0.5, 1.5, g.cells)
    st = RadialState(rho=rho, u_r=rng.standard_normal(g.cells),
                     p=rho**params.gamma * rng.uniform(0.5, 1.5, g.cells),
                     mode="EP", time=0.3)
    before = [a.tobytes() for a in (st.rho, st.u_r, st.p)]
    q = compute_quantities(st, g, params)
    expected = _compute_quantities_reference(st, g, params, seen)
    block, reference = seen
    assert block.tobytes() == reference.tobytes()
    assert np.array(astuple(q)).tobytes() == np.array(expected).tobytes()
    assert [a.tobytes() for a in (st.rho, st.u_r, st.p)] == before


def test_cauchy_schwarz_margin_and_equality():
    st, g = make_state(velocity_alpha=1.0)  # u_r = r
    q = compute_quantities(st, g, P3)
    # F = int rho r^2 and 4 G E_k = (int rho r^2)^2: exact equality
    assert q.momentum_weight**2 == pytest.approx(
        4.0 * q.half_inertia * q.e_kin, rel=1e-12)
    st2, g2 = make_state(velocity_alpha=-0.3)
    q2 = compute_quantities(st2, g2, P3)
    assert q2.momentum_weight**2 <= 4.0 * q2.half_inertia * q2.e_kin * (1 + 1e-12)


def test_functional_identities():
    st, g = make_state(velocity_alpha=0.5)
    q = compute_quantities(st, g, P3)
    int_rho_phi = integrate_radial(st.rho * solve_potential(st.rho, g, 3), g, 3,
                                   "midpoint")
    expect = 2.0 * q.e_kin + 3.0 * (P3.gamma - 1.0) * q.e_int \
        - 0.5 * P3.delta * int_rho_phi
    assert q.h_delta == pytest.approx(expect, rel=1e-12)
    # parabola moments at t = 0 (tau = 1)
    assert q.j_delta == pytest.approx(
        q.half_inertia - q.momentum_weight + q.e_total, rel=1e-12)


def test_rates_recover_polynomial_series():
    # synthetic series with G(t) = 1 + 2 t + 3 t^2 sampled uniformly:
    # central differences reproduce G' = 2 + 6 t exactly
    qs = []
    for k in range(11):
        t = 0.1 * k
        qs.append(diag.QuantitySet(
            time=t, mass=1.0, momentum_weight=2.0 + 6.0 * t,
            half_inertia=1.0 + 2.0 * t + 3.0 * t**2,
            e_kin=0.0, e_int=0.0, e_pot=0.0, e_total=0.0,
            h_delta=0.0, j_delta=0.0))
    rates = finite_difference_rates(qs, fields=("half_inertia",))
    mid_f = np.array([q.momentum_weight for q in qs[1:-1]])
    assert np.allclose(rates["half_inertia"], mid_f, atol=1e-12)
    assert np.allclose(rates["t"], [q.time for q in qs[1:-1]])


def test_rates_reject_ragged_sampling():
    qs = []
    for t in (0.0, 0.1, 0.25):
        qs.append(diag.QuantitySet(
            time=t, mass=1.0, momentum_weight=0.0, half_inertia=0.0,
            e_kin=0.0, e_int=0.0, e_pot=0.0, e_total=0.0,
            h_delta=0.0, j_delta=0.0))
    with pytest.raises(NonuniformSpacingError):
        finite_difference_rates(qs, ("mass",))
    with pytest.raises(NonuniformSpacingError):
        finite_difference_rates(qs[:2], ("mass",))


def test_csv_layout_and_roundtrip(tmp_path):
    st, g = make_state(velocity_alpha=0.2, cells=128)
    q = compute_quantities(st, g, P3)
    text = series_csv([q])
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")  # version pin
    assert lines[1].split(",") == list(diag.CSV_COLUMNS)
    row = [float(tok) for tok in lines[2].split(",")]
    assert row[0] == 0.0
    assert row[1] == pytest.approx(q.mass)
    path = tmp_path / "series.csv"
    write_series_csv(path, [q])
    assert path.read_text() == text
