"""Moment integrals, functionals, rate extraction and the CSV layout."""

import math

import numpy as np
import pytest

import epblowup.diagnostics as diag
from epblowup.core import ModelParams, ProfileSpec, RadialGrid, build_profile
from epblowup.diagnostics import (
    MissingPotentialError,
    NonuniformSpacingError,
    compute_functionals,
    compute_quantities,
    finite_difference_rates,
    series_csv,
    write_series_csv,
)
from epblowup.poisson import solve_potential

P3 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)


def make_state(velocity_alpha=0.0, cells=512):
    g = RadialGrid(8.0, cells)
    spec = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0,
                       velocity_kind="linear" if velocity_alpha else "zero",
                       velocity_alpha=velocity_alpha)
    st = build_profile(spec, g, P3, mode="IEP")
    return st.with_phi(solve_potential(st.rho, g, 3)), g


def test_requires_potential():
    g = RadialGrid(8.0, 64)
    st = build_profile(ProfileSpec(kind="gaussian"), g, P3)
    with pytest.raises(MissingPotentialError):
        compute_quantities(st, g, P3)


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
    assert q.e_pot == pytest.approx(0.5 * q.int_rho_phi, rel=1e-12)
    assert q.e_total == pytest.approx(q.e_kin + q.e_int + q.e_pot, rel=1e-12)


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
    f = compute_functionals(q, P3)
    expect = 2.0 * q.e_kin + 3.0 * (P3.gamma - 1.0) * q.e_int \
        - 0.5 * P3.delta * q.int_rho_phi
    assert f.h_delta == pytest.approx(expect, rel=1e-12)
    # parabola moments at t = 0 (tau = 1)
    assert f.j_delta == pytest.approx(
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
            e_kin=0.0, e_int=0.0, e_pot=0.0, e_total=0.0, int_rho_phi=0.0))
    rates = finite_difference_rates(qs, fields=("half_inertia",))
    mid_f = np.array([q.momentum_weight for q in qs[1:-1]])
    assert np.allclose(rates["half_inertia"], mid_f, atol=1e-12)
    assert np.allclose(rates["t"], [q.time for q in qs[1:-1]])


def test_rates_reject_ragged_sampling():
    qs = []
    for t in (0.0, 0.1, 0.25):
        qs.append(diag.QuantitySet(
            time=t, mass=1.0, momentum_weight=0.0, half_inertia=0.0,
            e_kin=0.0, e_int=0.0, e_pot=0.0, e_total=0.0, int_rho_phi=0.0))
    with pytest.raises(NonuniformSpacingError):
        finite_difference_rates(qs)
    with pytest.raises(NonuniformSpacingError):
        finite_difference_rates(qs[:2])


def test_csv_layout_and_roundtrip(tmp_path):
    st, g = make_state(velocity_alpha=0.2, cells=128)
    q = compute_quantities(st, g, P3)
    f = compute_functionals(q, P3)
    text = series_csv([q], [f])
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")  # version pin
    assert lines[1].split(",") == list(diag.CSV_COLUMNS)
    row = [float(tok) for tok in lines[2].split(",")]
    assert row[0] == 0.0
    assert row[1] == pytest.approx(q.mass)
    path = tmp_path / "series.csv"
    write_series_csv(path, [q], [f])
    assert path.read_text() == text
    with pytest.raises(ValueError):
        series_csv([q], [])
