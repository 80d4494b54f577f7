"""Time integration: conservation, convergence, stopping behavior.

The self-convergence studies compare each resolution against its own
4x-refined companion run (same fixed dt / 4), cell-averaged back onto the
coarse grid.  Frozen windows come from measured runs: the vacuum-bounded
ball front smears at the contact rate, between h^(1/2) and h^(2/3), so its
L1 ratios sit near 1.2-1.6 per halving; the smooth cloud shows clean
second order (ratio 4).
"""

import math
from dataclasses import astuple

import numpy as np
import pytest

from epblowup import solver
from epblowup.core import ModelParams, ProfileSpec, RadialGrid, build_profile
from epblowup.poisson import solve_potential
from epblowup.solver import (RunResult, SolverConfig, _minmod, _reconstruct,
                             run, step)
from epblowup.constants import build_table

P3 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)
BALL = ProfileSpec(kind="ball", amplitude=1.0, radius=1.0)
GAUSS = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0)


def l1_against_refined(spec, cells, fdt, t_end=0.1):
    g = RadialGrid(8.0, cells)
    st = build_profile(spec, g, P3, mode="IEP")
    r = run(st, g, P3, SolverConfig(t_end=t_end, fixed_dt=fdt))
    gref = RadialGrid(8.0, 4 * cells)
    stref = build_profile(spec, gref, P3, mode="IEP")
    rref = run(stref, gref, P3, SolverConfig(t_end=t_end, fixed_dt=fdt / 4.0))
    assert r.stop_reason == "t_end"
    assert rref.stop_reason == "t_end"
    ref_coarse = rref.final_state.rho.reshape(cells, 4).mean(axis=1)
    return float(np.sum(np.abs(r.final_state.rho - ref_coarse)
                        * g.shell_weights(3)))


def test_single_step_reports():
    g = RadialGrid(8.0, 128)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    st = st.with_phi(solve_potential(st.rho, g, 3))
    nxt, info = step(st, g, P3, SolverConfig(t_end=1.0), dt=1e-4)
    assert nxt.time == pytest.approx(1e-4)
    assert info["positive"]
    assert info["dt"] == 1e-4
    assert info["dt_cfl"] > 0.0


def test_mass_conserved_to_roundoff():
    g = RadialGrid(8.0, 256)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    r = run(st, g, P3, SolverConfig(t_end=0.05))
    m = np.array([q.mass for q in r.quantities])
    # the flux form conserves exactly; the first-step floor application in
    # the far field costs ~2e-12 relative once
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-10


def test_uniform_sampling_for_rate_extraction():
    g = RadialGrid(8.0, 256)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    r = run(st, g, P3, SolverConfig(t_end=0.1))
    dts = np.diff(r.times)
    assert np.max(np.abs(dts - dts[0])) < 1e-12
    assert r.times[-1] == pytest.approx(0.1)


def test_density_floor_guard():
    g = RadialGrid(8.0, 64)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    with pytest.raises(ValueError):
        run(st, g, P3, SolverConfig(t_end=0.1, density_floor=0.1))


def test_ball_self_convergence_near_discontinuity():
    errs = [l1_against_refined(BALL, cells, fdt)
            for cells, fdt in ((128, 0.008), (256, 0.004), (512, 0.002))]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for ratio in ratios:
        assert 1.1 < ratio < 2.6, f"ratios {ratios}"


def test_gaussian_self_convergence_smooth():
    errs = [l1_against_refined(GAUSS, cells, fdt)
            for cells, fdt in ((128, 0.008), (256, 0.004), (512, 0.002))]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for ratio in ratios:
        assert 3.2 < ratio < 4.8, f"ratios {ratios}"


def test_piecewise_constant_option_is_first_order():
    # the order-1 reconstruction stays available, and is visibly worse on
    # smooth flow
    g = RadialGrid(8.0, 256)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    r2 = run(st, g, P3, SolverConfig(t_end=0.05, reconstruction="muscl"))
    r1 = run(st, g, P3, SolverConfig(t_end=0.05, reconstruction="pc"))
    g4 = RadialGrid(8.0, 1024)
    st4 = build_profile(GAUSS, g4, P3, mode="IEP")
    ref = run(st4, g4, P3, SolverConfig(t_end=0.05)).final_state.rho
    ref_c = ref.reshape(256, 4).mean(axis=1)
    w = g.shell_weights(3)
    e1 = np.sum(np.abs(r1.final_state.rho - ref_c) * w)
    e2 = np.sum(np.abs(r2.final_state.rho - ref_c) * w)
    assert e2 < 0.2 * e1


def ep_ball_run(cells=256):
    params = P3
    g = RadialGrid(8.0, cells)
    s0 = 1.5 * math.log(0.5)
    st = build_profile(ProfileSpec(kind="ball", amplitude=1.0, radius=1.0, s0=s0),
                       g, params, mode="EP")
    st = st.with_phi(solve_potential(st.rho, g, 3))
    table = build_table(st, g, params, c_hlp=3.0)
    return run(st, g, params, SolverConfig(t_end=1.0)), table


def test_collapse_stops_on_gradient_blowup():
    result, table = ep_ball_run()
    assert result.stop_reason == "gradient-blowup"
    assert 0.3 < result.times[-1] < 0.9
    # the core has genuinely spiked
    assert np.max(result.final_state.rho) > 100.0


def test_collapse_inertia_parabola():
    # the derived second-moment envelope has coefficient C7/2; the run must
    # respect it to discretization accuracy (measured -7.6e-3 of G0 at 256
    # cells, shrinking to -2.1e-3 at 512).  The same data violates the
    # steeper all-C7 parabola by half a G0 before blow-up, which is why the
    # halved form is the one a test can hold.
    result, table = ep_ball_run()
    ts = result.times
    G = np.array([q.half_inertia for q in result.quantities])
    derived = 0.5 * table.c7 * ts**2 + table.f0 * ts + table.g0
    steep = table.c7 * ts**2 + table.f0 * ts + table.g0
    assert float(np.min(derived - G)) > -2e-2 * table.g0
    assert float(np.min(steep - G)) < -0.5


def test_energy_mode_switch_is_complementary():
    # the energy equation can be closed with or without the coupling work
    # term; each choice conserves its own invariant and visibly breaks the
    # other one
    params = P3
    g = RadialGrid(8.0, 512)
    st = build_profile(ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0,
                                   s0=0.3), g, params, mode="EP")

    r_plain = run(st, g, params, SolverConfig(t_end=0.2))
    r_work = run(st, g, params, SolverConfig(t_end=0.2, work_term=True))

    def drift(result, key):
        qs = result.quantities
        if key == "ek_ei":
            vals = np.array([q.e_kin + q.e_int for q in qs])
        else:
            vals = np.array([q.e_total for q in qs])
        return float(np.max(np.abs(vals - vals[0])) / abs(vals[0]))

    assert drift(r_plain, "ek_ei") < 1e-4
    assert drift(r_plain, "e_total") > 1e-3
    assert drift(r_work, "e_total") < 1e-4
    assert drift(r_work, "ek_ei") > 1e-3


def test_summary_is_mode_aware():
    g = RadialGrid(8.0, 128)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    r = run(st, g, P3, SolverConfig(t_end=0.02))
    s = r.summary(P3)
    assert s["stop_reason"] == "t_end"
    assert s["ie_drift_rel"] is not None
    assert s["ek_ei_drift_rel"] is None
    assert s["mass_drift_rel"] < 1e-10

    result, _ = ep_ball_run(cells=128)
    s2 = result.summary(P3)
    assert s2["ie_drift_rel"] is None
    assert s2["ek_ei_drift_rel"] is not None


def test_monitor_fields():
    # the running gradient maximum and entropy minimum over the samples;
    # an isentropic run carries no entropy field
    result, _ = ep_ball_run(cells=128)
    assert isinstance(result, RunResult)
    assert result.steps_taken > 0
    assert result.max_grad_u > 0.0
    assert math.isfinite(result.min_entropy)
    s = result.summary(P3)
    assert s["max_grad_u"] == result.max_grad_u
    assert s["min_entropy"] == result.min_entropy

    g = RadialGrid(8.0, 128)
    st = build_profile(GAUSS, g, P3, mode="IEP")
    iep = run(st, g, P3, SolverConfig(t_end=0.02))
    assert iep.max_grad_u > 0.0
    assert iep.min_entropy is None
    assert "min_entropy" not in iep.summary(P3)


def cloud_and_ball():
    g = RadialGrid(8.0, 256)
    cloud_params = ModelParams(n=3, gamma=1.5, delta=-1)
    cloud = build_profile(ProfileSpec(kind="gaussian", amplitude=0.25, width=1.0,
                                      velocity_kind="linear", velocity_alpha=2.0),
                          g, cloud_params, mode="IEP")
    ball = build_profile(ProfileSpec(kind="ball", amplitude=1.0, radius=1.0,
                                     s0=1.5 * math.log(0.5)), g, P3, mode="EP")
    return g, [(cloud, cloud_params), (ball, P3)]


def _minmod_reference(a, b):
    s = np.sign(a)
    return np.where(s * np.sign(b) > 0.0,
                    s * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _reconstruct_reference(v, scheme):
    # one row at a time, face arrays grown by appending the outflow face
    if scheme == "pc":
        left, right = v[:-1], v[1:]
    else:
        dv = np.zeros_like(v)
        dv[1:-1] = _minmod_reference(v[1:-1] - v[:-2], v[2:] - v[1:-1])
        left = v[:-1] + 0.5 * dv[:-1]
        right = v[1:] - 0.5 * dv[1:]
    return np.append(left, v[-1]), np.append(right, v[-1])


def test_limiter_and_reconstruction_match_reference():
    # bit for bit, including signed zeros, infinities and nan
    special = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 5e-324, -5e-324,
                        1e-44, -1e-44, np.inf, -np.inf, np.nan])
    a, b = np.meshgrid(special, special)
    assert _minmod(a, b).tobytes() == _minmod_reference(a, b).tobytes()

    rng = np.random.default_rng(3)
    for trial in range(20):
        v = rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-300, 300, (3, 40))
        v[:, ::7] = 0.0
        v[1, ::5] = -0.0
        v[trial % 3, trial] = np.nan
        for scheme in ("pc", "muscl"):
            faces = _reconstruct(v, scheme)
            for k in range(3):
                left, right = _reconstruct_reference(v[k], scheme)
                assert faces[0, k].tobytes() == left.tobytes()
                assert faces[1, k].tobytes() == right.tobytes()


def test_potential_reuse_is_exact():
    # stride 1 reuses the sampled potential at every step; stride 2 solves
    # afresh after each unsampled step, so equal samples show the reuse
    # changes no bit
    g, cases = cloud_and_ball()
    for state, params in cases:
        every = run(state, g, params, SolverConfig(t_end=0.1, output_stride=1))
        second = run(state, g, params, SolverConfig(t_end=0.1, output_stride=2))
        assert every.steps_taken == second.steps_taken
        by_time = {q.time: q for q in every.quantities}
        assert len(second.quantities) > 10
        for q in second.quantities:
            assert astuple(q) == astuple(by_time[q.time])
        for name in ("rho", "u_r", "p", "phi"):
            assert (getattr(every.final_state, name).tobytes()
                    == getattr(second.final_state, name).tobytes())


def test_two_potential_solves_per_step(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_potential(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_potential", counted)
    g, cases = cloud_and_ball()
    for state, params in cases:
        calls.clear()
        result = run(state, g, params, SolverConfig(t_end=0.1))
        assert result.steps_taken > 10
        assert len(calls) <= 2 * result.steps_taken + 2
