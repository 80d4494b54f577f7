"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Every criterion records a line in ACCEPTANCE_LINES (printed by the conftest
terminal summary) before asserting, so a red run still shows the measured
numbers.  Tolerances are pinned here, not imported, so a library change
that moves a margin is caught rather than absorbed.  Solver runs are
module-scoped fixtures, so each criterion passes on its own as well.
"""

import math
import time

import numpy as np
import pytest

from epblowup.constants import build_table
from epblowup.core import ModelParams, ProfileSpec, RadialGrid, build_profile, parse_config
from epblowup.criteria import check_all, lifespan_bound
from epblowup.diagnostics import compute_quantities, finite_difference_rates
from epblowup.oracles import build_corpus, corpus_grid, run_suite, verify_chemin
from epblowup.poisson import laplacian_residual, solve_potential
from epblowup.quadrature import interaction_integral
from epblowup.solver import SolverConfig, run

P53 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)
GAUSS = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0)
CHLP = 3.0

ACCEPTANCE_LINES: list[str] = []


def record(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def prepared(spec, cells, params=P53, mode="IEP"):
    grid = RadialGrid(8.0, cells)
    state = build_profile(spec, grid, params, mode=mode)
    table = build_table(state, grid, params, c_hlp=CHLP)
    return state, grid, table


@pytest.fixture(scope="module")
def run_c1():
    state, grid, table = prepared(GAUSS, 512)
    t0 = time.perf_counter()
    result = run(state, grid, P53, SolverConfig(t_end=0.2))
    elapsed = time.perf_counter() - t0
    return result, table, elapsed


@pytest.fixture(scope="module")
def run_c3_pair():
    state, grid, table_iep = prepared(GAUSS, 1024)
    r_iep = run(state, grid, P53, SolverConfig(t_end=0.2))

    ep_spec = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0, s0=0.3)
    state, grid, table_ep = prepared(ep_spec, 1024, mode="EP")
    r_ep = run(state, grid, P53, SolverConfig(t_end=0.2))
    return (r_iep, table_iep), (r_ep, table_ep)


@pytest.fixture(scope="module")
def run_expanding(pytestconfig):
    setup = parse_config(pytestconfig.rootpath / "configs" /
                         "expanding_cloud.cfg")
    state = setup.build_state()
    table = build_table(state, setup.grid, setup.params, c_hlp=CHLP)
    result = run(state, setup.grid, setup.params,
                 SolverConfig(**dict(setup.solver_options)))
    return result, table, setup.params


@pytest.fixture(scope="module")
def run_fixed_dt_pair():
    def fixed(cells, fdt):
        grid = RadialGrid(8.0, cells)
        state = build_profile(GAUSS, grid, P53, mode="IEP")
        return run(state, grid, P53, SolverConfig(t_end=0.2, fixed_dt=fdt))

    return fixed(512, 0.004), fixed(1024, 0.002)


@pytest.fixture(scope="module")
def all_runs(run_c1, run_c3_pair, run_expanding, run_fixed_dt_pair):
    """Every solver run of this module as (label, result, table, params)."""
    (r_iep, table_iep), (r_ep, table_ep) = run_c3_pair
    coarse, fine = run_fixed_dt_pair
    return [
        ("gaussian-iep-512", run_c1[0], run_c1[1], P53),
        ("gaussian-iep-1024", r_iep, table_iep, P53),
        ("gaussian-ep-1024", r_ep, table_ep, P53),
        ("gaussian-iep-512-fixed-dt", coarse, run_c1[1], P53),
        ("gaussian-iep-1024-fixed-dt", fine, table_iep, P53),
        ("expanding-cloud", *run_expanding),
    ]


def test_criterion_01_mass_conservation(run_c1):
    result, _, elapsed = run_c1
    m = np.array([q.mass for q in result.quantities])
    drift = float(np.max(np.abs(m - m[0])) / m[0])
    ok = drift <= 1e-6 and elapsed <= 10.0 and result.stop_reason == "t_end"
    record(1, ok, f"mass drift {drift:.3e} <= 1e-6 over {len(m)} samples, "
                  f"{elapsed:.2f}s <= 10s")


def test_criterion_02_virial_rate_convergence(run_fixed_dt_pair):
    def residuals(result):
        rates = finite_difference_rates(
            result.quantities, fields=("half_inertia", "momentum_weight"))
        f_mid = np.array(
            [q.momentum_weight for q in result.quantities])[1:-1]
        h_mid = np.array([q.h_delta for q in result.quantities])[1:-1]
        res_g = np.max(np.abs(rates["half_inertia"] - f_mid)) \
            / np.max(np.abs(f_mid))
        res_f = np.max(np.abs(rates["momentum_weight"] - h_mid)) \
            / np.max(np.abs(h_mid))
        return float(res_g), float(res_f)

    coarse, fine = run_fixed_dt_pair
    cg, cf = residuals(coarse)
    fg, ff = residuals(fine)
    ratio_g, ratio_f = cg / fg, cf / ff
    ok = ratio_g >= 3.0 and ratio_f >= 3.0 and fg <= 1e-2 and ff <= 1e-2
    record(2, ok, f"residual reduction x{ratio_g:.2f} (dG/dt=F) and "
                  f"x{ratio_f:.2f} (dF/dt=IH) >= 3; fine-grid residuals "
                  f"{fg:.2e}/{ff:.2e} <= 1e-2")


def test_criterion_03_energy_conservation(run_c3_pair):
    (r_iep, _), (r_ep, _) = run_c3_pair
    ie = np.array([q.e_total for q in r_iep.quantities])
    drift_ie = float(np.max(np.abs(ie - ie[0])) / abs(ie[0]))
    eki = np.array([q.e_kin + q.e_int for q in r_ep.quantities])
    drift_ep = float(np.max(np.abs(eki - eki[0])) / abs(eki[0]))
    ok = drift_ie <= 1e-4 and drift_ep <= 1e-4
    record(3, ok, f"isentropic IE drift {drift_ie:.3e}, full-system "
                  f"Ek+Ei drift {drift_ep:.3e}, both <= 1e-4 at 1024 cells")


def test_criterion_04_momentum_weight_inequality(all_runs):
    # equality case first: u_r = r turns the bound into an identity
    grid = RadialGrid(8.0, 512)
    spec = ProfileSpec(kind="gaussian", amplitude=1.0, width=1.0,
                       velocity_kind="linear", velocity_alpha=1.0)
    state = build_profile(spec, grid, P53, mode="IEP")
    q = compute_quantities(state, grid, P53)
    prod = 4.0 * q.half_inertia * q.e_kin
    eq_rel = abs(q.momentum_weight**2 - prod) / prod

    sets = [q] + [qs for _, result, _, _ in all_runs
                  for qs in result.quantities]
    worst = 0.0
    for qs in sets:
        scale = 4.0 * qs.half_inertia * qs.e_kin
        gap = qs.momentum_weight**2 - scale
        if gap > worst * max(scale, 1e-300):
            worst = gap / max(scale, 1e-300)
    ok = len(sets) > 100 and worst <= 1e-8 and eq_rel <= 1e-10
    record(4, ok, f"F^2 <= 4 G E_k on all {len(sets)} quantity sets of "
                  f"{len(all_runs)} runs and the equality case (worst rel "
                  f"excess {worst:.2e} <= 1e-8); equality case off by "
                  f"{eq_rel:.2e} <= 1e-10")


def test_criterion_05_inertia_parabola_sandwich(run_c1):
    result, table, _ = run_c1
    ts = result.times
    g_vals = np.array([q.half_inertia for q in result.quantities])
    f0, g0 = result.quantities[0].momentum_weight, g_vals[0]
    upper = table.c3 * ts**2 + f0 * ts + g0 - g_vals
    lower = g_vals - (table.c4 * ts**2 + f0 * ts + g0)
    worst = min(float(upper.min()), float(lower.min()))
    ok = worst >= -1e-6 * g0
    record(5, ok, f"G(t) between the C4/C3 parabolas; worst margin "
                  f"{worst:.3e} >= -1e-6*G0 ({-1e-6 * g0:.1e})")


def _internal_energy_floor(result, table, params) -> float:
    """Worst relative margin of I(t) >= C/G(t)^{E/2} over the samples.

    Isentropic runs use C10; entropy-carrying runs use C9 (the same bound
    with the minimum-entropy pressure factor).
    """
    exponent = params.n * (params.gamma - 1.0)
    coef = table.c9 if result.final_state.mode == "EP" else table.c10
    scale = result.quantities[0].e_int
    return min((q.e_int - coef / q.half_inertia ** (exponent / 2.0))
               / scale for q in result.quantities)


def test_criterion_06_internal_energy_sandwich(all_runs, run_expanding):
    floors = {label: _internal_energy_floor(result, table, params)
              for label, result, table, params in all_runs}
    worst_label, worst_floor = min(floors.items(), key=lambda kv: kv[1])

    result, table, params = run_expanding
    exponent = params.n * (params.gamma - 1.0)
    scale = result.quantities[0].e_int
    upper = min((table.c11 / (q.time + 1.0) ** exponent - q.e_int)
                / scale for q in result.quantities)
    ok = worst_floor >= -1e-8 and upper >= -1e-8 \
        and result.stop_reason == "t_end"
    record(6, ok, f"decay floor holds on {len(floors)} runs (worst rel "
                  f"margin {worst_floor:+.3f} on {worst_label}); expanding-"
                  f"cloud ceiling margin {upper:+.3f}")


def test_criterion_07_ball_certificate():
    ball = ProfileSpec(kind="ball", amplitude=1.0, radius=1.0,
                       s0=1.5 * math.log(0.5))
    _, _, table = prepared(ball, 2048, mode="EP")
    exact = 2.0 * math.pi - 16.0 * math.pi**2 / 15.0
    err = abs(table.c7 - exact)
    verdicts = {v.certificate: v for v in check_all(table)}
    ok = err <= 1e-3 and verdicts["2.3i"].satisfied
    record(7, ok, f"uniform-ball C7 = {table.c7:.6f} vs 2pi - 16pi^2/15 "
                  f"(|err| {err:.2e} <= 1e-3); certificate 2.3i satisfied")


def _gap(t: float, co: dict) -> float:
    poly = (co["a"] * t + co["b"]) * t + co["c"]
    if poly <= 0.0:
        return -math.inf
    return co["C11"] / (t + 1.0) ** co["exponent"] \
        - co["C10"] / poly ** (co["exponent"] / 2.0)


def test_criterion_08_lifespan_root_finder(run_c1):
    _, table, _ = run_c1
    checks = []

    # the reference synthetic set crosses at once
    t0, info0 = lifespan_bound(C10=2.0, C11=1.0, a=1.0, b=0.0, c=1.0,
                               exponent=2.0)
    checks.append(t0 == 0.0 and info0["crossing"] == "immediate")

    # interior crossing against its closed form, with sign probes
    co = {"C10": 0.5, "C11": 1.0, "a": 0.2, "b": 0.0, "c": 1.0,
          "exponent": 2.0}
    t1, _ = lifespan_bound(**co)
    exact = (-1.0 + math.sqrt(1.6)) / 0.6
    checks.append(abs(t1 - exact) <= 1e-7)
    checks.append(_gap(t1 + 1e-6, co) < 0.0)
    checks.append(_gap(max(0.0, t1 - 1e-6), co) >= 0.0)

    # the satisfied configuration from the solver-backed table
    verdict = {v.certificate: v for v in check_all(table)}["2.1iii"]
    real_co = verdict.details["coefficients"]
    checks.append(verdict.satisfied and verdict.lifespan == 0.0)
    checks.append(_gap(verdict.lifespan + 1e-6, real_co) < 0.0)

    # monotonicity: later crossing for smaller C10 / larger C11
    t_c10 = [lifespan_bound(**{**co, "C10": v})[0]
             for v in (0.3, 0.45, 0.6, 0.8, 0.95)]
    t_c11 = [lifespan_bound(**{**co, "C11": v})[0]
             for v in (0.7, 0.85, 1.0, 1.15, 1.3)]
    checks.append(all(x > y for x, y in zip(t_c10, t_c10[1:])))
    checks.append(all(x < y for x, y in zip(t_c11, t_c11[1:])))

    ok = all(checks)
    record(8, ok, f"t*=0 on the reference set; interior root "
                  f"{t1:.9f} matches closed form to {abs(t1 - exact):.1e}; "
                  f"sign probes and 5-point C10/C11 monotonicity hold "
                  f"({sum(checks)}/{len(checks)} checks)")


def test_criterion_09_inequality_oracles():
    t0 = time.perf_counter()
    worst = {}
    corpus = build_corpus()
    for suite in ("hls", "hlp", "chemin", "split"):
        out = run_suite(suite, P53, corpus, c_hlp=CHLP)
        assert out["count"] >= 100
        worst[suite] = out["worst_rel_margin"]

    base = corpus_grid()
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        grid = RadialGrid(base.r_max * lam, base.cells)
        rho = np.exp(-((grid.centers / lam) ** 2))
        rep = verify_chemin(rho, grid, P53)
        ratios.append(rep.lhs / rep.rhs)
    spread = max(ratios) - min(ratios)
    elapsed = time.perf_counter() - t0

    ok = all(v >= -1e-8 for v in worst.values()) and spread <= 1e-8 \
        and elapsed <= 60.0
    summary = " ".join(f"{k}={v:+.2e}" for k, v in worst.items())
    record(9, ok, f"worst rel margins {summary} all >= -1e-8; dilation "
                  f"ratio spread {spread:.1e} <= 1e-8; {elapsed:.1f}s <= 60s")


def test_criterion_10_cross_module_consistency():
    grid = corpus_grid()
    shell = grid.shell_weights(3)
    worst, worst_name = 0.0, ""
    for name, rho in build_corpus():
        phi = solve_potential(rho, grid, 3)
        direct = interaction_integral(rho, grid, 3)
        via_phi = -4.0 * math.pi * float(np.sum(rho * phi * shell))
        rel = abs(direct - via_phi) / abs(direct)
        if rel > worst:
            worst, worst_name = rel, name

    errs = []
    for cells in (128, 256, 512, 1024):
        g = RadialGrid(8.0, cells)
        rho = np.exp(-g.centers**2)
        errs.append(laplacian_residual(rho, solve_potential(rho, g, 3), g, 3))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]

    ok = worst <= 1e-4 and all(3.2 < r < 4.8 for r in ratios)
    record(10, ok, f"interaction vs potential agree to {worst:.2e} <= 1e-4 "
                   f"(worst: {worst_name}); field-equation residual ratios "
                   f"{'/'.join(f'{r:.2f}' for r in ratios)} ~ second order")
