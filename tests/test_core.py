"""Grid, the profile contract, profile construction and config parsing."""

import dataclasses
import math

import numpy as np
import pytest

from epblowup.core import (
    ConfigError,
    GridMismatchError,
    ModelParams,
    NonFiniteSampleError,
    ProfileError,
    ProfileSpec,
    RadialGrid,
    RadialState,
    build_profile,
    parse_config,
    parse_config_text,
    recover_entropy,
)
from epblowup.diagnostics import compute_quantities
from epblowup.oracles import (radial_fourier, verify_chemin, verify_hlp,
                              verify_hls, verify_lemma_split)
from epblowup.poisson import (enclosed_weight_force, laplacian_residual,
                              solve_potential)
from epblowup.quadrature import integrate_radial, interaction_integral

P3 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)


def test_grid_layout():
    g = RadialGrid(8.0, 64)
    assert g.dr == 0.125
    assert g.centers[0] == pytest.approx(0.0625)
    assert g.centers[-1] == pytest.approx(8.0 - 0.0625)
    assert len(g.centers) == 64


def test_shell_weights_tile_the_ball():
    g = RadialGrid(2.0, 512)
    w = g.shell_weights(3)
    # exact radial measure: cells tile [0, r_max], so the weights sum to
    # r_max**n / n and the full integral carries the n * omega_n factor
    assert np.sum(w) == pytest.approx(2.0**3 / 3.0, rel=1e-12)
    ball = 3.0 * (4.0 * math.pi / 3.0) * np.sum(w)
    assert ball == pytest.approx(4.0 * math.pi / 3.0 * 2.0**3, rel=1e-12)


def test_ball_profile_mass_and_support():
    g = RadialGrid(8.0, 1024)
    st = build_profile(ProfileSpec(kind="ball", amplitude=2.0, radius=1.5),
                       g, P3, mode="IEP")
    inside = g.centers < 1.5 - g.dr
    outside = g.centers > 1.5 + g.dr
    assert np.all(st.rho[inside] == 2.0)
    assert np.all(st.rho[outside] == 0.0)
    m = 4.0 * math.pi * np.sum(st.rho * g.shell_weights(3))
    assert m == pytest.approx(2.0 * 4.0 * math.pi / 3.0 * 1.5**3, rel=1e-5)


def test_gaussian_profile_and_linear_velocity():
    g = RadialGrid(8.0, 256)
    spec = ProfileSpec(kind="gaussian", amplitude=0.7, width=1.3,
                       velocity_kind="linear", velocity_alpha=-0.5)
    st = build_profile(spec, g, P3, mode="IEP")
    assert st.rho[0] == pytest.approx(0.7 * math.exp(-(g.centers[0] / 1.3) ** 2))
    assert np.allclose(st.u_r, -0.5 * g.centers)
    # isentropic closure
    assert np.allclose(st.p, st.rho ** P3.gamma)


def test_ep_profile_entropy_pressure():
    g = RadialGrid(8.0, 128)
    s0 = 1.5 * math.log(0.5)  # exp(s0 / c_nu) = 0.5 for gamma = 5/3
    st = build_profile(ProfileSpec(kind="ball", amplitude=1.0, radius=1.0, s0=s0),
                       g, P3, mode="EP")
    inside = g.centers < 1.0 - g.dr
    assert np.allclose(st.p[inside], 0.5)
    gas = st.rho > 0.0
    s = recover_entropy(st.rho, st.p, P3, gas)
    assert np.allclose(s[gas], s0)
    assert np.all(s[~gas] == 0.0)


def test_profile_rejects_bad_kind_and_velocity():
    with pytest.raises(ProfileError):
        ProfileSpec(kind="vortex")
    with pytest.raises(ProfileError):
        ProfileSpec(kind="ball", velocity_kind="spiral")


def test_tabulated_velocity_needs_table():
    g = RadialGrid(8.0, 64)
    spec = ProfileSpec(kind="gaussian", velocity_kind="tabulated")
    with pytest.raises(ProfileError):
        build_profile(spec, g, P3)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=2, gamma=1.4, delta=-1)
    with pytest.raises(ValueError):
        ModelParams(n=3, gamma=1.0, delta=-1)
    with pytest.raises(ValueError):
        ModelParams(n=3, gamma=1.4, delta=0)


CONFIG_TEXT = """
# comment and blank lines are fine

mode = IEP
kind = gaussian
amplitude = 0.25
width = 1.0
velocity.kind = linear
velocity.alpha = 2.0
model.n = 3
model.gamma = 1.5
model.delta = -1
grid.r_max = 8.0
grid.cells = 512
solver.t_end = 0.4
"""


def test_parse_config_text():
    setup = parse_config_text(CONFIG_TEXT)
    assert setup.mode == "IEP"
    assert setup.params.gamma == 1.5
    assert setup.grid.cells == 512
    assert setup.spec.velocity_alpha == 2.0
    assert setup.solver_options["t_end"] == 0.4
    st = setup.build_state()
    assert st.rho[0] == pytest.approx(0.25, rel=1e-3)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text(CONFIG_TEXT + "\nsolver.warp = 9\n")
    with pytest.raises(ConfigError):
        parse_config_text("mode = IEP\nkind = gaussian\nmodel.n = three\n")


def test_bundled_configs_parse(pytestconfig):
    root = pytestconfig.rootpath
    for name in ("gaussian_collapse.cfg", "ball_collapse.cfg",
                 "expanding_cloud.cfg"):
        setup = parse_config(root / "configs" / name)
        state = setup.build_state()
        assert len(state.rho) == setup.grid.cells, name


def test_geometry_is_cached_read_only_and_invisible():
    g = RadialGrid(8.0, 1024)
    for n in (3, 4, 5):
        w = g.shell_weights(n)
        closed = (g.edges[1:] ** n - g.edges[:-1] ** n) / n
        assert w.tobytes() == closed.tobytes()
        assert g.shell_weights(n) is w
        # the solver fills its own blocks in place; a stray write into a
        # shared metric factor must raise instead of corrupting the grid
        geo = g.geometry(n)
        for field in dataclasses.fields(geo):
            arr = getattr(geo, field.name)
            assert arr.flags.writeable is False, field.name
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert geo.center_areas.tobytes() == (g.centers ** (n - 1.0)).tobytes()
    other = RadialGrid(8.0, 1024)
    assert g == other and hash(g) == hash(other)
    assert repr(g) == repr(other) == "RadialGrid(r_max=8.0, cells=1024)"


def _snapshot(f, velocity=None):
    # f is the density and the pressure; velocity defaults to rest
    u = np.zeros(len(f)) if velocity is None else velocity
    return RadialState(rho=f, u_r=u, p=f, mode="IEP")


# every function that takes cell-centred samples, fed the profile f on g
PROFILE_CALLERS = {
    "integrate_radial": lambda f, g: integrate_radial(f, g, 3),
    "integrate_radial-midpoint": lambda f, g: integrate_radial(f, g, 3, "midpoint"),
    "integrate_radial-stack": lambda f, g: integrate_radial(np.stack((f, f)), g, 3),
    "interaction_integral": lambda f, g: interaction_integral(f, g, 3),
    "solve_potential": lambda f, g: solve_potential(f, g, 3),
    "enclosed_weight_force": lambda f, g: enclosed_weight_force(f, g, 3),
    "laplacian_residual-rho": lambda f, g: laplacian_residual(
        f, np.zeros(g.cells), g, 3),
    "laplacian_residual-phi": lambda f, g: laplacian_residual(
        np.ones(g.cells), f, g, 3),
    "radial_fourier": lambda f, g: radial_fourier(f, g, [0.5, 1.0]),
    "verify_hls": lambda f, g: verify_hls(f, g, P3),
    "verify_hlp": lambda f, g: verify_hlp(f, g, 1.5),
    "verify_chemin": lambda f, g: verify_chemin(f, g, P3),
    "verify_lemma_split": lambda f, g: verify_lemma_split(f, g, P3),
    "compute_quantities": lambda f, g: compute_quantities(_snapshot(f), g, P3),
    "compute_quantities-velocity": lambda f, g: compute_quantities(
        _snapshot(np.exp(-np.arange(len(f)) / 8.0), velocity=f), g, P3),
}


# the callers that take a stack of profiles as well as one
STACK_CALLERS = {"integrate_radial", "integrate_radial-midpoint",
                 "integrate_radial-stack", "radial_fourier"}


@pytest.mark.parametrize("name", PROFILE_CALLERS)
def test_profile_contract(name):
    # one rule everywhere: one sample per cell on the last axis, all finite,
    # and one axis where only one profile is taken; both errors are
    # ValueErrors, so the CLI exits 2 on either
    call = PROFILE_CALLERS[name]
    g = RadialGrid(4.0, 32)
    good = np.exp(-g.centers**2)
    call(good, g)
    with pytest.raises(GridMismatchError, match="32 cells"):
        call(good[:-1], g)
    for stack in (np.stack((good, good)), good[None, :]):
        if name in STACK_CALLERS:
            call(stack, g)
        else:
            with pytest.raises(GridMismatchError):
                call(stack, g)
    bad = good.copy()
    bad[5] = np.nan
    with pytest.raises(NonFiniteSampleError):
        call(bad, g)
    assert issubclass(GridMismatchError, ValueError)
    assert issubclass(NonFiniteSampleError, ValueError)
