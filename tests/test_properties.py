"""Property tests over generated densities, velocities and constants.

Runs are deterministic (derandomized, no example database), so they add no
state between sessions and write no files.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epblowup.core import ModelParams, RadialGrid, RadialState
from epblowup.criteria import NoCrossingError, lifespan_bound
from epblowup.diagnostics import compute_quantities
from epblowup.oracles import verify_chemin
from epblowup.poisson import solve_potential
from epblowup.quadrature import interaction_integral

SETTINGS = dict(derandomize=True, database=None, max_examples=40, deadline=None)

# profiles are piecewise linear through values at these radii, on [0, R_MAX]
R_MAX = 4.0
CELLS = 96
NODE_R = np.linspace(0.0, R_MAX, 9)

densities = st.lists(st.floats(0.0, 3.0), min_size=len(NODE_R),
                     max_size=len(NODE_R))
velocities = st.lists(st.floats(-5.0, 5.0), min_size=len(NODE_R),
                      max_size=len(NODE_R))
dimensions = st.sampled_from([3, 4, 5])
dilations = st.floats(0.25, 4.0)


def sample(values, grid: RadialGrid) -> np.ndarray:
    return np.interp(grid.centers / grid.r_max, NODE_R / R_MAX, values)


@settings(**SETTINGS)
@given(rho_nodes=densities, u_nodes=velocities, n=dimensions)
def test_momentum_weight_bound(rho_nodes, u_nodes, n):
    # Cauchy-Schwarz with the shell weights: F^2 <= 4 G E_k
    params = ModelParams(n=n, gamma=5.0 / 3.0, delta=-1)
    grid = RadialGrid(R_MAX, CELLS)
    rho = sample(rho_nodes, grid)
    state = RadialState(rho=rho, u_r=sample(u_nodes, grid),
                        p=rho**params.gamma, mode="IEP")
    q = compute_quantities(state, grid, params)
    assert q.momentum_weight**2 <= 4.0 * q.half_inertia * q.e_kin * (1.0 + 1e-12)


@settings(**SETTINGS)
@given(rho_nodes=densities, n=dimensions)
def test_potential_is_nonpositive_and_nondecreasing(rho_nodes, n):
    grid = RadialGrid(R_MAX, CELLS)
    phi = solve_potential(sample(rho_nodes, grid), grid, n)
    assert (phi <= 0.0).all()
    assert (np.diff(phi) >= -1e-12 * float(np.abs(phi).max())).all()


@settings(**SETTINGS)
@given(rho_nodes=densities, n=dimensions, lam=dilations)
def test_interaction_integral_dilation(rho_nodes, n, lam):
    # the same samples on a grid stretched by lam: rho(x / lam), which
    # scales the pair integral by lam**(n + 2)
    rho = sample(rho_nodes, RadialGrid(R_MAX, CELLS))
    base = interaction_integral(rho, RadialGrid(R_MAX, CELLS), n)
    stretched = interaction_integral(rho, RadialGrid(lam * R_MAX, CELLS), n)
    assert stretched == pytest.approx(lam ** (n + 2) * base, rel=1e-10)


@settings(**SETTINGS)
@given(rho_nodes=densities, n=dimensions, lam=dilations,
       gamma=st.floats(1.1, 3.0))
def test_chemin_ratio_dilation_invariant(rho_nodes, n, lam, gamma):
    assume(max(rho_nodes) > 1e-3)
    params = ModelParams(n=n, gamma=gamma, delta=-1)
    rho = sample(rho_nodes, RadialGrid(R_MAX, CELLS))
    base = verify_chemin(rho, RadialGrid(R_MAX, CELLS), params)
    stretched = verify_chemin(rho, RadialGrid(lam * R_MAX, CELLS), params)
    assert stretched.lhs / stretched.rhs == pytest.approx(
        base.lhs / base.rhs, rel=1e-10)


def crossing(coefficients) -> float:
    try:
        return lifespan_bound(**coefficients)[0]
    except NoCrossingError:
        return math.inf


@settings(**SETTINGS)
@given(c10=st.floats(0.05, 5.0), c11=st.floats(0.05, 5.0),
       grow=st.floats(1.0, 4.0), c=st.floats(0.1, 5.0),
       b_frac=st.floats(-2.0, 1.0), a_drop=st.floats(0.0, 3.0),
       exponent=st.floats(0.5, 3.0))
def test_lifespan_monotone_in_c10_and_c11(c10, c11, grow, c, b_frac, a_drop,
                                          exponent):
    # b <= 2c and a <= b/2 make parabola / (t+1)^2 non-increasing, so the
    # gap changes sign at most once and the crossing time is well defined
    b = 2.0 * c * b_frac
    co = {"C10": c10, "C11": c11, "a": 0.5 * b - a_drop, "b": b, "c": c,
          "exponent": exponent}
    t = crossing(co)
    assert crossing({**co, "C10": grow * c10}) <= t + 1e-8
    assert crossing({**co, "C11": grow * c11}) >= t - 1e-8
