"""Inequality oracles: Fourier transform exactness, margins, the corpus.

The Fourier-side constant is frozen at 3.0 after sweeping the corpus (the
worst measured ratio is 2.8133, at p = 1.5 on a broad mixture); p = 2
reproduces the norm identity exactly, which pins the transform convention.
"""

import math

import numpy as np
import pytest

from epblowup.core import ModelParams, RadialGrid
from epblowup.oracles import (
    build_corpus,
    corpus_grid,
    radial_fourier,
    run_suite,
    verify_chemin,
    verify_hlp,
    verify_hls,
    verify_lemma_split,
)

P3 = ModelParams(n=3, gamma=5.0 / 3.0, delta=-1)
CHLP = 3.0


def test_radial_fourier_gaussian_closed_form():
    g = RadialGrid(8.0, 2048)
    f = np.exp(-g.centers**2)
    k = np.linspace(2.0 / 64, 2.0, 64)
    fk = radial_fourier(f, g, k)
    exact = math.pi**1.5 * np.exp(-math.pi**2 * k**2)
    assert np.max(np.abs(fk - exact)) < 1e-8
    for bad in ([0.0, 1.0], [-1.0]):
        with pytest.raises(ValueError, match="k > 0"):
            radial_fourier(f, g, bad)


def test_radial_fourier_stack_matches_rows():
    g = RadialGrid(8.0, 512)
    stack = np.array([np.exp(-g.centers**2),
                      (g.centers < 1.0).astype(float),
                      np.exp(-((g.centers - 2.0) / 0.4) ** 2)])
    k = np.linspace(3.0 / 97, 3.0, 97)
    out = radial_fourier(stack, g, k)
    assert out.shape == (3, 97)
    for row, f in zip(out, stack):
        single = radial_fourier(f, g, k)
        assert single.shape == (97,)
        # relative to the row's scale: the transforms decay to roundoff and
        # the ball's has zeros, so entrywise relative error means nothing there
        assert np.max(np.abs(row - single)) <= 1e-13 * np.max(np.abs(single))


def test_hlp_suite_matches_single_density_checks():
    out = run_suite("hlp", P3, c_hlp=CHLP, randomized=5)
    grid = corpus_grid()
    expect = [verify_hlp(rho, grid, p, CHLP, label=f"{name}-p{p:.4g}")
              for name, rho in build_corpus(randomized=5)
              for p in (1.5, 5.0 / 3.0, 2.0)]
    assert out["count"] == len(expect)
    for got, rep in zip(out["reports"], expect):
        assert got["name"] == rep.name
        assert got["details"]["p"] == rep.details["p"]
        assert got["details"]["ratio"] == pytest.approx(rep.details["ratio"], rel=1e-12)


def test_plancherel_pins_the_convention():
    g = corpus_grid()
    rho = np.exp(-g.centers**2)
    rep = verify_hlp(rho, g, p=2.0, c_hlp=1.0)
    # at p = 2 the weighted Fourier bound collapses to a norm identity
    assert rep.details["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_hlp_margins_on_sample_densities():
    g = corpus_grid()
    ball = (g.centers < 1.0).astype(float)
    gauss = np.exp(-g.centers**2)
    for rho in (ball, gauss):
        for p in (1.5, 5.0 / 3.0, 2.0):
            rep = verify_hlp(rho, g, p=p, c_hlp=CHLP)
            assert rep.margin >= 0.0, (p, rep.details)
            assert rep.details["ratio"] <= CHLP


def test_hls_margin_positive():
    g = corpus_grid()
    rho = np.exp(-g.centers**2) + 0.3 * np.exp(-((g.centers - 2.0) ** 2))
    rep = verify_hls(rho, g, P3)
    assert rep.margin > 0.0
    assert rep.rhs > rep.lhs


def test_chemin_dilation_invariance():
    # dilate the grid together with the density so the discrete sums scale
    # exactly; on a fixed grid the two sides pick up different quadrature
    # error and the ratio only matches to ~1e-6
    base = corpus_grid()
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        g = RadialGrid(base.r_max * lam, base.cells)
        rho = np.exp(-((g.centers / lam) ** 2))
        rep = verify_chemin(rho, g, P3)
        ratios.append(rep.lhs / rep.rhs)
    assert abs(ratios[0] - ratios[1]) < 1e-8
    assert abs(ratios[2] - ratios[1]) < 1e-8


def test_split_inequality_across_epsilon():
    g = corpus_grid()
    rho = (g.centers < 1.0).astype(float)
    for eps in (0.5, 1.0, 2.0):
        rep = verify_lemma_split(rho, g, P3, epsilon=eps, c_hlp=CHLP)
        assert rep.margin >= 0.0, (eps, rep.details)


def test_corpus_is_deterministic_and_big_enough():
    c1 = build_corpus(randomized=100)
    c2 = build_corpus(randomized=100)
    assert len(c1) >= 100
    assert [name for name, _ in c1] == [name for name, _ in c2]
    for (_, a), (_, b) in zip(c1, c2):
        assert np.array_equal(a, b)
    for name, rho in c1:
        assert np.all(np.isfinite(rho)), name
        assert np.all(rho >= 0.0), name
        assert np.any(rho > 0.0), name


def test_run_suite_reports_worst_margin():
    out = run_suite("chemin", P3, c_hlp=CHLP, randomized=10)
    assert out["count"] >= 10
    assert out["worst_rel_margin"] >= -1e-8
    assert "worst_case" in out
    with pytest.raises(ValueError):
        run_suite("sobolev", P3)


def test_hlp_suite_needs_dimension_three():
    with pytest.raises(ValueError):
        run_suite("hlp", ModelParams(n=4, gamma=1.25, delta=1))
