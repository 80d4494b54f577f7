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


@pytest.mark.parametrize("cells", [8, 1000, 1024])
def test_radial_fourier_matches_direct_sum(cells):
    # the angle-addition table against the sines taken one by one; 1000
    # cells is not a whole number of 32-cell runs, 8 is less than one, and
    # 300 frequencies leave a partial 256-frequency block
    g = RadialGrid(8.0, cells)
    r = g.centers
    stack = np.array([np.exp(-r**2),
                      (r < 1.0).astype(float),
                      np.exp(-((r - 2.0) / 0.4) ** 2)])
    k = np.sort(np.random.default_rng(5).uniform(1e-3, 16.0, 300))
    direct = np.array([[2.0 / kj * np.sum(r * f * np.sin(2.0 * math.pi * kj * r) * g.dr)
                        for kj in k] for f in stack])
    for got, want in ((radial_fourier(stack, g, k), direct),
                      (radial_fourier(stack[0], g, k), direct[0:1])):
        assert got.shape[-1] == 300
        for row, exact in zip(np.atleast_2d(got), want):
            assert np.max(np.abs(row - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("suite, expect", [
    ("hls", lambda corpus, grid: [verify_hls(rho, grid, P3, label=name)
                                  for name, rho in corpus]),
    ("chemin", lambda corpus, grid: [verify_chemin(rho, grid, P3, label=name)
                                     for name, rho in corpus]),
    ("split", lambda corpus, grid: [
        verify_lemma_split(rho, grid, P3, epsilon=eps, c_hlp=CHLP,
                           label=f"{name}-eps{eps}")
        for name, rho in corpus for eps in (0.5, 1.0, 2.0)]),
])
def test_suite_matches_single_density_checks(suite, expect):
    # the suite scores the corpus as one stack, the verify_* calls one
    # density at a time: same names, lhs, rhs and details, bit for bit
    corpus = build_corpus()[:22 + 5]
    out = run_suite(suite, P3, corpus, c_hlp=CHLP)
    reports = [rep.to_json_dict() for rep in expect(corpus, corpus_grid())]
    assert out["reports"] == reports


def test_hlp_suite_matches_single_density_checks():
    corpus = build_corpus()[:22 + 5]
    out = run_suite("hlp", P3, corpus, c_hlp=CHLP)
    grid = corpus_grid()
    expect = [verify_hlp(rho, grid, p, CHLP, label=f"{name}-p{p:.4g}")
              for name, rho in corpus
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
    c1 = build_corpus()
    c2 = build_corpus()
    assert len(c1) >= 100
    assert [name for name, _ in c1] == [name for name, _ in c2]
    for (_, a), (_, b) in zip(c1, c2):
        assert np.array_equal(a, b)
    for name, rho in c1:
        assert np.all(np.isfinite(rho)), name
        assert np.all(rho >= 0.0), name
        assert np.any(rho > 0.0), name


def test_run_suite_reports_worst_margin():
    corpus = build_corpus()[:22 + 10]
    out = run_suite("chemin", P3, corpus, c_hlp=CHLP)
    assert out["count"] >= 10
    assert out["worst_rel_margin"] >= -1e-8
    assert "worst_case" in out
    with pytest.raises(ValueError):
        run_suite("sobolev", P3, corpus)


def test_hlp_suite_needs_dimension_three():
    with pytest.raises(ValueError):
        run_suite("hlp", ModelParams(n=4, gamma=1.25, delta=1), build_corpus())
