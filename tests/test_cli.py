"""Command-line smoke tests through dispatch()."""

import json

import pytest

from epblowup.cli import dispatch

GAUSS_CFG = """
mode = IEP
kind = gaussian
amplitude = 1.0
width = 1.0
model.n = 3
model.gamma = 1.6666666666666667
model.delta = -1
grid.r_max = 8.0
grid.cells = 128
solver.t_end = 0.05
solver.cfl = 0.4
"""

REPULSIVE_CFG = GAUSS_CFG.replace("model.delta = -1", "model.delta = 1")


@pytest.fixture
def gauss_cfg(tmp_path):
    path = tmp_path / "gauss.cfg"
    path.write_text(GAUSS_CFG)
    return str(path)


def run_json(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_constants_prints_table(gauss_cfg, capsys, tmp_path):
    out = tmp_path / "table.json"
    code, payload, _ = run_json(
        capsys, ["constants", gauss_cfg, "--out", str(out)])
    assert code == 0
    for key in ("C0", "C3", "C10", "C11", "C_HLP", "f0", "g0", "notes"):
        assert key in payload
    assert payload["mode"] == "IEP"
    assert json.loads(out.read_text()) == payload


def test_constants_env_override(gauss_cfg, capsys, monkeypatch):
    monkeypatch.setenv("EP_CHLP", "3.0")
    _, payload, _ = run_json(capsys, ["constants", gauss_cfg])
    assert payload["C_HLP"] == 3.0
    monkeypatch.setenv("EP_CHLP", "not-a-number")
    assert dispatch(["constants", gauss_cfg]) == 2
    assert "EP_CHLP" in capsys.readouterr().err


def test_check_reports_verdicts(gauss_cfg, capsys):
    # a resting gaussian satisfies the decay-crossing certificate at t = 0
    code, payload, err = run_json(capsys, ["check", gauss_cfg])
    assert code == 0
    certs = {v["certificate"]: v for v in payload["verdicts"]}
    assert certs["2.1iii"]["satisfied"]
    assert certs["2.1iii"]["lifespan"] == 0.0
    assert not certs["2.1i"]["satisfied"]
    assert "2.1iii: satisfied (breakdown by t = 0)" in err
    assert "2.1i: not satisfied" in err


def test_check_exit_one_when_nothing_satisfied(tmp_path, capsys):
    # repulsive delta with n = 3 gates every certificate off
    path = tmp_path / "rep.cfg"
    path.write_text(REPULSIVE_CFG)
    code = dispatch(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "2.2: not applicable" in captured.err


def test_simulate_writes_csv(gauss_cfg, capsys, tmp_path):
    out = tmp_path / "series.csv"
    code, summary, _ = run_json(
        capsys, ["simulate", gauss_cfg, "--t-end", "0.02", "--cells", "96",
                 "--out", str(out)])
    assert code == 0
    assert summary["stop_reason"] == "t_end"
    assert summary["csv"] == str(out)
    assert summary["steps"] > 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "t"
    assert len(lines) > 3


def test_simulate_requires_t_end(tmp_path, capsys):
    path = tmp_path / "no_tend.cfg"
    path.write_text(GAUSS_CFG.replace("solver.t_end = 0.05\n", ""))
    assert dispatch(["simulate", str(path)]) == 2
    assert "t_end" in capsys.readouterr().err


def test_verify_single_suite(gauss_cfg, capsys):
    code, payload, _ = run_json(
        capsys, ["verify", gauss_cfg, "--suite", "chemin",
                 "--randomized", "5"])
    assert code == 0
    assert payload["all_margins_nonnegative"] is True
    suite = payload["suites"]["chemin"]
    assert suite["worst_rel_margin"] >= -1e-8
    assert "reports" not in suite  # trimmed without --full


def test_verify_bounds_suite(gauss_cfg, capsys):
    code, payload, _ = run_json(
        capsys, ["verify", gauss_cfg, "--suite", "bounds", "--t-end", "0.02"])
    assert code == 0
    bounds = payload["suites"]["bounds"]
    assert bounds["worst_rel_margin"] >= -1e-8
    assert bounds["count"] >= 2


NONFINITE_CFGS = {
    "entropy": GAUSS_CFG.replace("mode = IEP", "mode = EP")
    + "entropy.s0 = inf\n",
    "velocity": GAUSS_CFG + "velocity.kind = linear\nvelocity.alpha = nan\n",
    "density": GAUSS_CFG.replace("kind = gaussian", "kind = tabulated")
    + "table.r = 0, 1, 2, 8\ntable.rho = nan, nan, 0, 0\n",
}


@pytest.mark.parametrize("field", sorted(NONFINITE_CFGS))
def test_nonfinite_input_exits_two(field, tmp_path, capsys):
    path = tmp_path / "nonfinite.cfg"
    path.write_text(NONFINITE_CFGS[field])
    assert dispatch(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and field in err


ZERO_MASS_CFGS = {
    # every cell center lies outside the ball
    "ball": GAUSS_CFG.replace("kind = gaussian", "kind = ball")
    .replace("width = 1.0", "radius = 0.001"),
    # the gaussian underflows to zero at every cell center
    "gaussian": GAUSS_CFG.replace("width = 1.0", "width = 1e-4"),
}


@pytest.mark.parametrize("kind", sorted(ZERO_MASS_CFGS))
def test_zero_mass_input_exits_two(kind, tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text(ZERO_MASS_CFGS[kind])
    assert dispatch(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{kind} density vanishes identically" in captured.err


def test_usage_errors_exit_two(gauss_cfg, tmp_path, capsys):
    assert dispatch(["constants", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = IEP\nwhat = ever\n")
    assert dispatch(["constants", str(bad)]) == 2
    capsys.readouterr()


def test_deterministic_output(gauss_cfg, capsys):
    dispatch(["constants", gauss_cfg])
    first = capsys.readouterr().out
    dispatch(["constants", gauss_cfg])
    assert capsys.readouterr().out == first
