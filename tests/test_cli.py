"""Command-line smoke tests through dispatch()."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import epblowup
from epblowup import cli
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


def test_constants_prints_table(gauss_cfg, capsys):
    code, payload, _ = run_json(capsys, ["constants", gauss_cfg])
    assert code == 0
    for key in ("C0", "C3", "C10", "C11", "C_HLP", "f0", "g0", "notes"):
        assert key in payload
    assert payload["mode"] == "IEP"


def test_constants_ignore_ep_chlp(tmp_path, capsys, monkeypatch):
    # the config is the only source of chlp: EP_CHLP, once an override,
    # neither changes C_HLP nor fails the run when it is not a number
    path = tmp_path / "chlp.cfg"
    path.write_text(GAUSS_CFG + "chlp = 3.0\n")
    _, first, _ = run_json(capsys, ["constants", str(path)])
    assert first["C_HLP"] == 3.0
    monkeypatch.setenv("EP_CHLP", "5.0")
    code, payload, _ = run_json(capsys, ["constants", str(path)])
    assert code == 0
    assert payload == first
    monkeypatch.setenv("EP_CHLP", "not-a-number")
    code, payload, err = run_json(capsys, ["constants", str(path)])
    assert code == 0
    assert payload == first
    assert "EP_CHLP" not in err


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


NO_CROSSING_CFG = """
mode = IEP
kind = gaussian
amplitude = 3.0
width = 1.0
model.n = 4
model.gamma = 1.5
model.delta = 1
grid.r_max = 8.0
grid.cells = 512
"""


def test_check_decay_without_crossing_exits_one(tmp_path, capsys):
    # C10 beats the 2.2 threshold 2**(E/2) C11, but the exact solve finds no
    # crossing: a decay certificate without a time is not satisfied
    path = tmp_path / "nocross.cfg"
    path.write_text(NO_CROSSING_CFG)
    code, payload, err = run_json(capsys, ["check", str(path)])
    assert code == 1
    (v,) = payload["verdicts"]
    assert v["certificate"] == "2.2" and v["applicable"]
    assert v["details"]["C10"] > v["details"]["threshold"]
    assert not v["satisfied"] and v["lifespan"] is None
    assert "lifespan_note" in v["details"]
    assert "2.2: not satisfied (no crossing)" in err


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
        capsys, ["verify", gauss_cfg, "--suite", "chemin"])
    assert code == 0
    assert payload["all_margins_nonnegative"] is True
    suite = payload["suites"]["chemin"]
    assert suite["worst_rel_margin"] >= -1e-8
    assert "reports" not in suite  # per-density reports stay in run_suite


def test_verify_bounds_suite(gauss_cfg, capsys):
    code, payload, _ = run_json(
        capsys, ["verify", gauss_cfg, "--suite", "bounds", "--t-end", "0.02"])
    assert code == 0
    bounds = payload["suites"]["bounds"]
    assert bounds["worst_rel_margin"] >= -1e-8
    assert bounds["count"] >= 2


def test_verify_bounds_builds_no_corpus(gauss_cfg, capsys, monkeypatch):
    # the corpus is built only when an oracle suite runs
    def refuse():
        raise AssertionError("the bounds suite built a corpus")
    monkeypatch.setattr(cli, "build_corpus", refuse)
    code, payload, _ = run_json(
        capsys, ["verify", gauss_cfg, "--suite", "bounds", "--t-end", "0.02"])
    assert code == 0
    assert list(payload["suites"]) == ["bounds"]


WIDE_CFG = GAUSS_CFG.replace("width = 1.0", "width = 2.5")


@pytest.mark.parametrize("argv", [["check"], ["constants"],
                                  ["verify", "--suite", "bounds",
                                   "--t-end", "0.02"]])
def test_config_tail_tol_governs_every_command(argv, tmp_path, capsys):
    # a width-2.5 gaussian leaves a tail ratio near 1e-4 at r_max = 8,
    # above the fixed tail tolerance of 1e-6
    path = tmp_path / "wide.cfg"
    path.write_text(WIDE_CFG)
    assert dispatch(argv[:1] + [str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tail ratio" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["constants", "{cfg}", "--out", "table.json"],
    ["simulate", "{cfg}", "--cfl", "0.2"],
    ["verify", "{cfg}", "--cfl", "0.2"],
    ["verify", "{cfg}", "--full"],
    ["verify", "{cfg}", "--randomized", "-5"],
])
def test_removed_flags_exit_two(argv, gauss_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch([arg.format(cfg=gauss_cfg) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + argv[2] in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "{cfg}/x.cfg"],
    ["constants", "{cfg}/x.cfg"],
    ["simulate", "{cfg}", "--out", "{cfg}/x.csv"],
])
def test_path_through_a_file_exits_two(argv, gauss_cfg, capsys):
    # a path whose parent is a regular file raises NotADirectoryError
    code = dispatch([arg.format(cfg=gauss_cfg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def with_line(line):
    # GAUSS_CFG with `line` in place of any line that sets the same key
    key = line.split("=")[0].strip()
    kept = [old for old in GAUSS_CFG.splitlines()
            if old.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


BAD_INPUTS = [
    ("check", "chlp = -3.0", []),
    ("check", "chlp = nan", []),
    ("check", "model.gamma = inf", []),
    # not config keys: entropy is in units of the gas constant, and the
    # tail tolerance is fixed
    ("check", "model.R = 1.0", []),
    ("check", "tail_tol = 1e-3", []),
    ("check", "grid.r_max = inf", []),
    ("simulate", "solver.t_end = inf", []),
    ("simulate", "solver.t_end = 0.05", ["--t-end", "inf"]),
    # not a config key: the density floor is fixed
    ("simulate", "solver.density_floor = 1e-14", []),
]


@pytest.mark.parametrize("command, line, extra", BAD_INPUTS)
def test_bad_value_exits_two(command, line, extra, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(with_line(line))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch([command, str(path)] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert [str(w.message) for w in caught] == []


def test_deterministic_output(gauss_cfg, capsys):
    dispatch(["constants", gauss_cfg])
    first = capsys.readouterr().out
    dispatch(["constants", gauss_cfg])
    assert capsys.readouterr().out == first


def test_module_entry_point_matches_dispatch(pytestconfig, capsys):
    # `python -m epblowup` is the installed `epblowup` script
    config = str(pytestconfig.rootpath / "configs" / "gaussian_collapse.cfg")
    package_root = str(Path(epblowup.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "epblowup", "constants", config],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert dispatch(["constants", config]) == 0
    assert proc.stdout == capsys.readouterr().out
