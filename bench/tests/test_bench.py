"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import import_cli, run_pass  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return import_cli(ROOT)


def _tree(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): p.read_text() for p in sorted(path.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    assert workloads.sweep_pool() == workloads.sweep_pool()
    assert workloads.sweep_indices(7) == workloads.sweep_indices(7)
    assert workloads.sweep_indices(7) != workloads.sweep_indices(8)
    for workload in workloads.WORKLOADS:
        first, second = tmp_path / "a", tmp_path / "b"
        workloads.write_inputs(first, workload, 7)
        workloads.write_inputs(second, workload, 7)
        assert _tree(first) == _tree(second)
        for argv in workloads.calls(first, workload, 7):
            assert Path(argv[1]).is_file()


def _epblowup_bindings() -> dict:
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "epblowup" or name.startswith("epblowup.")}
    out = {(name, attr): value for name, mod in modules.items()
           for attr, value in vars(mod).items()}
    grid = sys.modules["epblowup.core"].RadialGrid
    out[("RadialGrid", "shell_weights")] = vars(grid)["shell_weights"]
    return out


def test_tracer_wraps_every_binding_and_restores_them(cli):
    import epblowup.diagnostics as diagnostics
    import epblowup.quadrature as quadrature

    before = _epblowup_bindings()
    original = quadrature.integrate_radial
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            # the name is wrapped where it is defined and where it is imported
            assert quadrature.integrate_radial is not original
            assert diagnostics.integrate_radial is quadrature.integrate_radial
            assert cli.parse_config.__wrapped__ is sys.modules["epblowup.core"].parse_config.__wrapped__
            raise RuntimeError("leave the block early")
    after = _epblowup_bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_self_time_subtracts_child_spans():
    trace = {"spans": [["cli.dispatch", 0.0, 10.0, -1, 0],
                       ["core.parse_config", 2.0, 5.0, 0, 0],
                       ["solver.step", 5.0, 9.0, 0, 0],
                       ["poisson.solve_potential", 6.0, 7.0, 2, 0]],
             "counts": {"cli.dispatch": 1, "core.parse_config": 1, "solver.step": 1,
                        "poisson.solve_potential": 1},
             "kernel_bytes": 0, "matrix_bytes": 0, "cells_stepped": 64,
             "dts": [0.5], "hls_distinct": 0}
    metrics = tracer.layer_metrics(trace)
    assert metrics["cli.dispatch.self_s"] == 3.0
    assert metrics["solver.step.self_s"] == 3.0
    assert metrics["poisson.solve_potential.per_step"] == 1.0


def _small_calls(work: Path) -> list[list[str]]:
    workloads.write_inputs(work, "certificate-sweep", 3)
    workloads.write_inputs(work, "smooth-evolve", 3)
    workloads.write_inputs(work, "oracle-corpus", 3)
    smooth = workloads.calls(work, "smooth-evolve", 3)[0]
    oracle = workloads.calls(work, "oracle-corpus", 3)[0]
    return (workloads.calls(work, "certificate-sweep", 3)[:4]
            + [smooth + ["--cells", "128", "--t-end", "0.02"],
               [oracle[0], oracle[1], "--suite", "chemin"]])


def test_traced_and_untraced_passes_print_identical_stdout(cli, tmp_path):
    argvs = _small_calls(tmp_path)
    plain, _ = run_pass(cli, argvs)
    with tracer.Tracer() as trace:
        traced, _ = run_pass(cli, argvs)
    assert trace.counts["cli.dispatch"] == len(argvs)
    assert trace.counts["solver.step"] > 0
    assert [(c["rc"], c["stdout"]) for c in plain] == [(c["rc"], c["stdout"]) for c in traced]
    assert all(c["error"] is None for c in plain)


def _corrupt_first_flag(call: dict) -> dict:
    payload = json.loads(call["stdout"])
    verdict = payload["verdicts"][0]
    verdict["satisfied"] = not verdict["satisfied"]
    return dict(call, stdout=json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_corrupted_output_is_counted_as_failed(cli, tmp_path):
    workloads.write_inputs(tmp_path, "certificate-sweep", 5)
    good, _ = run_pass(cli, workloads.calls(tmp_path, "certificate-sweep", 5)[:3])
    assert run.judge("certificate-sweep", [{"calls": good}, {"calls": good}]) == (0, [])

    flipped = [_corrupt_first_flag(good[0])] + good[1:]
    failed, messages = run.judge("certificate-sweep", [{"calls": good}, {"calls": flipped}])
    assert failed == 1
    assert "verdict flags" in messages[0] and "differs" in messages[0]

    crashed = [dict(good[0], rc=None, error="ValueError: boom")] + good[1:]
    assert run.judge("certificate-sweep", [{"calls": crashed}])[0] == 1

    bad_smooth = {"argv": ["simulate", "x.cfg"], "rc": 0, "error": None,
                  "stdout": json.dumps({"stop_reason": "gradient-blowup",
                                        "mass_drift_rel": 0.0, "ie_drift_rel": 0.0})}
    assert run.judge("smooth-evolve", [{"calls": [bad_smooth]}])[0] == 1
