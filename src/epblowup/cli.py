"""Command-line interface: constants, check, simulate, verify.

Exit codes: 0 success (for ``check``: at least one certificate satisfied),
1 negative outcome (no certificate satisfied / a verification margin went
negative), 2 usage or input errors.  All structured output is JSON on
stdout; diagnostics series go to CSV files.  Identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .constants import build_table
from .core import ConfigError, RadialGrid, RunSetup, parse_config
from .criteria import check_all
from .diagnostics import write_series_csv
from .oracles import build_corpus, run_suite, verify_energy_bounds
from .solver import SolverConfig, run

__all__ = ["main", "dispatch"]

def _prepared_table(setup: RunSetup):
    state = setup.build_state()
    return state, build_table(state, setup.grid, setup.params, c_hlp=setup.chlp)


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_constants(args) -> int:
    setup = parse_config(args.config)
    _, table = _prepared_table(setup)
    _print_json(table.to_json_dict())
    return 0


def _cmd_check(args) -> int:
    setup = parse_config(args.config)
    _, table = _prepared_table(setup)
    verdicts = check_all(table)
    payload = {
        "config": str(args.config),
        "mode": table.mode,
        "delta": table.delta,
        "verdicts": [dataclasses.asdict(v) for v in verdicts],
    }
    _print_json(payload)
    for v in verdicts:
        status = "satisfied" if v.satisfied else (
            "not satisfied" if v.applicable else "not applicable")
        line = f"{v.certificate}: {status}"
        if v.lifespan is not None:
            line += f" (breakdown by t = {v.lifespan:.6g})"
        elif "lifespan_note" in v.details:
            line += " (no crossing)"
        sys.stderr.write(line + "\n")
    return 0 if any(v.satisfied for v in verdicts) else 1


def _solver_config(setup: RunSetup, args) -> SolverConfig:
    opts = dict(setup.solver_options)
    if args.t_end is not None:
        opts["t_end"] = args.t_end
    if "t_end" not in opts:
        raise ConfigError("no t_end: set solver.t_end in the config "
                          "or pass --t-end")
    return SolverConfig(**opts)


def _cmd_simulate(args) -> int:
    setup = parse_config(args.config)
    if args.cells is not None:
        setup = dataclasses.replace(
            setup, grid=RadialGrid(setup.grid.r_max, args.cells))
    cfg = _solver_config(setup, args)
    state = setup.build_state()
    result = run(state, setup.grid, setup.params, cfg)
    if args.out:
        write_series_csv(args.out, result.quantities)
    summary = result.summary()
    summary["csv"] = str(args.out) if args.out else None
    _print_json(summary)
    return 0


def _cmd_verify(args) -> int:
    setup = parse_config(args.config)
    suites = ["hls", "hlp", "chemin", "split", "bounds"] \
        if args.suite == "all" else [args.suite]
    # one corpus for every oracle suite; 'bounds' alone needs none
    corpus = build_corpus() if args.suite != "bounds" else None
    payload = {"suites": {}}
    ok = True
    for suite in suites:
        if suite == "bounds":
            state, table = _prepared_table(setup)
            cfg = _solver_config(setup, args)
            result = run(state, setup.grid, setup.params, cfg)
            reports = verify_energy_bounds(result.quantities, table,
                                           setup.params)
            worst = min(rep.rel_margin for rep in reports)
            payload["suites"]["bounds"] = {
                "count": len(reports),
                "worst_rel_margin": worst,
                "reports": [rep.to_json_dict() for rep in reports],
                "stop_reason": result.stop_reason,
            }
            ok = ok and worst >= -1e-8
        else:
            report = run_suite(suite, setup.params, corpus, c_hlp=setup.chlp)
            report.pop("reports")
            payload["suites"][suite] = report
            ok = ok and report["worst_rel_margin"] >= -1e-8
    payload["all_margins_nonnegative"] = ok
    _print_json(payload)
    return 0 if ok else 1


def dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="epblowup",
        description="Blow-up certificates and virial diagnostics for "
                    "radial self-forced gas flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print the certificate constants table")
    p_const.add_argument("config")
    p_const.set_defaults(fn=_cmd_constants)

    p_check = sub.add_parser("check", help="evaluate blow-up certificates")
    p_check.add_argument("config")
    p_check.set_defaults(fn=_cmd_check)

    p_sim = sub.add_parser("simulate", help="run the radial solver")
    p_sim.add_argument("config")
    p_sim.add_argument("--t-end", type=float, dest="t_end")
    p_sim.add_argument("--cells", type=int)
    p_sim.add_argument("--out", help="CSV path for the diagnostics series")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_ver = sub.add_parser("verify", help="run inequality verification suites")
    p_ver.add_argument("config")
    p_ver.add_argument("--suite", default="all",
                       choices=["hls", "hlp", "chemin", "split", "bounds", "all"])
    p_ver.add_argument("--t-end", type=float, dest="t_end",
                       help="horizon for the bounds suite")
    p_ver.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
