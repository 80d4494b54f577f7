"""One benchmark process: a set-up probe or one pass of a workload.

    python3 bench/worker.py --workload W --seed S --work DIR --setup
    python3 bench/worker.py --workload W --seed S --work DIR --out pass.json [--trace spans.json --pass-id K]

Run from the root of a checkout.  ``--setup`` imports ``epblowup.cli`` and
writes the workload's inputs, nothing else; its wall time, taken from outside,
is one ``setup_s`` sample.  Otherwise the process makes the workload's CLI
calls in order through ``epblowup.cli.dispatch``, one at a time (a closed
loop with one client), and writes each call's exit code, stdout and latency
plus the process's peak RSS to ``--out``.  Only with ``--trace`` does it import
the tracer, which wraps the layer functions for this pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def import_cli(root: Path):
    """Import ``epblowup.cli`` from ``root/src``; refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import epblowup.cli as cli

    origin = Path(cli.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"epblowup.cli came from {origin}, not from {src}")
    return cli


def run_pass(cli, argvs: list[list[str]]) -> tuple[list[dict], float]:
    """Make each call in turn; returns the call records and the pass wall time."""
    records = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        record = {"argv": argv, "rc": None, "error": None}
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record["rc"] = cli.dispatch(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            record["rc"] = exc.code
        except Exception as exc:  # a crash is a failed call, not a dead benchmark
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - t0
        record["stdout"] = out.getvalue()
        records.append(record)
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = import_cli(root)
    if args.setup:
        workloads.write_inputs(args.work, args.workload, args.seed)
        return 0

    argvs = workloads.calls(args.work, args.workload, args.seed)
    if args.trace is None:
        records, wall = run_pass(cli, argvs)
    else:
        import tracer

        with tracer.Tracer(pass_id=args.pass_id) as trace:
            records, wall = run_pass(cli, argvs)
        trace.dump(args.trace)
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": records,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
