"""Benchmark of the epblowup CLI: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certificate-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10     # every workload
    python3 -m pytest -q bench/tests                               # the benchmark's own tests

Run it from the root of a checkout; it builds nothing and imports the package
from ``src/``.  Everything it writes goes under ``.bench_out/``: the generated
inputs, one JSON file per pass, the spans of traced passes and one results file
per run (metrics, failures, readouts and a record of the machine).

Load model: a closed loop with one client.  Each pass is a fresh process that
makes the workload's CLI calls through ``epblowup.cli.dispatch`` one at a time,
with BLAS threads pinned to the usable CPU count.

``--trace 0`` first starts ``SETUP_PROBES`` fresh interpreters that import
``epblowup.cli`` and write the inputs (``setup_s`` is their median wall time),
then runs passes until about ``--seconds`` of pass time have been measured.  It
prints the end-to-end metrics and never imports the tracer.

``--trace 1`` alternates untraced and traced passes until ``--seconds`` have
been measured and prints the per-layer metrics (medians over traced passes)
and ``trace.overhead_frac``, the traced over the untraced median pass time,
minus one.

``configs_per_s`` counts CLI calls (each takes one config) per second of pass
time.  ``call_p50_ms`` and ``call_p95_ms`` are percentiles over the distinct
calls of a pass of each call's median latency across passes, so a burst of
machine noise in one pass does not move them; certificate-sweep has 256
distinct calls, the other workloads one.

A call fails on an exit code of 2, an exception, a failed output check (see
``workloads``) or stdout that differs from the same call in the run's first
pass.  The last line of stdout is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

WORK = Path(".bench_out")
SETUP_PROBES = 9
DEADLINE_S = 170.0
WORKER = Path(__file__).resolve().parent / "worker.py"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed CLI call)."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(usable_cpus())
    env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=str(root / "src"),
               PYTHONHASHSEED="0")
    env.pop("EP_CHLP", None)  # the CLI would let it override the configs' chlp
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, argvs: list[list[str]]) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": usable_cpus(),
        "workload": workload,
        "seed": seed,
        "benchmark_argv": sys.argv,
        "cli_argv": argvs,
        "load": "closed loop, one client, one call at a time",
        "byte_counts": "computed from array sizes, not measured",
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Runner:
    """Starts the set-up probes and pass processes of one workload run."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = worker_env(root)
        self.passes = 0

    def _worker(self, *extra: str) -> float:
        """Run one worker process to completion; returns its wall time."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(WORK), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        start = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()}")
        return wall

    def setup(self) -> float:
        return self._worker("--setup")

    def run_pass(self, traced: bool) -> dict:
        name = f"{self.workload}-{self.seed}-{self.passes}"
        out = WORK / "passes" / f"{name}.json"
        extra = ["--out", str(out), "--pass-id", str(self.passes)]
        trace_path = WORK / "spans" / f"{name}.json"
        if traced:
            extra += ["--trace", str(trace_path)]
        self.passes += 1
        self._worker(*extra)
        result = json.loads((self.root / out).read_text(encoding="utf-8"))
        result["traced"] = traced
        if traced:
            result["trace_file"] = str(trace_path)
        return result


def judge(workload: str, passes: list[dict]) -> tuple[int, list[str]]:
    """Failed-call count and the first failure messages, over all passes."""
    checker = workloads.OutputChecker(workload)
    first = passes[0]["calls"]
    failed, messages = 0, []
    for k, result in enumerate(passes):
        for i, call in enumerate(result["calls"]):
            errors = checker.errors(call)
            if call["stdout"] != first[i]["stdout"]:
                errors.append("stdout differs from the run's first pass")
            if errors:
                failed += 1
                if len(messages) < 20:
                    messages.append(f"pass {k} {' '.join(call['argv'])}: {'; '.join(errors)}")
    return failed, messages


def config_latencies(passes: list[dict]) -> list[float]:
    """Each distinct call's median latency over the passes, in seconds."""
    per_call: dict[tuple, list[float]] = {}
    for p in passes:
        for call in p["calls"]:
            per_call.setdefault(tuple(call["argv"]), []).append(call["seconds"])
    return [statistics.median(times) for times in per_call.values()]


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, float]:
    latencies = config_latencies(passes)
    calls = sum(len(p["calls"]) for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "configs_per_s": calls / sum(p["wall_s"] for p in passes),
        "call_p50_ms": 1e3 * percentile(latencies, 50),
        "call_p95_ms": 1e3 * percentile(latencies, 95),
    }


def per_layer(root: Path, passes: list[dict]) -> dict[str, float]:
    import tracer

    traced = [tracer.layer_metrics(json.loads((root / p["trace_file"]).read_text()))
              for p in passes if p["traced"]]
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    walls = {flag: statistics.median(p["wall_s"] for p in passes if p["traced"] == flag)
             for flag in (False, True)}
    out["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return out


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, deadline: float) -> dict:
    runner = Runner(root, workload, seed, deadline)
    if trace:
        runner.setup()
        setup = []
    else:
        setup = [runner.setup() for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    # no pass starts that would end more than half a pass after --seconds
    while not passes or sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] / 2 < seconds:
        if trace:
            passes.append(runner.run_pass(traced=False))
        passes.append(runner.run_pass(traced=trace))

    attempted = sum(len(p["calls"]) for p in passes)
    failed, messages = judge(workload, passes)
    metrics = per_layer(root, passes) if trace else end_to_end(setup, passes)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "record": run_record(workload, seed, workloads.calls(WORK, workload, seed)),
        "failed_frac": failed / attempted,
        "failures": messages,
        "readouts": workloads.readouts(workload, passes[0]["calls"]),
        "setup_samples_s": setup,
        "latency_samples": len(config_latencies(passes)),
        "passes": [{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "traced": p["traced"], "calls": len(p["calls"])} for p in passes],
        "result": result,
    }
    out = root / WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    details["results_file"] = str(out.relative_to(root))
    return details


def report(workload: str, details: dict) -> None:
    result = details["result"]
    print(f"{workload}: {result['attempted']} calls, {result['failed']} failed "
          f"(failed_frac {details['failed_frac']:.4g} ratio), "
          f"results in {details['results_file']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in details["readouts"].items():
        print(f"  readout {name} = {value}")
    for message in details["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "epblowup" / "cli.py").is_file():
        sys.stderr.write(f"error: {root} holds no src/epblowup; run from a checkout root\n")
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    (root / WORK / "passes").mkdir(parents=True, exist_ok=True)
    (root / WORK / "spans").mkdir(parents=True, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            # each workload gets the whole budget when run alone
            deadline = time.monotonic() + DEADLINE_S
            details = run_workload(root, spec, name, args.seed, args.seconds,
                                   bool(args.trace), deadline)
            report(name, details)
            results[name] = details["result"]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
