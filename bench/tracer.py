"""Per-layer tracing of epblowup from outside the package.

``Tracer`` replaces each function in ``LAYER_FUNCTIONS`` with a wrapper that
records a span (name, start, end, parent span, pass id) and a call count.  A
function is replaced in every ``epblowup`` module namespace that binds it,
because the modules import each other's functions by name
(``from .quadrature import integrate_radial``).  ``RadialGrid.shell_weights``
is only counted, on the class.  Hot inner helpers such as ``hls_constant``
(about 400k calls per sweep pass) are left alone to keep the overhead low.
Leaving the ``with`` block puts every original back.

Spans stay in memory until ``dump``; ``layer_metrics`` turns a dump into the
per-layer metrics.  Byte counts are computed from array sizes (the N x N
interaction kernel, the k_cells x cells sine matrix), not measured.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYER_FUNCTIONS = {
    "cli": ("dispatch",),
    "core": ("parse_config", "build_profile"),
    "quadrature": ("integrate_radial", "interaction_integral"),
    "poisson": ("solve_potential",),
    "diagnostics": ("compute_quantities",),
    "constants": ("minimize_hls", "build_table"),
    "criteria": ("check_all", "lifespan_bound"),
    "solver": ("run", "step"),
    "oracles": ("run_suite", "radial_fourier", "build_corpus", "verify_energy_bounds"),
}


class Tracer:
    """Context manager that traces one pass; see the module docstring."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.kernel_bytes = 0
        self.matrix_bytes = 0
        self.cells_stepped = 0
        self.dts: list[float] = []
        self.hls_args: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        import epblowup.cli  # noqa: F401  (loads every layer module)

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "epblowup" or name.startswith("epblowup.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"epblowup.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        grid = sys.modules["epblowup.core"].RadialGrid
        self._patch(grid, "shell_weights",
                    self._count_wrapper("core.shell_weights", vars(grid)["shell_weights"]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts, pass_id = self.spans, self._stack, self.counts, self.pass_id
        probe = self._probe(name, fn)
        clock = time.perf_counter
        per_suite = name == "oracles.run_suite"

        def traced(*args, **kwargs):
            label = name
            if per_suite:
                label = f"{name}.{args[0] if args else kwargs['suite']}"
            counts[name] += 1
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, pass_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _probe(self, name: str, fn):
        """Extra readings for a few functions, taken from arguments and results."""
        signature = inspect.signature(fn)

        def bound(args, kwargs):
            b = signature.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "quadrature.interaction_integral":
            def probe(args, kwargs, result):
                self.kernel_bytes += bound(args, kwargs)["grid"].cells ** 2 * 8
        elif name == "oracles.radial_fourier":
            def probe(args, kwargs, result):
                a = bound(args, kwargs)
                self.matrix_bytes += len(a["k"]) * a["grid"].cells * 8
        elif name == "constants.minimize_hls":
            def probe(args, kwargs, result):
                self.hls_args.add(repr(tuple(bound(args, kwargs).items())))
        elif name == "solver.step":
            def probe(args, kwargs, result):
                new_state, info = result
                self.dts.append(float(info["dt"]))
                self.cells_stepped += len(new_state.rho)
        else:
            probe = None
        return probe

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "pass_id": self.pass_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "kernel_bytes": self.kernel_bytes,
            "matrix_bytes": self.matrix_bytes,
            "cells_stepped": self.cells_stepped,
            "dts": self.dts,
            "hls_distinct": len(self.hls_args),
        }), encoding="utf-8")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its dump."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    self_time: Counter = Counter()
    for (name, start, end, _, _), inner in zip(spans, child):
        total[name] += end - start
        self_time[name] += end - start - inner

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counts["solver.step"]
    dts = trace["dts"]
    out = {
        "cli.dispatch.self_s": self_time["cli.dispatch"],
        "core.parse_config.s": total["core.parse_config"],
        "core.build_profile.s": total["core.build_profile"],
        "core.shell_weights.calls": counts["core.shell_weights"],
        "quadrature.integrate_radial.calls": counts["quadrature.integrate_radial"],
        "quadrature.integrate_radial.s": total["quadrature.integrate_radial"],
        "quadrature.interaction_integral.calls": counts["quadrature.interaction_integral"],
        "quadrature.interaction_integral.s": total["quadrature.interaction_integral"],
        "quadrature.interaction_integral.kernel_bytes": trace["kernel_bytes"],
        "poisson.solve_potential.calls": counts["poisson.solve_potential"],
        "poisson.solve_potential.s": total["poisson.solve_potential"],
        "poisson.solve_potential.per_step": ratio(counts["poisson.solve_potential"], steps),
        "diagnostics.compute_quantities.calls": counts["diagnostics.compute_quantities"],
        "diagnostics.compute_quantities.s": total["diagnostics.compute_quantities"],
        "constants.minimize_hls.calls": counts["constants.minimize_hls"],
        "constants.minimize_hls.s": total["constants.minimize_hls"],
        "constants.minimize_hls.distinct_frac": ratio(trace["hls_distinct"],
                                                      counts["constants.minimize_hls"]),
        "constants.build_table.s": total["constants.build_table"],
        "criteria.check_all.s": total["criteria.check_all"],
        "criteria.lifespan_bound.calls": counts["criteria.lifespan_bound"],
        "criteria.lifespan_bound.s": total["criteria.lifespan_bound"],
        "solver.run.s": total["solver.run"],
        "solver.step.calls": steps,
        "solver.step.self_s": self_time["solver.step"],
        "solver.step.ms": 1e3 * ratio(total["solver.step"], steps),
        "solver.cell_updates_per_s": ratio(trace["cells_stepped"], total["solver.step"]),
        "solver.dt.median": statistics.median(dts) if dts else 0.0,
        "solver.dt.min": min(dts) if dts else 0.0,
        "oracles.radial_fourier.calls": counts["oracles.radial_fourier"],
        "oracles.radial_fourier.s": total["oracles.radial_fourier"],
        "oracles.radial_fourier.matrix_bytes": trace["matrix_bytes"],
        "oracles.build_corpus.calls": counts["oracles.build_corpus"],
        "oracles.verify_energy_bounds.s": total["oracles.verify_energy_bounds"],
    }
    for suite in ("hls", "hlp", "chemin", "split"):
        out[f"oracles.run_suite.{suite}.s"] = total[f"oracles.run_suite.{suite}"]
    return out
