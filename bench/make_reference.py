"""Write the reference outputs that the benchmark's output checks compare against.

    python3 bench/make_reference.py

Run from the root of a checkout, on the commit whose outputs are to be the
reference (it was run on the commit that defined the benchmark).  It checks
every config in the certificate-sweep pool and runs the oracle-corpus call
once (about 25 s), through the same worker code the benchmark uses.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import import_cli, run_pass  # noqa: E402


def main() -> int:
    cli = import_cli(Path.cwd())
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    pool = workloads.sweep_pool()
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        paths = []
        for i, text in enumerate(pool):
            path = Path(tmp) / f"sweep-{i:03d}.cfg"
            path.write_text(text, encoding="utf-8")
            paths.append(["check", str(path)])
        records, _ = run_pass(cli, paths)
        sweep = []
        for text, call in zip(pool, records):
            if call["error"] or call["rc"] not in (0, 1):
                raise SystemExit(f"{call['argv']}: rc {call['rc']} {call['error']}")
            sweep.append(workloads.sweep_record(text, call["rc"], json.loads(call["stdout"])))

        work = Path(tmp)
        workloads.write_inputs(work, "oracle-corpus", 0)
        (call,), _ = run_pass(cli, workloads.calls(work, "oracle-corpus", 0))
        if call["error"] or call["rc"] != 0:
            raise SystemExit(f"{call['argv']}: rc {call['rc']} {call['error']}")
        suites = json.loads(call["stdout"])["suites"]
        oracle = {"worst_rel_margin": {name: s["worst_rel_margin"] for name, s in suites.items()}}

    lines = ",\n".join(json.dumps(rec, separators=(",", ":")) for rec in sweep)
    (workloads.REFERENCE_DIR / "certificate-sweep.json").write_text(f"[\n{lines}\n]\n")
    (workloads.REFERENCE_DIR / "oracle-corpus.json").write_text(json.dumps(oracle, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
