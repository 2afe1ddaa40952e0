"""One traced pass: run a workload's steps in-process under span wrappers.

Usage: PYTHONPATH=src python3 bench/traced_pass.py PLAN.json SPANS.json

PLAN lists the steps (xtrap argv, or the write_runs library step) and may
name extra wrapper targets. The steps run in the current directory; the
spans, the missing wrapper names and each step's exit code and wall time
go to SPANS as JSON when the pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing
import write_runs


def main(plan_path: str, out_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer = tracing.Tracer()
    tracer.install(tracing.WRAPPED + tuple(tuple(s) + (None,) for s in plan.get("extra_wrapped", [])))
    from xtrap import cli

    steps = []
    for step in plan["steps"]:
        error = None
        start = time.perf_counter()
        try:
            if step["argv"] is None:
                write_runs.write_runs(Path("."))
                code = 0
            else:
                code = cli.main(step["argv"])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crashing step is recorded as failed, like a crashing process
            code, error = 1, f"{type(e).__name__}: {e}"
        steps.append({"name": step["name"], "exit": code, "wall_s": time.perf_counter() - start, "error": error})
    Path(out_path).write_text(json.dumps({"steps": steps, **tracer.dump()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
