"""One timed iteration in a fresh process: ``python3 iteration.py '<json spec>'``.

The spec names the workload, seed, iteration, output directory, boeq source
directory, whether to trace and whether to stop after set-up (a set-up
probe).  The process imports ``boeq.cli``, builds the
iteration's inputs, runs every operation, and writes ``result.json`` into
the output directory: monotonic timestamps for ``run.py``, peak RSS, one
record per operation and, when traced, the spans.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import boeq.cli  # noqa: F401  (part of the set-up every CLI invocation pays)

    import workloads

    outdir = Path(spec["outdir"])
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["iteration"])
        spans.install(tracer)
    params = workloads.WORKLOADS[spec["workload"]].params(spec["seed"], spec["iteration"])
    ops = workloads.build_ops(spec["workload"], params, outdir)
    ready = time.monotonic()
    if spec["setup_only"]:
        (outdir / "result.json").write_text(json.dumps({"ready": ready}))
        return 0

    records = []
    start = time.monotonic()
    for op in ops:
        record = {"op": op.label, "cli": op.cli, "error": None, "result": None}
        try:
            record["result"] = op.run()
        except SystemExit as exc:  # argparse rejects the arguments
            record["error"] = f"exit code {exc.code}"
        except Exception as exc:  # recorded as a failed operation; the run continues
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    end = time.monotonic()

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "params": params,
        "ready": ready,
        "start": start,
        "end": end,
        "peak_rss_mib": peak_kib / 1024.0,
        "ops": records,
        "spans": tracer.spans if tracer else [],
    }
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
