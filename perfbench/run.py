"""boeq benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all``) from the repository root.  Each timed
iteration is a fresh ``python3 perfbench/iteration.py`` process, started one
at a time, with its own datum drawn from the seed and its own output
directory under ``.perfbench_out/``.  Every output is checked against the
oracles in ``oracles.py``; a failed operation is counted and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (wall_s, setup_s, peak_rss_mib, err_ratio); with
``--trace 1`` untraced and traced iterations alternate and the metrics are
the per-layer ones from ``spans.py`` plus ``trace_overhead_s``.  The run
record (machine, versions, sizes, every iteration) and, when traced, the
spans are written under ``.perfbench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 2        # set-up-only processes per run, besides the iterations
MIN_ITERATIONS = 4      # even when one iteration outlasts --seconds
RUN_LIMIT_S = 140.0     # no iteration starts that would end past this; checks follow
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "err_ratio": "1"}


def import_program():
    """Import boeq from this checkout's src/, and only from there."""
    if not (SRC / "boeq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no boeq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import boeq

    if Path(boeq.__file__).resolve().parent != (SRC / "boeq").resolve():
        raise SystemExit(f"perfbench: imported boeq from {boeq.__file__}, not {SRC}")
    return boeq


def spawn(name: str, seed: int, iteration: int, outdir: Path, timeout: float,
          traced: bool = False, setup_only: bool = False) -> tuple[dict | None, float, str]:
    """Run one child process; returns (its result.json, spawn time, error text)."""
    spec = {"workload": name, "seed": seed, "iteration": iteration, "outdir": str(outdir),
            "src": str(SRC), "trace": traced, "setup_only": setup_only}
    outdir.mkdir(parents=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "iteration.py"), json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, spawned, f"timed out after {timeout:.0f} s"
    result = outdir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return None, spawned, f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(result.read_text()), spawned, ""


def evaluate(name: str, seed: int, i: int, rundir: Path, traced: bool,
             result: dict | None, spawned: float, error: str) -> dict:
    """Check one finished iteration against the oracles; its record for the run."""
    itdir = rundir / f"iter{i:03d}"
    params = workloads.WORKLOADS[name].params(seed, i)
    record = {"iteration": i, "params": params, "traced": traced}
    if result is None:
        n = workloads.op_count(name)
        record.update(attempted=n, failed=n, errors=[error])
        return record
    checks = oracles.check_iteration(name, params, itdir, result["ops"])
    failed = oracles.failed_ops(result["ops"], checks)
    record.update(
        setup_s=result["ready"] - spawned,
        wall_s=result["end"] - result["start"],
        peak_rss_mib=result["peak_rss_mib"],
        err_ratio=oracles.err_ratio(checks),
        attempted=len(failed),
        failed=sum(failed),
        errors=[f"{r['op']}: {r['error']}" for r in result["ops"] if r["error"]],
        checks=[{"op": c.op, "name": c.name, "err": c.err, "tol": c.tol, "passed": c.passed}
                for c in checks],
    )
    if traced:
        record["layers"] = spans.layer_metrics(result["spans"])
        record["spans"] = result["spans"]
    if not any(failed):
        shutil.rmtree(itdir)
    return record


def setup_probe(name: str, seed: int, k: int, rundir: Path) -> float | None:
    outdir = rundir / f"probe{k}"
    result, spawned, _ = spawn(name, seed, k, outdir, 60.0, setup_only=True)
    shutil.rmtree(outdir, ignore_errors=True)
    return None if result is None else result["ready"] - spawned


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Probe set-up, then iterate for ``seconds``; returns the run's summary."""
    began = time.monotonic()
    rundir = OUT / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    setups = [s for s in (setup_probe(name, seed, k, rundir) for k in range(SETUP_PROBES))
              if s is not None]

    # the oracles run after the timed loop, so the loop holds only iterations
    deadline = time.monotonic() + seconds
    finished, durations = [], []
    while True:
        now = time.monotonic()
        typical = statistics.median(durations) if durations else 0.0
        if now + typical > began + RUN_LIMIT_S and finished:
            break
        if len(finished) >= MIN_ITERATIONS and now + typical > deadline:
            break
        i, traced = len(finished), trace and len(finished) % 2 == 1
        timeout = max(1.0, began + RUN_LIMIT_S - now)
        finished.append((i, traced, *spawn(name, seed, i, rundir / f"iter{i:03d}", timeout, traced)))
        durations.append(time.monotonic() - now)
    iterations = [evaluate(name, seed, i, rundir, traced, *rest) for i, traced, *rest in finished]
    return summarize(name, seed, trace, setups, iterations)


def summarize(name, seed, trace, setups, iterations) -> dict:
    ok = [r for r in iterations if "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    summary = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": sum(r["attempted"] for r in iterations),
        "failed": sum(r["failed"] for r in iterations),
        "iterations": iterations,
        "samples": {"wall_s": [r["wall_s"] for r in plain],
                    "setup_s": setups + [r["setup_s"] for r in ok]},
    }
    metrics = {}
    if plain:
        metrics.update(
            wall_s=statistics.median(summary["samples"]["wall_s"]),
            setup_s=statistics.median(summary["samples"]["setup_s"]),
            peak_rss_mib=max(r["peak_rss_mib"] for r in plain),
            err_ratio=max(r["err_ratio"] for r in ok),
        )
    if trace and traced and plain:
        layers = spans.median_metrics([r["layers"] for r in traced])
        layers["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - metrics["wall_s"]
        summary["end_to_end"] = metrics
        metrics = layers
    summary["metrics"] = metrics
    summary["correct"] = summary["failed"] == 0 and bool(metrics)
    return summary


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if "_ms_per_" in metric:
        return "ms"
    if metric.endswith("_ratio"):
        return "1"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"


def run_record(boeq, seed: int, names: list[str]) -> dict:
    from boeq.accel import numba_enabled, worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "worker_count": worker_count(),
        "numba_enabled": numba_enabled(),
        "env": {k: os.environ.get(k) for k in
                ("BOX_THREADS", "BOX_NUMBA", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "boeq": boeq.__version__,
        "seed": seed,
        "sizes": {n: workloads.sizes(n) for n in names},
    }


def report(summary: dict) -> None:
    print(f"== {summary['workload']} seed {summary['seed']} trace {int(summary['trace'])}: "
          f"{len(summary['iterations'])} iterations, {summary['attempted']} operations, "
          f"{summary['failed']} failed (fail_ratio {summary['failed'] / max(summary['attempted'], 1):g})")
    for metric, value in summary["metrics"].items():
        print(f"  {metric:<42} {value:>14.6g} {unit(metric)}")
    for metric in ("wall_s", "setup_s"):
        samples = summary["samples"][metric]
        if samples:
            print(f"  {metric} samples: n={len(samples)} min {min(samples):.4f} "
                  f"median {statistics.median(samples):.4f} max {max(samples):.4f}")
    if summary["trace"] and "end_to_end" in summary:
        m, e = summary["metrics"], summary["end_to_end"]
        print(f"  top-level spans {m['top_level_s']:.4f} s vs untraced wall {e['wall_s']:.4f} s, "
              f"trace overhead {m['trace_overhead_s']:.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    boeq = import_program()
    names = workloads.WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOAD_NAMES} or all")
    record = run_record(boeq, args.seed, names)
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    for s in summaries:
        report(s)
        path = OUT / s["workload"] / f"seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"record": record, **s}, indent=1))
    print("run record: " + json.dumps(record))

    single = len(summaries) == 1
    metrics = {
        (m if single else f"{s['workload']}.{m}"): {"value": v, "unit": unit(m)}
        for s in summaries for m, v in s["metrics"].items()
    }
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
