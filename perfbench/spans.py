"""Span tracing from outside the program, and the per-layer metrics derived from it.

A traced iteration replaces names in the boeq module that looks them up
(``boeq.cli.propagator``, ``boeq.spectral.eigen_system``, ...) with wrappers
that record one span per call: name, start, end, parent span and iteration
id, plus a few attributes the ratios need.  boeq's source is not changed.
Spans stay in memory and are handed to ``run.py`` when the iteration ends.
"""
from __future__ import annotations

import hashlib
import importlib
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace


def digest(array) -> str:
    """Content key of an array: equal keys mean the same data was factored twice."""
    return hashlib.blake2b(array.tobytes(), digest_size=12).hexdigest()


class Tracer:
    """In-memory span recorder; one per iteration (one per child process)."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span; the yielded record may take more attributes, even after the body."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        record = {"id": sid, "name": name, "parent": stack[-1] if stack else None,
                  "iteration": self.iteration, "thread": threading.get_ident(), **attrs}
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run fn in a worker thread as if it were called inside span ``parent``."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def wrap(self, name: str, fn, before=None, after=None):
        """fn recorded as span ``name``; before(*args) and after(result, *args)
        return extra attributes, computed outside the timed interval."""

        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
            if after:
                rec.update(after(result, *args, **kwargs))
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _matrix_key(a, *args, **kwargs):
    return {"key": digest(getattr(a, "entries", a))}


def _recurrence_key(prop, n_coeffs=None, *args, **kwargs):
    return {"key": f"{digest(prop.matrix)}:{n_coeffs}"}


def _evolve_attrs(u0, t_final, dt, n=None, *args, **kwargs):
    # step count of timestepper.evolve, from its arguments
    total = abs(float(t_final))
    full = int(total / dt + 1e-12)
    partial = int(total - full * dt > 1e-14 * max(1.0, total))
    n = u0.max_mode if n is None else n
    return {"steps": full + partial, "horizon": total,
            "key": f"{digest(u0.coeffs)}:{n}:{dt!r}"}


def _bytes_written(result, path, *args, **kwargs):
    path = Path(path)
    if path.is_dir():  # write_manifest(outdir, ...) / write_trajectory(outdir, ...)
        names = result if isinstance(result, list) else ["manifest.json"]
        return {"bytes": sum((path / name).stat().st_size for name in names)}
    return {"bytes": path.stat().st_size}


# (module that looks the name up, names, span name, before, after)
FUNCTION_PATCHES = [
    ("boeq.cli", ["main"], "cli.main", None, None),
    ("boeq.torus_solution", ["lax_matrix", "shift_adjoint"], "torus_operators.assemble", None, None),
    ("boeq.checks", ["lax_matrix", "b_matrix", "toeplitz_matrix", "shift_adjoint"],
     "torus_operators.assemble", None, None),
    ("boeq.cli", ["lax_matrix", "b_matrix"], "torus_operators.assemble", None, None),
    ("boeq.spectral", ["eigen_system"], "spectral.eigh", _matrix_key, None),
    ("boeq.torus_solution", ["hermitian_evolution"], "spectral.evolution", None, None),
    ("boeq.torus_solution", ["synthesize_torus"], "spectral.synth", None, None),
    ("boeq.cli", ["synthesize_torus"], "spectral.synth", None, None),
    ("boeq.checks", ["synthesize_torus"], "spectral.synth", None, None),
    ("boeq.torus_solution", ["propagator"], "torus_solution.propagator", None, None),
    ("boeq.cli", ["propagator"], "torus_solution.propagator", None, None),
    ("boeq.checks", ["propagator"], "torus_solution.propagator", None, None),
    ("boeq.torus_solution", ["evolve_coefficients"], "torus_solution.recurrence", _recurrence_key, None),
    ("boeq.cli", ["evolve_coefficients"], "torus_solution.recurrence", _recurrence_key, None),
    ("boeq.checks", ["evolve_coefficients"], "torus_solution.recurrence", _recurrence_key, None),
    ("boeq.torus_solution", ["evaluate_disc"], "torus_solution.disc", None, None),
    ("boeq.line_operators", ["toeplitz_line"], "line_operators.toeplitz", None, None),
    ("boeq.line_operators", ["hessenberg_solve_shifted"], "accel.kernel", None, None),
    ("boeq.cli", ["reconstruct_line"], "line_solution.reconstruct", None, None),
    ("boeq.cli", ["uhp_grid_scan"], "line_solution.scan", None, None),
    ("boeq.cli", ["evolve"], "timestepper.evolve", _evolve_attrs, None),
    ("boeq.checks", ["evolve"], "timestepper.evolve", _evolve_attrs, None),
    ("boeq.cli", ["default_suite"], "checks.suite", None, None),
    ("boeq.checks", ["formula_vs_solver"], "checks.formula_vs_solver", None, None),
    ("boeq.cli", ["write_field_json", "write_solution_json", "write_coeff_csv",
                  "write_samples_csv", "write_spectrum_csv", "write_scan_csv",
                  "write_matrix_csv", "write_json", "write_trajectory", "write_manifest"],
     "fileio.write", None, _bytes_written),
]


def install(tracer: Tracer) -> None:
    """Replace the looked-up names of every layer boundary with traced ones."""
    for module_name, names, span_name, before, after in FUNCTION_PATCHES:
        module = importlib.import_module(module_name)
        for name in names:
            setattr(module, name, tracer.wrap(span_name, getattr(module, name), before, after))

    line_operators = importlib.import_module("boeq.line_operators")
    line_solution = importlib.import_module("boeq.line_solution")

    # sla.hessenberg is looked up on the scipy.linalg module object
    sla = line_operators.sla
    line_operators.sla = SimpleNamespace(
        solve_banded=sla.solve_banded,
        hessenberg=tracer.wrap("line_operators.hessenberg", sla.hessenberg, _matrix_key),
    )

    base = line_solution.ResolventEvaluator

    class TracedEvaluator(base):
        def __init__(self, *args, **kwargs):
            with tracer.span("line_operators.setup"):
                super().__init__(*args, **kwargs)

        def hardy_solution(self, z):
            with tracer.span("line_operators.point"):
                return super().hardy_solution(z)

    line_solution.ResolventEvaluator = TracedEvaluator

    class TracedPool(ThreadPoolExecutor):
        """Worker spans keep the submitting span as parent (and its iteration)."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    line_solution.ThreadPoolExecutor = TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children running in parallel worker threads overlap; the union is
    subtracted once, so self time never goes negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``*_s`` are busy seconds summed over spans (self time where named so),
    counts are span counts, useful ratios are distinct data over attempts.
    A ratio whose layer was not called reads 0.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_total(name):
        return sum(selfs[s["id"]] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def useful(name):
        return _ratio(len({s["key"] for s in by_name[name]}), count(name))

    evolves = by_name["timestepper.evolve"]
    horizon = defaultdict(float)
    for s in evolves:
        horizon[s["key"]] = max(horizon[s["key"]], s["horizon"])

    return {
        "spectral.eigh_s": total("spectral.eigh"),
        "spectral.eigh_calls": count("spectral.eigh"),
        "spectral.eigh_useful_ratio": useful("spectral.eigh"),
        "spectral.evolution_s": self_total("spectral.evolution"),
        "spectral.synth_s": total("spectral.synth"),
        "torus_operators.assemble_s": total("torus_operators.assemble"),
        "torus_solution.propagator_s": self_total("torus_solution.propagator"),
        "torus_solution.recurrence_s": total("torus_solution.recurrence"),
        "torus_solution.recurrence_calls": count("torus_solution.recurrence"),
        "torus_solution.recurrence_useful_ratio": useful("torus_solution.recurrence"),
        "torus_solution.disc_s": total("torus_solution.disc"),
        "torus_solution.disc_ms_per_point": 1e3 * _ratio(total("torus_solution.disc"),
                                                         count("torus_solution.disc")),
        "line_operators.setup_s": total("line_operators.setup"),
        "line_operators.toeplitz_s": total("line_operators.toeplitz"),
        "line_operators.hessenberg_s": total("line_operators.hessenberg"),
        "line_operators.factorizations": count("line_operators.hessenberg"),
        "line_operators.factorization_useful_ratio": useful("line_operators.hessenberg"),
        "line_operators.point_s": total("line_operators.point"),
        "line_operators.points": count("line_operators.point"),
        "accel.kernel_s": total("accel.kernel"),
        "accel.kernel_calls": count("accel.kernel"),
        "accel.kernel_ms_per_call": 1e3 * _ratio(total("accel.kernel"), count("accel.kernel")),
        "line_solution.reconstruct_s": self_total("line_solution.reconstruct"),
        "line_solution.scan_s": self_total("line_solution.scan"),
        "timestepper.evolve_s": total("timestepper.evolve"),
        "timestepper.steps": sum(s["steps"] for s in evolves),
        "timestepper.useful_ratio": _ratio(sum(horizon.values()),
                                           sum(s["horizon"] for s in evolves)),
        "checks.suite_s": total("checks.suite"),
        "checks.formula_vs_solver_s": total("checks.formula_vs_solver"),
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes_written": sum(s["bytes"] for s in by_name["fileio.write"]),
        "cli.self_s": self_total("cli.main"),
        "top_level_s": sum(s["end"] - s["start"] for s in spans if s["parent"] is None),
    }


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
