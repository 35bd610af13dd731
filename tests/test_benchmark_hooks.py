"""The names the benchmark harness in ``perfbench/`` looks up in boeq.

``perfbench/spans.py`` wraps module attributes by name, and the harness
reads a few more hooks directly.  Deleting or renaming one of them breaks
the benchmark; these tests make that fail here as well.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _function_patches():
    # spans.py imports only the standard library, so it loads without the
    # harness's other modules on the path
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names, *_ in module.FUNCTION_PATCHES for name in names]


@pytest.mark.parametrize("module_name,name", _function_patches())
def test_function_patch_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("module_name,name", [
    ("boeq.line_operators", "hessenberg_solve_shifted"),
    ("boeq.line_solution", "ResolventEvaluator"),
    ("boeq.accel", "worker_count"),
    ("boeq.accel", "numba_enabled"),
    ("boeq.cli", "main"),
    ("boeq.presets", "torus_preset"),
    ("boeq.timestepper", "evolve"),
    ("boeq.torus_solution", "propagator"),
    ("boeq.torus_solution", "evaluate_disc"),
])
def test_direct_hook_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


def test_scipy_hooks_on_line_operators():
    # the harness swaps line_operators.sla for a namespace holding only these
    sla = importlib.import_module("boeq.line_operators").sla
    assert callable(sla.hessenberg) and callable(sla.solve_banded)


def test_propagator_matrix_and_snapshot_trajectory():
    from boeq.presets import torus_preset
    from boeq.timestepper import evolve
    from boeq.torus_solution import TorusPropagator, propagator

    assert "matrix" in TorusPropagator.__dataclass_fields__
    u0 = torus_preset("cos", 8)
    assert propagator(u0, 0.1, 8).matrix.shape == (9, 9)
    assert "snapshot_every" in inspect.signature(evolve).parameters
    traj = evolve(u0, 0.004, 1e-3, 8, snapshot_every=2)
    assert list(traj.times) == pytest.approx([0.0, 0.002, 0.004])
    assert len(traj.fields) == 3


def test_solve_line_builds_its_evaluator_through_the_module_name(tmp_path, monkeypatch):
    # the harness swaps line_solution.ResolventEvaluator for a traced
    # subclass; solve-line must build every evaluator through that name
    import boeq.line_solution as ls
    from boeq.cli import main

    built = []

    class Counting(ls.ResolventEvaluator):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ls, "ResolventEvaluator", Counting)
    code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5",
                 "--cutoff", "16", "--h", "0.08", "--tail-tol", "1e-6", "--nx", "5",
                 "--scan=-1,1,3,0.5,1.0,2", "--out", str(tmp_path / "r")])
    assert code == 0
    assert built == [0.5]
