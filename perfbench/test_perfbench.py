"""Self-tests of the benchmark: seeded inputs, oracles that can fail, tracing.

    python3 -m pytest perfbench

Runs one real iteration of every workload (about half a minute on two
cores), then perturbs each checked output and requires the matching oracle
to reject it, so no check is a tautology.
"""
from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import spans
import workloads as wl

run.import_program()
from boeq.accel import worker_count  # noqa: E402


def _iteration(name: str, outdir: Path, traced: bool = False) -> tuple[dict, list[dict], dict]:
    result, _, error = run.spawn(name, 7, 0, outdir, 120.0, traced)
    assert result is not None, error
    return wl.WORKLOADS[name].params(7, 0), result["ops"], result


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untraced iteration of every workload, kept on disk."""
    base = tmp_path_factory.mktemp("iterations")
    return {name: (base / name, *_iteration(name, base / name)[:2]) for name in wl.WORKLOAD_NAMES}


def _checks(name, params, outdir, records):
    return {c.name: c for c in oracles.check_iteration(name, params, outdir, records)}


def _edit_csv(path: Path, column: int, delta: float, row: int = 0):
    rows = list(csv.reader(path.open(newline="")))
    rows[1 + row][column] = repr(float(rows[1 + row][column]) + delta)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", wl.WORKLOAD_NAMES)
def test_seed_regenerates_identical_inputs(name):
    w = wl.WORKLOADS[name]
    first = [(w.params(5, i), wl.cli_argv(name, w.params(5, i), Path("out"))) for i in range(6)]
    again = [(w.params(5, i), wl.cli_argv(name, w.params(5, i), Path("out"))) for i in range(6)]
    assert first == again
    data = [p for p, _ in first]
    assert len({tuple(sorted(p.items())) for p in data}) == len(data), "each iteration has its own datum"
    assert w.params(6, 0) != w.params(5, 0)
    for p in data:
        for key, (lo, hi) in w.ranges.items():
            assert lo <= p[key] <= hi


def test_scans_are_passed_with_equals_sign():
    argv = [a for _, args in wl.cli_argv("line-probe", {"c": 1.0}, Path("o")) for a in args]
    scans = [a for a in argv if a.startswith("--scan")]
    assert scans and all(a.startswith("--scan=-2") for a in scans)


# ---------------------------------------------------------------------------
# oracles accept real outputs and reject perturbed ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", wl.WORKLOAD_NAMES)
def test_real_outputs_pass(outputs, name):
    outdir, params, records = outputs[name]
    checks = oracles.check_iteration(name, params, outdir, records)
    assert checks and all(c.passed for c in checks), [c for c in checks if not c.passed]
    assert not any(oracles.failed_ops(records, checks))
    assert 0.0 < oracles.err_ratio(checks) <= 1.0


PERTURBATIONS = [
    # (workload, check name, file under the iteration directory, edit)
    ("torus-multitime", "coeffs t=0.5", "solve-torus/coeffs_t01.json",
     lambda p: _edit_json(p, lambda d: d["coeffs"][1].__setitem__(0, d["coeffs"][1][0] * (1 + 1e-4)))),
    ("line-reconstruct", "solve-line/solution_t00.csv", "solve-line/solution_t00.csv",
     lambda p: _edit_csv(p, 1, 0.1, row=20)),
    ("line-probe", "solve-line-probe/solution_t00.csv", "solve-line-probe/solution_t00.csv",
     lambda p: _edit_csv(p, 1, 0.05, row=2)),
    ("line-probe", "solve-line-probe/uhp_scan.csv", "solve-line-probe/uhp_scan.csv",
     lambda p: _edit_csv(p, 2, 2e-3)),
    ("line-probe", "solve-line-t0/solution_t00.csv", "solve-line-t0/solution_t00.csv",
     lambda p: _edit_csv(p, 1, 0.1, row=80)),
    ("line-probe", "solve-line-t0/uhp_scan.csv", "solve-line-t0/uhp_scan.csv",
     lambda p: _edit_csv(p, 3, -2e-3, row=100)),
    ("crosscheck", "compare rel_l2", "compare/compare.csv", lambda p: _edit_csv(p, 3, 2e-6, row=5)),
    ("crosscheck", "validate reports", "validate/validation_report.json",
     lambda p: _edit_json(p, lambda d: d["reports"][-1].__setitem__("passed", False))),
    ("crosscheck", "compare/manifest", "compare/compare.csv",
     lambda p: p.write_text(p.read_text() + "\n")),
]


@pytest.mark.parametrize("name,check,target,edit", PERTURBATIONS,
                         ids=[f"{p[0]}:{p[1]}" for p in PERTURBATIONS])
def test_oracle_rejects_perturbed_output(outputs, tmp_path, name, check, target, edit):
    outdir, params, records = outputs[name]
    copy = tmp_path / name
    shutil.copytree(outdir, copy)
    edit(copy / target)
    checks = _checks(name, params, copy, records)
    assert not checks[check].passed
    assert any(oracles.failed_ops(records, list(checks.values())))


def test_disc_oracle_rejects_perturbed_value(outputs):
    outdir, params, records = outputs["torus-multitime"]
    records = json.loads(json.dumps(records))
    records[5]["result"][0] += 1e-5
    checks = _checks("torus-multitime", params, outdir, records)
    assert not checks["evaluate_disc z[3]"].passed
    assert all(c.passed for n, c in checks.items() if n != "evaluate_disc z[3]")


def test_failed_exit_code_and_exception_count_as_failures(outputs):
    outdir, params, records = outputs["crosscheck"]
    checks = oracles.check_iteration("crosscheck", params, outdir, records)
    bad = json.loads(json.dumps(records))
    bad[1]["result"] = 1
    assert oracles.failed_ops(bad, checks) == [False, True]
    bad[0]["error"] = "ValueError: boom"
    assert oracles.failed_ops(bad, checks) == [True, True]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_overlapping_children():
    s = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 7.0},  # another thread, overlapping
        {"id": 4, "parent": 2, "start": 1.0, "end": 2.0},
    ]
    assert spans.self_times(s) == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_traced_iteration_links_worker_spans(tmp_path):
    params, records, result = _iteration("line-reconstruct", tmp_path / "it", traced=True)
    s = result["spans"]
    by_id = {x["id"]: x for x in s}
    recon = [x for x in s if x["name"] == "line_solution.reconstruct"]
    points = [x for x in s if x["name"] == "line_operators.point"]
    assert len(recon) == 1 and len(points) == 2 * wl.RECONSTRUCT_NX
    assert {p["parent"] for p in points} == {recon[0]["id"]}
    assert {x["iteration"] for x in s} == {0}
    if worker_count() > 1:  # points ran in pool threads, not in the reconstruct span's thread
        assert all(p["thread"] != recon[0]["thread"] for p in points)
    for k in (x for x in s if x["name"] == "accel.kernel"):
        assert by_id[k["parent"]]["name"] == "line_operators.point"
    layers = spans.layer_metrics(s)
    wall = result["end"] - result["start"]
    assert abs(layers["top_level_s"] - wall) < 0.05 * wall
    assert layers["accel.kernel_calls"] == 2 * wl.RECONSTRUCT_NX
    assert layers["line_operators.factorizations"] == 1
    assert layers["fileio.bytes_written"] > 0
    assert all(r["error"] is None for r in records)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
