"""Independent oracles for every output a workload iteration writes or returns.

Each check compares one output against a reference that does not come from
the code path under test, with the tolerance the acceptance criteria use:

- torus coefficients and disc values against the IF-RK4 stepper at n = 128,
  dt = 2e-4 (criterion-1 bound, rel <= 1e-6);
- line samples against the travelling wave 2c/(1 + c^2 (x - ct)^2)
  (criterion-6 bound, rel L2 <= 1e-3) and scan values against
  Pu(t, z) = i / (z - ct + i/c) (abs <= 1e-3);
- ``compare`` rows at rel_l2 <= 1e-6, and ``validate`` passing every check;
- every CLI run's manifest checksums matching the files on disk.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

TORUS_TOL = 1e-6
LINE_TOL = 1e-3
SCAN_TOL = 1e-3
COMPARE_TOL = 1e-6
ORACLE_N = 128
ORACLE_DT = 2e-4
ORACLE_K = 64  # coefficients compared: k <= 64, well inside the stepper's 2/3 cut


@dataclass(frozen=True)
class Check:
    """One checked output of operation ``op``.

    ``err`` is None when the output is missing, malformed or rejected
    outright; a pass/fail check that passes reads 0.
    """

    op: int
    name: str
    err: float | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.err is not None and bool(self.err <= self.tol)


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def travelling_wave(c: float, t: float, x: np.ndarray) -> np.ndarray:
    return 2.0 * c / (1.0 + (c * (np.asarray(x) - c * t)) ** 2)


def hardy_lorentzian(c: float, t: float, z: np.ndarray) -> np.ndarray:
    return 1j / (np.asarray(z) - c * t + 1j / c)


def torus_oracle(a: float, b: float) -> dict[float, np.ndarray]:
    """Hardy coefficients k = 0..128 of the stepper solution at TORUS_TIMES."""
    from boeq.presets import torus_preset
    from boeq.timestepper import evolve

    every = int(round(wl.TORUS_TIMES[0] / ORACLE_DT))
    traj = evolve(torus_preset("twomode", ORACLE_N, a=a, b=b), max(wl.TORUS_TIMES), ORACLE_DT,
                  ORACLE_N, snapshot_every=every)
    out = {}
    for t in wl.TORUS_TIMES:
        i = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[i] - t) > 1e-9:
            raise ValueError(f"no stepper snapshot at t = {t}")
        out[t] = traj.fields[i].coeffs[ORACLE_N:]
    return out


def _guard(op: int, name: str, tol: float, fn) -> Check:
    """Run one comparison; a missing or malformed output fails the check."""
    try:
        err = fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Check(op, f"{name}: {type(exc).__name__}: {exc}", None, tol)
    if err is None or not np.isfinite(err):
        return Check(op, name, None, tol)
    return Check(op, name, float(err), tol)


def manifest_check(op: int, outdir: Path, expected: list[str]) -> Check:
    """manifest.json lists every expected file, and every checksum matches."""

    def fn():
        outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
        if not set(expected) <= set(outputs):
            return None
        for name, digest in outputs.items():
            if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest:
                return None
        return 0.0

    return _guard(op, f"{outdir.name}/manifest", 1.0, fn)


def samples_check(op: int, path: Path, nx: int, c: float, t: float) -> Check:
    def fn():
        rows = np.array(_read_rows(path), dtype=float)
        if rows.shape != (nx, 2):
            return None
        return _rel(rows[:, 1], travelling_wave(c, t, rows[:, 0]))

    return _guard(op, f"{path.parent.name}/{path.name}", LINE_TOL, fn)


def scan_check(op: int, path: Path, points: int, c: float, t: float) -> Check:
    def fn():
        rows = np.array(_read_rows(path), dtype=float)
        if rows.shape != (points, 4):
            return None
        z = rows[:, 0] + 1j * rows[:, 1]
        values = rows[:, 2] + 1j * rows[:, 3]
        return float(np.max(np.abs(values - hardy_lorentzian(c, t, z))))

    return _guard(op, f"{path.parent.name}/{path.name}", SCAN_TOL, fn)


def _torus_checks(p, outdir, records) -> list[Check]:
    oracle = torus_oracle(p["a"], p["b"])
    run = outdir / "solve-torus"
    names = ["initial_field.json"] + [
        f"{stem}_t{i:02d}.{ext}" for i in range(len(wl.TORUS_TIMES))
        for stem, ext in (("coeffs", "json"), ("coeffs", "csv"), ("solution", "csv"))]
    checks = [manifest_check(0, run, names)]
    for i, t in enumerate(wl.TORUS_TIMES):
        def coeff_err(i=i, t=t):
            data = json.loads((run / f"coeffs_t{i:02d}.json").read_text())
            if data["t"] != t:
                return None
            got = np.array([complex(re, im) for re, im in data["coeffs"][:ORACLE_K + 1]])
            return _rel(got, oracle[t][:ORACLE_K + 1])
        checks.append(_guard(0, f"coeffs t={t}", TORUS_TOL, coeff_err))

    # Pu(t, z) = sum_k c_k(t) z^k; the tail beyond k = 128 is below 0.5^128
    exact = [np.polyval(oracle[wl.DISC_T][::-1], z) for z in wl.disc_points()]
    scale = max(abs(v) for v in exact)
    for j, z in enumerate(wl.disc_points()):
        op = 2 + j
        def disc_err(op=op, j=j):
            value = complex(*records[op]["result"])
            return abs(value - exact[j]) / scale
        checks.append(_guard(op, f"evaluate_disc z[{j}]", TORUS_TOL, disc_err))
    return checks


def _line_checks(name, p, outdir) -> list[Check]:
    c = p["c"]
    if name == "line-reconstruct":
        run = outdir / "solve-line"
        return [manifest_check(0, run, ["initial_spectrum.csv", "solution_t00.csv"]),
                samples_check(0, run / "solution_t00.csv", wl.RECONSTRUCT_NX, c, wl.LINE_T)]
    checks = []
    for op, (label, t, nx, scan) in enumerate([
        ("solve-line-probe", wl.LINE_T, wl.PROBE_NX, wl.PROBE_SCAN),
        ("solve-line-t0", 0.0, wl.DEFAULT_NX, wl.README_SCAN),
    ]):
        run = outdir / label
        checks += [
            manifest_check(op, run, ["initial_spectrum.csv", "solution_t00.csv", "uhp_scan.csv"]),
            samples_check(op, run / "solution_t00.csv", nx, c, t),
            scan_check(op, run / "uhp_scan.csv", scan[2] * scan[5], c, t),
        ]
    return checks


def _crosscheck_checks(outdir) -> list[Check]:
    run = outdir / "compare"

    def compare_err():
        rows = _read_rows(run / "compare.csv")
        expected = [(t, n) for n in wl.COMPARE_N for t in wl.COMPARE_TIMES]
        if [(float(r[0]), int(r[1])) for r in rows] != expected:
            return None
        return max(float(r[3]) for r in rows)

    def validate_err():
        reports = json.loads((outdir / "validate" / "validation_report.json").read_text())["reports"]
        return 0.0 if reports and all(r["passed"] for r in reports) else None

    return [
        manifest_check(0, run, ["compare.csv"]),
        _guard(0, "compare rel_l2", COMPARE_TOL, compare_err),
        manifest_check(1, outdir / "validate", ["validation_report.json"]),
        _guard(1, "validate reports", 1.0, validate_err),
    ]


def check_iteration(name: str, p: dict, outdir: Path, records: list[dict]) -> list[Check]:
    """Every check of one iteration of workload ``name``."""
    if name == "torus-multitime":
        return _torus_checks(p, outdir, records)
    if name in ("line-reconstruct", "line-probe"):
        return _line_checks(name, p, outdir)
    return _crosscheck_checks(outdir)


def failed_ops(records: list[dict], checks: list[Check]) -> list[bool]:
    """An operation fails on an exception, a non-zero exit code or an oracle miss."""
    failed = [r["error"] is not None or (r["cli"] and r["result"] != 0) for r in records]
    for c in checks:
        if not c.passed:
            failed[c.op] = True
    return failed



def err_ratio(checks: list[Check]) -> float:
    """Worst error over tolerance among the checks that produced an error."""
    return max((c.err / c.tol for c in checks if c.err is not None), default=0.0)
