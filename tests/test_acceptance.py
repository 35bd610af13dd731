"""Acceptance battery: one test per criterion, stated tolerances pinned.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and asserts both the numeric tolerance and the runtime
budget for its criterion.
"""
import time

import numpy as np
import pytest
from scipy.integrate import quad

import boeq.checks as checks
from boeq.checks import (
    check_line_identities,
    check_torus_commutators,
    convergence_study,
)
from boeq.cli import main
from boeq.fileio import sha256_of
from boeq.line_operators import LineGrid, ResolventEvaluator
from boeq.line_solution import evaluate_uhp, reconstruct_line
from boeq.presets import line_preset, torus_preset
from boeq.spectral import TorusField, synthesize_torus
from boeq.timestepper import conserved_quantities, evolve
from boeq.torus_solution import evolve_coefficients, propagator, reconstruct_torus

from box_oracle import evolve_line_on_box

TWO_PI = 2.0 * np.pi


def _report(num, detail, elapsed, budget):
    print(f"ACCEPTANCE {num}: PASS ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


@pytest.fixture(scope="module")
def torus_run():
    """Shared N=128 reference run: u0 = cos x, dt = 2e-4, snapshots at 0.1k."""
    u0 = torus_preset("cos", 2)
    start = time.perf_counter()
    traj = evolve(u0, 1.0, 2e-4, 128, snapshot_every=500)
    fields = {}
    for t in (0.1, 0.5, 1.0):
        idx = int(np.argmin(np.abs(traj.times - t)))
        assert abs(traj.times[idx] - t) < 1e-12
        fields[t] = traj.fields[idx]
    return {"u0": u0, "traj": traj, "fields": fields,
            "elapsed": time.perf_counter() - start}


def test_criterion_1_formula_matches_solver(torus_run):
    """Torus: explicit reconstruction vs time stepper, rel L2 <= 1e-6."""
    start = time.perf_counter()
    u0 = torus_run["u0"]
    worst = 0.0
    for t, ref_field in torus_run["fields"].items():
        ref = synthesize_torus(ref_field.hardy, ref_field.mean, 512)
        mine = reconstruct_torus(propagator(u0, t, 128), n_samples=512)
        rel = np.linalg.norm(mine - ref) / np.linalg.norm(ref)
        assert rel <= 1e-6, (t, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start + torus_run["elapsed"]
    assert elapsed <= 60.0
    _report(1, f"max rel L2 {worst:.2e}", elapsed, 60)


def test_criterion_2_linear_phase_law():
    """Torus: |uhat(1, k) - a e^{ik^2}| <= 10 a^2 for a = 1e-3, k = 1..3."""
    start = time.perf_counter()
    a, t = 1e-3, 1.0
    worst = 0.0
    for k in (1, 2, 3):
        u0 = TorusField.from_modes(64, {k: a})  # 2a cos(kx)
        coeffs = evolve_coefficients(propagator(u0, t, 64), 4 * k)
        err = abs(coeffs[k] - a * np.exp(1j * k * k * t))
        assert err <= 10 * a * a, (k, err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    _report(2, f"max phase error {worst:.2e} vs 1e-5", elapsed, 5)


def test_criterion_3_finite_section_identities(rng):
    """Torus: Leibniz, shift commutator, bracket identity <= 1e-12 at N=64."""
    start = time.perf_counter()
    fields = {
        "cos": torus_preset("cos", 4, a=2.0),
        "random": TorusField.from_modes(
            6, {k: 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
                for k in range(1, 5)}),
    }
    worst = 0.0
    for label, u in fields.items():
        for rep in check_torus_commutators(u, 64, label=label):
            assert rep.passed and rep.residual <= 1e-12, (rep.name, rep.residual)
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    _report(3, f"max residual {worst:.2e}", elapsed, 5)


def test_criterion_4_lax_pair_dynamics():
    """Lax bracket drives the flow: FD residual, its dt-order, and the flow's
    invariants (isospectrality, mean, mass, energy) from one march."""
    start = time.perf_counter()
    cos1 = torus_preset("cos", 2)
    (rep,) = checks._lax_ladder(cos1, t=0.2, levels=[1e-3], n=128).run()
    assert rep.residual <= 1e-4, rep.residual
    rows = convergence_study(
        lambda dt: checks._lax_ladder(cos1, t=0.2, levels=[dt], n=128,
                                      tolerance=np.inf).run()[0].residual,
        levels=[1e-3, 5e-4, 2.5e-4],
    )
    orders = [r.observed_order for r in rows[1:]]
    assert all(1.7 <= o <= 2.3 for o in orders), orders
    invariants = checks._invariants(cos1, times=[0.25, 0.5, 0.75, 1.0], n=256,
                                    n_eigs=10, dt=1e-3).run()
    assert all(r.passed for r in invariants), [(r.name, r.residual) for r in invariants]
    iso = invariants[0]
    assert iso.name == "isospectrality" and iso.residual <= 1e-6, iso.residual
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _report(4, f"fd {rep.residual:.2e}, orders {[round(o, 2) for o in orders]}, "
               f"drift {iso.residual:.2e}", elapsed, 120)


def _cauchy_oracle(spectrum_fn, z):
    val = quad(lambda s: np.exp(1j * z * s) * complex(spectrum_fn(np.array([s]))[0]),
               0.0, 60.0, complex_func=True, limit=400)[0]
    return val / TWO_PI


def test_criterion_5_line_t0_representation():
    """Line at t=0: resolvent evaluation matches Cauchy quadrature to 1e-6."""
    start = time.perf_counter()
    grid = LineGrid(40.0, 0.02)
    worst = 0.0
    for name in ("lorentzian", "gaussian"):
        field = line_preset(name).field
        for z in (1j, 0.7 + 0.5j, -1.0 + 2.0j):
            oracle = _cauchy_oracle(field.spectrum_fn, z)
            val = evaluate_uhp(field, 0.0, z, grid)
            err = abs(val - oracle)
            assert err <= 1e-6, (name, z, err)
            worst = max(worst, err)
    point = abs(evaluate_uhp(line_preset("lorentzian", c=1.0).field, 0.0, 1j, grid) - 0.5)
    assert point <= 1e-6, point
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _report(5, f"max err {worst:.2e}, point check {point:.2e}", elapsed, 30)


def test_criterion_6_line_dynamics_vs_box_solver():
    """Line at t=0.5: lorentzian vs periodized box run, rel L2 <= 1e-3.

    The translation direction (rightward) was calibrated once against the
    stepper; see the solitary-wave regression in the stepper tests.
    """
    start = time.perf_counter()
    t = 0.5
    preset = line_preset("lorentzian", c=1.0)
    box = evolve_line_on_box(preset.u_of_x, t, half_width=150.0, n_modes=1024)
    window = np.abs(box.x) <= 20.0
    x_cmp = box.x[window]
    u_box = box.u[window]
    u_line = reconstruct_line(ResolventEvaluator(preset.field.hardy(LineGrid(40.0, 0.02)), t),
                              x_cmp, eps=1e-3, eps_refine=True)
    rel = np.linalg.norm(u_line - u_box) / np.linalg.norm(u_box)
    assert rel <= 1e-3, rel
    elapsed = time.perf_counter() - start
    assert elapsed <= 180.0
    _report(6, f"rel L2 {rel:.2e} over {x_cmp.size} points", elapsed, 180)


def test_criterion_7_line_operator_identities():
    """Line identities at O(h^2) with measured orders in [1.7, 2.3]."""
    start = time.perf_counter()
    field = line_preset("lorentzian", c=1.0).field
    levels = [0.08, 0.04, 0.02]
    per = {}
    for h in levels:
        for rep in check_line_identities(field, LineGrid(40.0, h), t=0.7):
            assert rep.passed, (h, rep.name, rep.residual, rep.tolerance)
            per.setdefault(rep.name, []).append(rep.residual)
    all_orders = {}
    for name, residuals in per.items():
        orders = [float(np.log2(residuals[i] / residuals[i + 1])) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders), (name, orders)
        all_orders[name] = [round(o, 2) for o in orders]
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _report(7, f"orders {all_orders}", elapsed, 120)


def test_criterion_8_conservation(torus_run):
    """Solver drifts (mean/L2/energy) and exact mean from the formula."""
    start = time.perf_counter()
    q0 = conserved_quantities(torus_run["traj"].fields[0])
    q1 = conserved_quantities(torus_run["traj"].final())
    mean_drift = abs(q1["mean"] - q0["mean"])
    l2_drift = abs(q1["l2sq"] - q0["l2sq"]) / q0["l2sq"]
    energy_drift = abs(q1["energy"] - q0["energy"]) / abs(q0["energy"])
    assert mean_drift <= 1e-12, mean_drift
    assert l2_drift <= 1e-9, l2_drift
    assert energy_drift <= 1e-8, energy_drift
    u0 = torus_run["u0"]
    mean_err = 0.0
    for t in (0.1, 0.5, 1.0):
        coeffs = evolve_coefficients(propagator(u0, t, 128))
        mean_err = max(mean_err, abs(coeffs[0] - u0.mean))
    assert mean_err <= 1e-10, mean_err
    elapsed = time.perf_counter() - start
    _report(8, f"drifts mean {mean_drift:.1e} l2 {l2_drift:.1e} "
               f"energy {energy_drift:.1e}, formula mean {mean_err:.1e}",
            elapsed, 120)


def test_criterion_9_determinism_and_exit_contract(tmp_path, monkeypatch):
    """cmd_validate: byte-identical reports; exit statuses 0/1/2 honored."""
    start = time.perf_counter()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["validate", "--out", str(out1)]) == 0
    assert main(["validate", "--out", str(out2)]) == 0
    h1 = sha256_of(out1 / "validation_report.json")
    h2 = sha256_of(out2 / "validation_report.json")
    assert h1 == h2
    # the explicit torus payload is the same with the eigensystem memo cold
    # and warm
    import boeq.torus_solution as ts

    monkeypatch.setattr(ts, "_eigen_memo", None)
    torus = ["solve-torus", "--preset", "twomode:a=1,b=0.5", "--n", "64",
             "--t", "0.1,0.5", "--method", "explicit", "--out"]
    hashes = []
    for run in ("cold", "warm"):
        assert main(torus + [str(tmp_path / run)]) == 0
        hashes.append({p.name: sha256_of(p) for p in sorted((tmp_path / run).iterdir())
                       if p.name != "manifest.json"})
    assert hashes[0] == hashes[1] and len(hashes[0]) == 7
    # usage/config error -> 2
    assert main(["validate", "--only", "no-such-check", "--out", str(tmp_path / "c")]) == 2
    # a failing check -> 1
    from boeq.checks import CheckReport

    def failing_suite(torus_n=64):
        return [CheckReport.from_residual("forced_failure", 1.0, 1e-6)]

    monkeypatch.setattr("boeq.cli.default_suite", failing_suite)
    assert main(["validate", "--out", str(tmp_path / "d")]) == 1
    elapsed = time.perf_counter() - start
    _report(9, f"report sha {h1[:12]}..., exit codes 0/1/2", elapsed, 120)
