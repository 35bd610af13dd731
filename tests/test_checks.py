import json

import numpy as np
import pytest

from boeq.checks import (
    CheckReport,
    check_formula_isospectrality,
    check_isospectrality,
    check_lax_evolution,
    check_line_identities,
    check_torus_commutators,
    convergence_study,
    default_suite,
    formula_vs_solver,
    march_times,
    run_study,
)
from boeq.errors import ConfigurationError
from boeq.line_operators import LineGrid
from boeq.presets import line_preset, torus_preset
from boeq.spectral import TorusField
from boeq.timestepper import evolve
from boeq.torus_solution import evolve_coefficients, propagator


class TestTorusCommutators:
    def test_zero_field_exact(self):
        for rep in check_torus_commutators(TorusField.zero(16), 16, label="zero"):
            assert rep.residual == 0.0
            assert rep.passed

    def test_cos_preset(self):
        reports = check_torus_commutators(torus_preset("cos", 4, a=2.0), 64)
        assert all(r.passed for r in reports)
        assert max(r.residual for r in reports) <= 1e-13

    def test_random_band_limited(self, rng):
        modes = {k: 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
                 for k in range(1, 5)}
        u = TorusField.from_modes(6, modes)
        reports = check_torus_commutators(u, 64)
        assert all(r.passed for r in reports)

    def test_insufficient_margin_raises(self):
        u = torus_preset("cos", 4, a=2.0)
        with pytest.raises(ConfigurationError, match="n >="):
            check_torus_commutators(u, 6)


class TestLaxEvolution:
    def test_zero_field_exact(self):
        rep = check_lax_evolution(TorusField.zero(16), t=0.05, dt=1e-2, n=16)
        assert rep.residual == 0.0

    def test_constant_field_stationary(self):
        rep = check_lax_evolution(torus_preset("constant", 4, c=0.7), t=0.05, dt=1e-3, n=32)
        assert rep.residual < 1e-12

    def test_cos_residual_and_order(self):
        rep = check_lax_evolution(torus_preset("cos", 2), t=0.2, dt=1e-3, n=128)
        assert rep.passed and rep.residual <= 1e-4
        rows = convergence_study(
            lambda dt: check_lax_evolution(
                torus_preset("cos", 2), t=0.2, dt=dt, n=128, tolerance=np.inf
            ).residual,
            levels=[1e-3, 5e-4, 2.5e-4],
        )
        orders = [r.observed_order for r in rows[1:]]
        assert all(1.7 <= o <= 2.3 for o in orders)


class TestIsospectrality:
    def test_zero_field(self):
        rep = check_isospectrality(TorusField.zero(16), [0.2], 16, n_eigs=5, dt=1e-2)
        assert rep.residual < 1e-12

    def test_constant_shift(self):
        rep = check_isospectrality(torus_preset("constant", 4, c=0.5), [0.1], 32,
                                   n_eigs=5, dt=1e-3)
        assert rep.residual < 1e-10

    def test_cos_drift_small(self):
        rep = check_isospectrality(torus_preset("cos", 2), [0.25], 128, n_eigs=8, dt=1e-3)
        assert rep.passed


class TestMarchTimes:
    def test_one_segment_per_distinct_time_on_each_side(self, monkeypatch):
        import boeq.checks

        calls = []
        real_evolve = boeq.checks.evolve

        def counting(u0, t_final, dt, n=None, **kw):
            calls.append(t_final)
            return real_evolve(u0, t_final, dt, n, **kw)

        monkeypatch.setattr(boeq.checks, "evolve", counting)
        u0 = torus_preset("cos", 32)
        fields = march_times(u0, [0.02, -0.01, 0.01, 0.02, 0.0], 1e-3, 32)
        assert sorted(fields) == [-0.01, 0.0, 0.01, 0.02]
        # 0 -> 0 -> 0.01 -> 0.02 forward, then 0 -> -0.01 backward
        assert calls == pytest.approx([0.0, 0.01, 0.01, -0.01])

    def test_grid_times_match_one_march_bitwise(self):
        u0 = torus_preset("twomode", 32, a=1.0, b=0.5)
        fields = march_times(u0, [0.05, 0.02, -0.03], 1e-3, 32)
        for t in (0.05, 0.02, -0.03):
            np.testing.assert_array_equal(fields[t].coeffs, evolve(u0, t, 1e-3, 32).final().coeffs)


class TestFormulaIsospectrality:
    @pytest.fixture(scope="class")
    def formula(self):
        u0 = torus_preset("cos", 2)
        return u0, evolve_coefficients(propagator(u0, 1.0, 64))

    def test_formula_output_passes(self, formula):
        u0, coeffs = formula
        rep = check_formula_isospectrality(u0, coeffs, n=64)
        assert rep.passed
        assert rep.residual < 1e-12

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_perturbed_coefficient_fails(self, formula, k):
        u0, coeffs = formula
        bad = coeffs.copy()
        bad[k] += 1e-6
        assert not check_formula_isospectrality(u0, bad, n=64).passed


class TestLineIdentities:
    def test_zero_field_flow_bracket_exactly_zero(self):
        zero = line_preset("zero").field
        reports = {r.name: r for r in check_line_identities(zero, LineGrid(40.0, 0.05))}
        assert reports["line_flow_bracket"].residual == 0.0
        assert reports["line_toeplitz_bracket"].residual == 0.0

    def test_lorentzian_default_constants(self):
        reports = check_line_identities(line_preset("lorentzian").field, LineGrid(40.0, 0.04))
        assert all(r.passed for r in reports)

    def test_orders_near_two(self):
        per = {}
        for h in (0.08, 0.04, 0.02):
            reps = check_line_identities(line_preset("lorentzian").field, LineGrid(40.0, h))
            for r in reps:
                per.setdefault(r.name, []).append(r.residual)
        for name, residuals in per.items():
            orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
            assert all(1.7 <= o <= 2.3 for o in orders), (name, orders)


class TestStudiesAndSuite:
    def test_named_study_dispatch(self):
        rows = run_study("lax_evolution", levels=[1e-3, 5e-4], t=0.2, n=128)
        assert rows[1].observed_order == pytest.approx(2.0, abs=0.3)
        rows = run_study("line_gd", levels=[0.08, 0.04])
        assert rows[1].observed_order == pytest.approx(2.0, abs=0.3)
        rows = run_study("stepper_order", levels=[4e-3, 2e-3], t=0.5, n=64)
        assert 3.7 <= rows[1].observed_order <= 4.3

    def test_unknown_study_rejected(self):
        with pytest.raises(ConfigurationError):
            run_study("no-such-check", levels=[0.1])

    def test_convergence_study_shape(self):
        rows = convergence_study(lambda lv: lv ** 2, levels=[0.4, 0.2, 0.1])
        assert rows[0].observed_order is None
        assert rows[1].observed_order == pytest.approx(2.0)
        assert rows[2].observed_order == pytest.approx(2.0)

    def test_formula_vs_solver_small(self):
        rel = formula_vs_solver(torus_preset("cos", 2), t=0.2, n=48, dt=5e-4)
        assert rel < 1e-6

    def test_report_serialization(self):
        rep = CheckReport.from_residual("demo", 1e-3, 1e-2, n=4)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["passed"] is True
        assert data["parameters"]["n"] == 4

    def test_truncation_error_decreases_with_n_to_solver_floor(self):
        # study over N: the formula-vs-solver distance falls monotonically
        # (within a machine-level floor) as the truncation grows
        u0 = torus_preset("cos", 2)
        residuals = [formula_vs_solver(u0, t=0.3, n=n, dt=5e-4) for n in (16, 24, 32, 48)]
        floor = 1e-11
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + floor, residuals
        assert residuals[-1] < 1e-8

    def test_margin_residual_does_not_grow_with_n(self):
        u = torus_preset("cos", 4, a=2.0)
        res64 = max(r.residual for r in check_torus_commutators(u, 64))
        res96 = max(r.residual for r in check_torus_commutators(u, 96))
        assert res96 <= res64 + 1e-14

    def test_default_suite_passes_and_is_deterministic(self):
        first = [r.to_dict() for r in default_suite()]
        assert all(r["passed"] for r in first), [
            (r["name"], r["residual"], r["tolerance"]) for r in first if not r["passed"]
        ]
        second = [r.to_dict() for r in default_suite()]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
