import json

import numpy as np
import pytest

import boeq.checks as checks
from boeq.checks import (
    CheckReport,
    check_formula_isospectrality,
    check_line_identities,
    check_torus_commutators,
    convergence_study,
    SUITE_NAMES,
    check_periodic_wave,
    default_suite,
    formula_vs_solver,
)
from boeq.errors import ConfigurationError
from boeq.line_operators import (
    LineGrid,
    iplus,
    toeplitz_line,
)
from boeq.presets import line_preset, torus_preset
from boeq.spectral import TorusField
from boeq.timestepper import Run, evolve, march_runs
from boeq.torus_operators import lax_matrix
from boeq.torus_solution import evolve_coefficients, propagator

from conftest import step_counter, wave_datum


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

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_bracket_tolerance_follows_the_largest_product(self, n):
        # (L + I)^2 reaches about n^2, and the bracket rounds like eps times
        # it; the tolerance is that, floored at 1e-12, which it is at n = 64
        u = checks._random_band_field(8, 4, seed=7)
        bracket = check_torus_commutators(u, n, label="random")[2]
        assert bracket.passed
        if n == 64:
            assert bracket.tolerance == checks.FINITE_SECTION_TOL
        else:  # the largest product is the corner of (L + I)^2 S*, about n^2
            assert bracket.tolerance == pytest.approx(np.finfo(float).eps * n ** 2, rel=1e-3)

    @pytest.mark.parametrize("band", [0, 4])
    @pytest.mark.parametrize("n", [64, 256])
    def test_bracket_catches_a_seeded_b_fault(self, n, band, monkeypatch):
        # a 1e-10 relative change of one band of B_u from row n/2 on: a step
        # along the band, which the commutator with S* sees (a uniform
        # scaling of a whole band keeps B Toeplitz inside and is invisible)
        real = checks.b_matrix

        def faulty(u, size):
            b = np.array(real(u, size))
            k = np.arange(size // 2, size + 1 - band)
            b[k, k + band] *= 1.0 + 1e-10
            return b

        monkeypatch.setattr(checks, "b_matrix", faulty)
        u = checks._random_band_field(8, 4, seed=7)
        bracket = check_torus_commutators(u, n, label="random")[2]
        assert bracket.name == "torus_lax_bracket[random]"
        assert not bracket.passed


def lax_evolution(u0, t, dt, n, **kwargs):
    """The ``lax_evolution`` report of the one difference step dt."""
    (report,) = checks._lax_ladder(u0, t, [dt], n, **kwargs).run()
    return report


class TestLaxEvolution:
    def test_zero_field_exact(self):
        rep = lax_evolution(TorusField.zero(16), t=0.05, dt=1e-2, n=16)
        assert rep.residual == 0.0

    def test_constant_field_stationary(self):
        rep = lax_evolution(torus_preset("constant", 4, c=0.7), t=0.05, dt=1e-3, n=32)
        assert rep.residual < 1e-12

    def test_cos_residual_and_order(self):
        rep = lax_evolution(torus_preset("cos", 2), t=0.2, dt=1e-3, n=128)
        assert rep.passed and rep.residual <= 1e-4
        rows = convergence_study(
            lambda dt: lax_evolution(
                torus_preset("cos", 2), t=0.2, dt=dt, n=128, tolerance=np.inf
            ).residual,
            levels=[1e-3, 5e-4, 2.5e-4],
        )
        orders = [r.observed_order for r in rows[1:]]
        assert all(1.7 <= o <= 2.3 for o in orders)

    @pytest.mark.parametrize("t,dt", [(0.2, 1e-3), (0.2, 2.5e-4), (1e-3, 1e-3)])
    def test_stencil_fields_match_every_step_march(self, monkeypatch, t, dt):
        # u(t_mid - dt), u(t_mid), u(t_mid + dt) come from a march through
        # those three times only, and equal the fields of one march that
        # keeps every step, bit for bit
        u0, n = torus_preset("cos", 2), 128
        asked, seen = [], []

        def recording_march(runs):
            asked.extend(sorted(run.times) for run in runs)
            return march_runs(runs)

        def recording(u, size):
            seen.append(u)
            return lax_matrix(u, size)

        monkeypatch.setattr(checks, "march_runs", recording_march)
        monkeypatch.setattr(checks, "lax_matrix", recording)
        lax_evolution(u0, t=t, dt=dt, n=n)

        steps_mid = int(round(t / dt))
        assert asked == [pytest.approx([(steps_mid + j) * dt for j in (-1, 0, 1)])]
        every = evolve(u0, steps_mid * dt + dt, dt, n, snapshot_every=1).fields
        # lax_matrix reads u_plus, u_minus, then u_mid
        expected = [every[steps_mid + 1], every[steps_mid - 1], every[steps_mid]]
        assert len(seen) == 3
        for got, ref in zip(seen, expected):
            np.testing.assert_array_equal(got.coeffs, ref.coeffs)


class TestLaxLadder:
    def test_finest_level_is_the_single_level_check(self):
        u0 = torus_preset("cos", 2)
        ladder = checks._lax_ladder(u0, t=0.2, levels=[1e-3, 5e-4, 2.5e-4], n=128).run()
        single = lax_evolution(u0, t=0.2, dt=2.5e-4, n=128)
        assert ladder[-1].residual == single.residual
        assert [r.parameters["dt"] for r in ladder] == [1e-3, 5e-4, 2.5e-4]
        assert all(r.parameters["march_dt"] == 2.5e-4 for r in ladder)
        # the coarse levels read fields marched at the finest step, which
        # are closer to the flow than their own marches: only the O(dt^2)
        # differencing error is left
        own = lax_evolution(u0, t=0.2, dt=1e-3, n=128)
        assert ladder[0].residual == pytest.approx(own.residual, rel=1e-5)
        assert all(r.passed for r in ladder)

    def test_one_march_through_every_stencil_time(self, monkeypatch):
        marches = []
        real = checks.march_runs

        def recording(runs):
            marches.append([(u.max_mode, sorted(set(times)), dt) for u, times, dt in runs])
            return real(runs)

        monkeypatch.setattr(checks, "march_runs", recording)
        checks._lax_ladder(torus_preset("cos", 2), t=0.2, levels=[1e-3, 5e-4], n=128).run()
        assert len(marches) == 1 and len(marches[0]) == 1
        ((n, times, dt),) = marches[0]
        assert n == 128 and dt == 5e-4
        assert times == pytest.approx([0.199, 0.1995, 0.2, 0.2005, 0.201])

    def test_stencil_off_the_march_grid_is_refused(self):
        # 0.199 is no whole number of 3e-4 steps
        with pytest.raises(ConfigurationError, match="not on the grid"):
            checks._lax_ladder(torus_preset("cos", 2), t=0.2, levels=[1e-3, 3e-4], n=64).run()


INVARIANT_NAMES = ["isospectrality", "conservation_mean", "conservation_l2",
                   "conservation_energy"]


def suite_invariants():
    """The invariants request as default_suite makes it, by report name."""
    reports = checks._invariants(torus_preset("cos", 2), [0.5, 1.0], 256, n_eigs=10, dt=1e-3).run()
    return {r.name: r for r in reports}


class TestInvariants:
    def test_zero_field(self):
        reports = checks._invariants(TorusField.zero(16), [0.2], 16, n_eigs=5, dt=1e-2).run()
        assert [r.name for r in reports] == INVARIANT_NAMES
        assert all(r.residual < 1e-12 and r.passed for r in reports)

    def test_constant_shift(self):
        reports = checks._invariants(torus_preset("constant", 4, c=0.5), [0.1], 32,
                                     n_eigs=5, dt=1e-3).run()
        assert reports[0].residual < 1e-10
        assert all(r.passed for r in reports)

    def test_cos_drift_small(self):
        reports = checks._invariants(torus_preset("cos", 2), [0.25], 128, n_eigs=8, dt=1e-3).run()
        assert all(r.passed for r in reports)

    def test_suite_configuration(self):
        reports = suite_invariants()
        assert [r.tolerance for r in reports.values()] == [1e-6, 1e-12, 1e-9, 1e-8]
        assert all(r.passed for r in reports.values())
        assert reports["conservation_mean"].residual == 0.0  # the stepper keeps c_0 exactly
        for r in reports.values():
            assert r.parameters["n"] == 256 and r.parameters["dt"] == 1e-3
            assert r.parameters["times"] == [0.5, 1.0]

    def test_one_march_for_every_invariant(self, monkeypatch):
        calls = []
        real = checks.march_runs

        def counting(runs):
            calls.append([(u.max_mode, list(times), dt) for u, times, dt in runs])
            return real(runs)

        monkeypatch.setattr(checks, "march_runs", counting)
        checks._invariants(torus_preset("cos", 2), [0.5, 1.0], 32, dt=1e-2).run()
        assert calls == [[(32, [0.5, 1.0], 1e-2)]]

    def test_conservation_drift_is_largest_over_times(self, monkeypatch):
        # a march whose mass jumps at t = 0.5 and comes back by t = 1 must
        # fail: the drift is the worst over the times, not the last one
        real = checks.march_runs

        def bumped(runs):
            marched = real(runs)
            u = marched[0][0.5]
            marched[0][0.5] = TorusField(u.hardy * (1.0 + 1e-6))
            return marched

        monkeypatch.setattr(checks, "march_runs", bumped)
        reports = {r.name: r for r in checks._invariants(torus_preset("cos", 2), [0.5, 1.0], 32,
                                                         dt=1e-2).run()}
        assert not reports["conservation_l2"].passed
        assert not reports["conservation_energy"].passed

    def test_nan_drift_fails(self, monkeypatch):
        # a NaN at one time must not be dropped by taking the max over times
        real = checks.conserved_quantities
        seen = []

        def nan_energy_once(u):
            q = real(u)
            seen.append(q)
            if len(seen) == 2:  # the datum is first, then t = 0.5
                q["energy"] = np.nan
            return q

        monkeypatch.setattr(checks, "conserved_quantities", nan_energy_once)
        reports = {r.name: r for r in checks._invariants(torus_preset("cos", 2), [0.5, 1.0], 32,
                                                         dt=1e-2).run()}
        assert np.isnan(reports["conservation_energy"].residual)
        assert not reports["conservation_energy"].passed


class TestInvariantsCatchMutatedStepper:
    """Each conservation report fails for a stepper that breaks its law."""

    @staticmethod
    def _mutate(monkeypatch, e_half=None, nonlinear=None):
        import boeq.timestepper as ts

        class Mutated(ts._Stepper):
            def __init__(self, ns, dts):
                super().__init__(ns, dts)
                if e_half is not None:
                    self.e_half = self.e_half * e_half(np.arange(self.cut + 1), self.dt)
                    self.e_full = self.e_half * self.e_half

            def nonlinear(self, c, out=None):
                got = super().nonlinear(c, out)
                return got if nonlinear is None else nonlinear(got, c)

        monkeypatch.setattr(ts, "_Stepper", Mutated)

    def test_damped_linear_part_fails_l2_and_energy(self, monkeypatch):
        self._mutate(monkeypatch, e_half=lambda k, dt: np.exp(-1e-7 * k * k * dt / 2.0))
        reports = suite_invariants()
        assert not reports["conservation_l2"].passed
        assert not reports["conservation_energy"].passed

    def test_scaled_nonlinear_term_fails_energy(self, monkeypatch):
        self._mutate(monkeypatch, nonlinear=lambda out, c: out * (1.0 + 1e-6))
        reports = suite_invariants()
        assert reports["conservation_l2"].passed  # the mass law does not see the scale
        assert not reports["conservation_energy"].passed

    def test_leak_into_the_mean_fails_mean(self, monkeypatch):
        # -ik (u^2)_k vanishes at k = 0; a term that survives there moves
        # the mean, which the stepper otherwise keeps to the bit
        def leak(out, c):
            out = out.copy()
            out[:, 0] += 1e-9 * np.sum(np.abs(c) ** 2, axis=-1)
            return out

        self._mutate(monkeypatch, nonlinear=leak)
        reports = suite_invariants()
        assert not reports["conservation_mean"].passed


class TestSuiteCatchesMutatedStepper:
    """The stepper reports of ``default_suite`` fail for a broken stepper."""

    @staticmethod
    def _suite_with(monkeypatch, stepper):
        import boeq.timestepper as ts

        monkeypatch.setattr(ts, "_Stepper", stepper)
        return {r.name: r for r in default_suite()}

    def test_third_order_stepper_fails_temporal_order(self, monkeypatch):
        import boeq.timestepper as ts

        class Kutta3(ts._Stepper):
            """Kutta's third-order scheme in integrating-factor form."""

            def step(self, c):
                dt, eh, ef = self.dt, self.e_half, self.e_full
                k1 = self.nonlinear(c)
                k2 = self.nonlinear(eh * (c + 0.5 * dt * k1))
                k3 = self.nonlinear(ef * (c - dt * k1) + 2.0 * dt * eh * k2)
                return ef * c + (dt / 6.0) * (ef * k1 + 4.0 * eh * k2 + k3)

        report = self._suite_with(monkeypatch, Kutta3)["stepper_temporal_order"]
        assert not report.passed
        assert report.parameters["orders"][0] == pytest.approx(3.0, abs=0.1)

    def test_k3_for_k4_fails_temporal_order(self, monkeypatch):
        # k4 replaced by k3 in the final combination: first order
        import boeq.timestepper as ts

        class NoK4(ts._Stepper):
            def step(self, c):
                dt, eh, ef = self.dt, self.e_half, self.e_full
                k1 = self.nonlinear(c)
                k2 = self.nonlinear(eh * (c + 0.5 * dt * k1))
                k3 = self.nonlinear(eh * c + 0.5 * dt * k2)
                return ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k3)

        assert not self._suite_with(monkeypatch, NoK4)["stepper_temporal_order"].passed

    def test_scaled_nonlinear_term_fails_lax_evolution(self, monkeypatch):
        import boeq.timestepper as ts

        class Scaled(ts._Stepper):
            def nonlinear(self, c, out=None):
                return super().nonlinear(c, out) * (1.0 + 1e-3)

        assert not self._suite_with(monkeypatch, Scaled)["lax_evolution"].passed

    def test_formula_drifting_from_the_stepper_fails_temporal_order(self, monkeypatch):
        # the reference is the formula: a coefficient error of 1e-8 puts a
        # floor under both levels of the ladder
        real = checks.evolve_coefficients
        monkeypatch.setattr(checks, "evolve_coefficients",
                            lambda prop, *a: real(prop, *a) * (1.0 + 1e-8))
        rows = checks._stepper_temporal_study(torus_preset("cos", 2), 0.5, 64, [4e-3, 2e-3]).run()
        assert not checks._order_report("stepper_temporal_order", rows, 4.0, 0.3).passed


def march_one(u0, times, dt, n):
    """``march_runs`` of the one field u0 at truncation n; its dict of times."""
    (at,) = march_runs([Run(u0.truncated(n), times, dt)])
    return at


class TestMarchTimes:
    def test_both_sides_of_zero_in_one_march(self, monkeypatch):
        steps = step_counter(monkeypatch)
        u0 = torus_preset("cos", 32)
        fields = march_one(u0, [0.02, -0.01, 0.01, 0.02, 0.0], 1e-3, 32)
        assert sorted(fields) == [-0.01, 0.0, 0.01, 0.02]
        # one row per side: 0 -> 0.01 -> 0.02 forward in 20 steps and
        # 0 -> -0.01 backward in 10, the backward row leaving after 10
        assert steps == [(2, (1e-3, -1e-3))] * 10 + [(1, (1e-3,))] * 10

    def test_grid_times_match_one_march_bitwise(self):
        u0 = torus_preset("twomode", 32, a=1.0, b=0.5)
        fields = march_one(u0, [0.05, 0.02, -0.03], 1e-3, 32)
        for t in (0.05, 0.02, -0.03):
            np.testing.assert_array_equal(fields[t].coeffs, evolve(u0, t, 1e-3, 32).final().coeffs)

    def test_off_grid_times_match_one_march_bitwise(self):
        # each time gets evolve's own whole steps plus its partial step, and
        # the march goes on from the whole-step field, not the partial one
        u0 = torus_preset("twomode", 32, a=1.0, b=0.5)
        times = [0.0105, 0.0237, 0.024, -0.0042, -0.011]
        fields = march_one(u0, times, 1e-3, 32)
        for t in times:
            np.testing.assert_array_equal(fields[t].coeffs, evolve(u0, t, 1e-3, 32).final().coeffs)

    def test_late_segment_is_one_whole_step(self):
        # 16.002 - 16.001 rounds below one step at dt = 1e-3; the march
        # must still land on the bits of one evolve from t = 0
        u0 = torus_preset("cos", 4)
        fields = march_one(u0, [16.001, 16.002], 1e-3, 4)
        np.testing.assert_array_equal(fields[16.002].coeffs,
                                      evolve(u0, 16.002, 1e-3, 4).final().coeffs)


class TestMarchStack:
    NS = (32, 48)

    @pytest.fixture(scope="class")
    def fields(self):
        return [torus_preset("twomode", n, a=1.0, b=0.5) for n in self.NS]

    def test_rows_match_their_own_march(self, fields):
        # bit for bit for the largest truncation, to rounding for the others
        times = [0.0105, 0.02, -0.011, 0.0]
        stacked = march_runs([Run(u, times, 1e-3) for u in fields])
        for u0, got in zip(fields, stacked):
            alone = march_one(u0, times, 1e-3, u0.max_mode)
            assert sorted(got) == sorted(alone)
            for t in times:
                if u0.max_mode == max(self.NS):
                    np.testing.assert_array_equal(got[t].coeffs, alone[t].coeffs)
                else:
                    gap = np.max(np.abs(got[t].coeffs - alone[t].coeffs))
                    assert gap <= 1e-15 * np.max(np.abs(alone[t].coeffs))

    def test_one_stacked_march_per_side(self, fields, monkeypatch):
        steps = step_counter(monkeypatch)
        march_runs([Run(u, [0.02, 0.01], 1e-3) for u in fields])
        assert steps == [(2, (1e-3, 1e-3))] * 20

    def test_stacked_formula_vs_solver_matches_per_truncation(self, fields):
        times = [0.03, 0.01]
        table = formula_vs_solver(fields, times, 5e-4, 128)
        for u0, rels in zip(fields, table):
            alone = formula_vs_solver([u0], times, 5e-4, 128)[0]
            if u0.max_mode == max(self.NS):
                assert rels == alone
            else:
                np.testing.assert_allclose(rels, alone, rtol=0, atol=1e-14)

    def test_empty_stack(self):
        assert march_runs([]) == []
        assert formula_vs_solver([], [0.1], 1e-3) == []


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


class TestPeriodicWaveCheck:
    """``periodic_wave``: the formula against Benjamin's closed form."""

    Q, B, N = 0.5, 0.2, 64

    def test_preset_wave_passes(self):
        report = check_periodic_wave(torus_preset("wave", self.N, q=self.Q, b=self.B), self.Q, self.B)
        assert report.passed and report.residual <= 1e-14
        assert report.parameters["times"] == [0.5, 2.0]

    @pytest.mark.parametrize("amplitude, mean", [(0.9, 0.2), (1.0, 0.25)],
                             ids=["amplitude-off", "mean-off"])
    def test_datum_off_the_wave_fails(self, amplitude, mean):
        # 0.9 times the wave, or the wave with a wrong mean, is not the
        # wave of (q, b): the formula moves it away from the closed form
        report = check_periodic_wave(wave_datum(self.Q, mean, self.N, amplitude), self.Q, self.B)
        assert not report.passed and report.residual > 1e-3


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


def dense_line_residuals(u0, grid, t, gw):
    """The four line residuals of ``check_line_identities``, recomputed from
    the dense weighted generator ``gw`` and Toeplitz matrices."""
    n, h, xi, sw = grid.count, grid.step, grid.xi, grid.sqrt_weights
    inner = slice(2, n - 2)
    samples = u0.hardy(grid)
    hardy = samples.values
    tw = toeplitz_line(samples)
    t_disp = toeplitz_line(grid.spectrum(xi * hardy))  # the kernel of |D|u

    def flow(g, conv, conv_disp):
        lax = lambda v: xi * v - conv @ v
        b_op = lambda v: 1j * (conv_disp @ v - conv @ (conv @ v))
        l2 = lambda v: lax(lax(v))
        return (gw @ b_op(g) - b_op(gw @ g) + 2.0 * lax(g)
                - 1j * (l2(gw @ g) - gw @ l2(g)))

    zero = np.zeros_like(tw)
    res = np.zeros(4)
    for raw in (np.exp(-(xi - 10.0) ** 2), np.exp(-xi)):
        g = sw * raw.astype(np.complex128)
        f0 = iplus(grid.spectrum(raw))
        r_gd = gw @ (xi * g) - xi * (gw @ g) - 1j * g
        r_tb = gw @ (tw @ g) - tw @ (gw @ g) - (1j / (2 * np.pi)) * f0 * (sw * hardy)
        r_flow = flow(g, tw, t_disp) - flow(g, zero, zero)
        a_g = -1j * (gw @ g - 2.0 * t * (xi * g))
        quad = h / (2 * np.pi) * float(np.real(np.vdot(g, a_g)))
        norm_sq = h / (2 * np.pi) * float(np.real(np.vdot(g, g)))
        diss = abs(quad + abs(f0) ** 2 / (4 * np.pi)) / norm_sq
        res = np.maximum(res, [np.max(np.abs(r[inner])) for r in (r_gd, r_tb, r_flow)] + [diss])
    return res


class TestLineResidualsAgainstDense:
    @pytest.mark.parametrize("field", [
        line_preset("lorentzian", c=1.0).field,
        line_preset("gaussian", a=1.0, w=1.0).field,
    ], ids=["lorentzian", "gaussian"])
    def test_matrix_free_residuals_match_dense_reference(self, field, dense_generator):
        # the C h^2 envelopes are loose enough to pass a wrong circulant wrap
        # or a wrong stencil row; the dense reference is not
        grid = LineGrid(40.0, 0.08)
        got = [r.residual for r in check_line_identities(field, grid, t=0.7)]
        want = dense_line_residuals(field, grid, 0.7, dense_generator(grid))
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)


class TestStudiesAndSuite:
    def test_stepper_order_study_marches_one_reference(self, monkeypatch):
        # the reference is the explicit formula, built once for the ladder;
        # the stepper runs only the ladder's own levels
        dts, refs = [], []

        def counting(runs):
            dts.extend(run.dt for run in runs)
            return march_runs(runs)

        def counting_propagator(*args, **kwargs):
            refs.append(args)
            return propagator(*args, **kwargs)

        monkeypatch.setattr(checks, "march_runs", counting)
        monkeypatch.setattr(checks, "propagator", counting_propagator)
        levels = [4e-3, 2e-3]
        rows = checks._stepper_temporal_study(torus_preset("cos", 2), 0.5, 64, levels).run()
        assert dts == [4e-3, 2e-3]
        assert len(refs) == 1
        assert 3.7 <= rows[1].observed_order <= 4.3

    def test_convergence_study_shape(self):
        rows = convergence_study(lambda lv: lv ** 2, levels=[0.4, 0.2, 0.1])
        assert rows[0].observed_order is None
        assert rows[1].observed_order == pytest.approx(2.0)
        assert rows[2].observed_order == pytest.approx(2.0)

    def test_formula_vs_solver_small(self):
        [[rel]] = formula_vs_solver([torus_preset("cos", 48)], [0.2], 5e-4)
        assert rel < 1e-6

    def test_report_serialization(self):
        rep = CheckReport.from_residual("demo", 1e-3, 1e-2, n=4)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["passed"] is True
        assert data["parameters"]["n"] == 4

    def test_truncation_error_decreases_with_n_to_solver_floor(self):
        # study over N: the formula-vs-solver distance falls monotonically
        # (within a machine-level floor) as the truncation grows
        table = formula_vs_solver([torus_preset("cos", n) for n in (16, 24, 32, 48)], [0.3], 5e-4)
        residuals = [rels[0] for rels in table]
        floor = 1e-11
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + floor, residuals
        assert residuals[-1] < 1e-8

    def test_margin_residual_does_not_grow_with_n(self):
        u = torus_preset("cos", 4, a=2.0)
        res64 = max(r.residual for r in check_torus_commutators(u, 64))
        res96 = max(r.residual for r in check_torus_commutators(u, 96))
        assert res96 <= res64 + 1e-14

    def test_default_suite_step_count(self, monkeypatch):
        # every stepper step of the suite, counted where the stepper takes
        # it: one lockstep march of five rows, the longest 1 000 steps, the
        # rows 804 + 1 000 + 600 + 125 + 250 steps in all
        steps = step_counter(monkeypatch)
        names = [r.name for r in default_suite()]
        assert len(steps) == 1000
        assert sum(rows for rows, _ in steps) == 2779
        assert steps[0] == (5, (1e-3, 2.5e-4, 5e-4, 2e-3, 4e-3))
        assert len(names) == len(set(names)) == 27
        for name in INVARIANT_NAMES:
            assert name in names

    def test_suite_names_are_known_before_it_runs(self):
        assert list(SUITE_NAMES) == [r.name for r in default_suite()]

    def test_default_suite_passes_and_is_deterministic(self):
        first = [r.to_dict() for r in default_suite()]
        assert all(r["passed"] for r in first), [
            (r["name"], r["residual"], r["tolerance"]) for r in first if not r["passed"]
        ]
        second = [r.to_dict() for r in default_suite()]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
