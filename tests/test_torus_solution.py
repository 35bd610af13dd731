from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from boeq.errors import ConditioningError, DomainError, LinearAlgebraError, TruncationWarning
from boeq.spectral import (
    TWO_PI,
    TorusField,
    hermitian_evolution,
    synthesize_torus,
)
from boeq.timestepper import evolve
from boeq.torus_operators import lax_matrix, shift_adjoint
from boeq.torus_solution import (
    evaluate_disc,
    evolve_coefficients,
    propagator,
)

from conftest import rel_l2, wave_datum, wave_hardy, wave_speed


def cos_field(n=64, a=1.0):
    return TorusField.from_modes(n, {1: a / 2.0})


def standard_step(u0, t, n):
    """Reference standard-basis step operator M = e^{it} exp(2itL_{u0}) S*,
    built densely from its own eigendecomposition."""
    u_t = hermitian_evolution(lax_matrix(u0, n), 2.0 * t)
    return np.exp(1j * t) * (u_t @ shift_adjoint(n))


def in_standard_basis(prop):
    """V (step operator) V*: the propagator's M in the standard basis."""
    v = prop.eigenvectors
    return v @ prop.matrix @ v.conj().T


class TestPropagator:
    def test_zero_field_matrix_is_phased_shift(self):
        t = 0.37
        prop = propagator(TorusField.zero(6), t, 6)
        expected = np.zeros((7, 7), complex)
        j = np.arange(6)
        expected[j, j + 1] = np.exp(1j * t * (2 * j + 1))
        np.testing.assert_allclose(prop.matrix, expected, atol=1e-14)

    def test_t_zero_matrix_is_shift(self):
        prop = propagator(cos_field(8), 0.0, 8)
        np.testing.assert_allclose(in_standard_basis(prop), shift_adjoint(8), atol=1e-14)

    def test_norm_preserved_up_to_shift(self, rng):
        # ||M V w|| = ||S* V w|| for eigenbasis coordinates w
        prop = propagator(cos_field(16), 0.9, 16)
        s = shift_adjoint(16)
        for _ in range(5):
            w = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            shifted = s @ (prop.eigenvectors @ w)
            assert abs(np.linalg.norm(prop.matrix @ w) - np.linalg.norm(shifted)) < 1e-10

    def test_huge_time_fails_phase_check(self):
        # 2t lambda overflows: no NaN step operator is formed
        with pytest.raises(ConditioningError, match="phases"):
            propagator(cos_field(16), 1e308, 16)


class TestEigenMemo:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        import boeq.spectral
        import boeq.torus_solution as ts

        calls = []
        real = boeq.spectral.eigen_system

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(ts, "_eigen_memo", None)
        monkeypatch.setattr(boeq.spectral, "eigen_system", counted)
        return calls

    def test_one_eigensystem_for_three_times(self, eigh_calls, monkeypatch):
        from boeq.spectral import EigenSystem

        formed = []  # the eigenbasis coordinates formed: W and w0, once each
        real = EigenSystem.coordinates

        def counted(self, b, refine=False):
            formed.append((np.shape(b), refine))
            return real(self, b, refine)

        monkeypatch.setattr(EigenSystem, "coordinates", counted)
        u = cos_field(16)
        props = [propagator(u, t, 16) for t in (0.1, 0.5, 1.0)]
        assert eigh_calls == [17]
        assert formed == [((17, 17), False), ((17,), True)]
        assert all(p.eigenvectors is props[0].eigenvectors and p.w0 is props[0].w0
                   for p in props)
        for prop in props:
            np.testing.assert_allclose(in_standard_basis(prop), standard_step(u, prop.t, 16),
                                       atol=1e-13)

    def test_changed_datum_or_truncation_recomputes(self, eigh_calls):
        u = cos_field(16)
        hardy = u.hardy.copy()
        hardy[2] = 1e-9
        propagator(u, 0.5, 16)
        propagator(TorusField(hardy), 0.5, 16)
        propagator(u, 0.5, 16)
        propagator(u, 0.5, 12)
        assert eigh_calls == [17, 17, 17, 13]

    def test_one_eigensystem_for_two_truncations_of_a_datum(self, eigh_calls):
        # L_{u0} at n depends only on the Hardy half of u0 at truncation n
        u = TorusField.from_modes(2, {1: 0.5})
        props = [propagator(v, 0.5, 16) for v in (u, u.truncated(16), u.truncated(8))]
        assert eigh_calls == [17]
        assert all(p.w0 is props[0].w0 for p in props)

    def test_reuse_warns_as_the_first_call(self, eigh_calls):
        # a mode beyond +-2n is ignored with a warning, also when the
        # eigensystem comes from the memo
        import warnings

        u = TorusField.from_modes(40, {1: 0.5, 40: 1e-3})
        for t in (0.1, 0.5):
            with pytest.warns(TruncationWarning, match=r"beyond \+-32"):
                propagator(u, t, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            propagator(u.truncated(16), 1.0, 16)
        assert eigh_calls == [17]

    def test_default_suite_factors_each_lax_matrix_once(self, eigh_calls):
        from boeq.checks import default_suite

        default_suite()
        assert len(eigh_calls) == 2

    def test_matrix_is_phased_evolution_times_shift(self):
        # V* M V = e^{it} e^{2it Lambda} V* S* V for M = e^{it} V e^{2it Lambda} V* S*
        import boeq.torus_solution as ts

        u = cos_field(16)
        prop = propagator(u, 0.9, 16)
        lam = ts._lax_eigensystem(u, 16).system.eigenvalues
        v = prop.eigenvectors
        step = v.conj().T @ (shift_adjoint(16) @ v)
        expected = (np.exp(0.9j) * np.exp(1.8j * lam))[:, None] * step
        np.testing.assert_allclose(prop.matrix, expected, rtol=0, atol=1e-15)

    def test_propagator_holds_one_step_operator(self):
        from dataclasses import fields

        from boeq.torus_solution import TorusPropagator

        assert [f.name for f in fields(TorusPropagator)] == [
            "t", "p0", "matrix", "eigenvectors", "w0"]
        prop = propagator(cos_field(16), 0.9, 16)
        assert prop.matrix.shape == prop.eigenvectors.shape == (17, 17)
        # the shared factors cannot be changed through one propagator
        assert not prop.eigenvectors.flags.writeable and not prop.w0.flags.writeable
        np.testing.assert_allclose(prop.eigenvectors @ prop.w0, prop.p0, rtol=0, atol=1e-15)

    def test_corrupted_step_operator_fails_residual_check(self, corrupt_next_step_operator):
        u = cos_field(16)
        corrupt_next_step_operator(u, 16)
        with pytest.raises(LinearAlgebraError, match="eigenbasis coordinates residual"):
            propagator(u, 0.5, 16)


class TestCoefficients:
    def test_constant_field(self):
        u = TorusField.from_modes(8, {0: 1.3})
        coeffs = evolve_coefficients(propagator(u, 0.8, 8), 4)
        assert coeffs[0] == pytest.approx(1.3)
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_zero_field(self):
        coeffs = evolve_coefficients(propagator(TorusField.zero(8), 1.0, 8), 4)
        assert np.all(coeffs == 0)

    def test_linear_regime_phase_law(self):
        # linearization gives uhat(t, k) = a e^{i k^2 t} with remainder below
        # O(a^2); the quadratic correction lands on modes 0 and 2k, so mode k
        # itself is clean to cubic order (halving a scales the error by 8)
        t, k = 1.0, 1
        errs = []
        for a in (2e-3, 1e-3):
            u = TorusField.from_modes(64, {k: a})
            coeffs = evolve_coefficients(propagator(u, t, 64), 8)
            err = abs(coeffs[k] - a * np.exp(1j * k * k * t))
            assert err < 10 * a * a
            errs.append(err)
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.3)

    def test_mean_component_constant(self):
        # c_0 is the only carrier of the mean, to the bit: synthesis and the
        # solution files read it from uhat(t, 0)
        u = TorusField.from_modes(32, {0: 1.0 / 3.0, 1: 0.4, 2: 0.1 - 0.2j})
        for t in (0.1, 0.7, 2.0, -1.3):
            coeffs = evolve_coefficients(propagator(u, t, 32))
            assert coeffs[0] == u.mean and coeffs[0].imag == 0.0

    def test_truncation_warning_when_headroom_exhausted(self):
        from boeq.errors import TruncationWarning

        # broad spectrum at a tiny truncation: the iterate keeps visible
        # mass next to the edge and the guard fires
        u = TorusField.from_modes(16, {k: 0.4 / k for k in range(1, 13)})
        prop = propagator(u, 0.8, 16)
        with pytest.warns(TruncationWarning):
            evolve_coefficients(prop, 16)


class TestPeriodicWave:
    """Benjamin's periodic travelling wave, an exact solution at every t.

    Hardy coefficients (b, q, q^2, ...) travel as uhat(t, k) = q^k e^{-ikct}
    with c = 2b - 1 + 2q^2 / (1 - q^2); at N = 128 the truncation leaves
    q^N <= 2e-20.
    """

    N = 128
    CASES = [(0.3, 0.0), (0.5, 0.2), (0.7, -0.4)]

    def _errors(self, q, b, t, c, amplitude=1.0):
        """Relative errors of the coefficients 0..N/2 and of Pu(t, 0.5i)
        against the wave of amplitude ``amplitude`` moving at speed c."""
        prop = propagator(wave_datum(q, b, self.N, amplitude), t, self.N)
        exact = wave_hardy(q, b, t, c, self.N // 2, amplitude)
        got = evolve_coefficients(prop)
        z = 0.5j * q * np.exp(-1j * c * t)
        exact_z = b + amplitude * z / (1.0 - z)
        return (np.linalg.norm(got - exact) / np.linalg.norm(exact),
                abs(evaluate_disc(prop, 0.5j) - exact_z) / abs(exact_z))

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("q, b", CASES)
    def test_formula_matches_travelling_wave(self, q, b, t):
        assert max(self._errors(q, b, t, wave_speed(q, b))) <= 1e-13

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("q, b", CASES)
    def test_oracle_rejects_a_scaled_wave(self, q, b, t):
        # 0.9 times the wave is no travelling wave: both values miss
        assert min(self._errors(q, b, t, wave_speed(q, b), amplitude=0.9)) > 1e-3

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("q, b", [case for case in CASES if case[1] != 0.0])
    def test_oracle_rejects_speed_without_mean_term(self, q, b, t):
        assert min(self._errors(q, b, t, wave_speed(q, b) - 2.0 * b)) > 1e-2


class TestEvaluateDisc:
    def test_center_value_is_conserved_mean(self):
        u = TorusField.from_modes(16, {0: 0.4, 1: 0.3})
        prop = propagator(u, 0.6, 16)
        assert evaluate_disc(prop, 0.0) == pytest.approx(0.4)

    def test_zero_field(self):
        prop = propagator(TorusField.zero(8), 0.5, 8)
        assert evaluate_disc(prop, 0.2 + 0.1j) == 0.0

    def test_taylor_consistency_with_coefficients(self):
        prop = propagator(cos_field(32), 0.4, 32)
        coeffs = evolve_coefficients(prop, 4)
        h = 1e-5
        fd = (evaluate_disc(prop, h) - evaluate_disc(prop, 0.0)) / h
        assert abs(fd - coeffs[1]) < 5e-5 * max(1.0, abs(coeffs[1]))

    def test_power_series_tail_bound(self):
        prop = propagator(cos_field(32), 0.7, 32)
        k_top = 16
        coeffs = evolve_coefficients(prop, k_top)
        p0_norm = np.linalg.norm(prop.p0)
        for z in (0.5, 0.3 + 0.4j, -0.25j):
            partial = sum(coeffs[k] * z ** k for k in range(k_top + 1))
            bound = 2.0 * abs(z) ** (k_top + 1) * p0_norm
            assert abs(evaluate_disc(prop, z) - partial) <= bound + 1e-12

    def test_outside_disc_rejected(self):
        prop = propagator(cos_field(8), 0.1, 8)
        with pytest.raises(DomainError):
            evaluate_disc(prop, 1.0)
        with pytest.raises(DomainError):
            evaluate_disc(prop, 1.2j)

    @pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.1, np.nan), np.nan,
                                   complex(np.inf, 0.0)])
    def test_non_finite_point_rejected(self, z):
        prop = propagator(cos_field(8), 0.1, 8)
        with pytest.raises(DomainError):
            evaluate_disc(prop, z)

    def test_nan_step_operator_fails_finite_check(self):
        # a NaN series must fail the check, not come back as a value
        from boeq.errors import ConditioningError

        prop = propagator(cos_field(8), 0.1, 8)
        matrix = prop.matrix.copy()
        matrix[0, 1] = np.nan  # meets w0's entry 1 in the first product
        with pytest.raises(ConditioningError):
            evaluate_disc(replace(prop, matrix=matrix), 0.3)


class CountingMatrix(np.ndarray):
    """A step operator that counts its products with a vector."""

    def __matmul__(self, other):
        self.products += 1
        return np.asarray(self) @ other


def counted(prop):
    """prop with a fresh power sequence whose products are counted."""
    matrix = prop.matrix.view(CountingMatrix)
    matrix.products = 0
    return replace(prop, matrix=matrix)


def dense_disc(u0, prop, z):
    """Reference disc value: <(I - zM)^-1 Pu0 | 1> by a dense solve, with
    the standard-basis M built from its own eigendecomposition."""
    a = np.eye(prop.max_mode + 1) - z * standard_step(u0, prop.t, prop.max_mode)
    return complex(np.linalg.solve(a, prop.p0)[0])


RING = [0.5 * np.exp(2j * np.pi * j / 8) for j in range(8)]


class TestDiscSeries:
    def test_terms_from_tail_bound(self):
        from boeq.torus_solution import _last_term

        eps = np.finfo(float).eps
        for r in (0.0, 1e-300, 0.1, 0.5, 0.9, 0.99, 0.997):
            k = _last_term(r)
            assert r ** (k + 1) / (1.0 - r) <= eps
            assert k == 0 or r ** k / (1.0 - r) > eps
        assert _last_term(0.5) == 52

    def test_ring_runs_one_recurrence(self):
        prop = counted(propagator(cos_field(32), 0.7, 32))
        for z in RING:
            evaluate_disc(prop, z)
        assert prop.matrix.products == 52

    def test_point_past_cap_raises_before_any_product(self):
        from boeq.errors import ConditioningError
        from boeq.torus_solution import DISC_MAX_TERMS, _last_term

        assert _last_term(0.9999) > DISC_MAX_TERMS
        prop = counted(propagator(cos_field(8), 0.4, 8))
        with pytest.raises(ConditioningError, match="terms"):
            evaluate_disc(prop, 0.9999j)
        assert prop.matrix.products == 0

    def test_series_continues_past_n(self):
        # |z| = 0.9 takes 363 terms on an N = 8 propagator
        u = cos_field(8, a=1.5)
        prop = counted(propagator(u, 0.4, 8))
        for z in (0.9, -0.6 + 0.6j):
            ref = dense_disc(u, prop, z)
            assert abs(evaluate_disc(prop, z) - ref) <= 1e-14 * abs(ref)
        assert prop.matrix.products == 363

    def test_value_independent_of_earlier_points(self):
        u = TorusField.from_modes(32, {1: 0.4, 2: 0.2j})
        fresh = [evaluate_disc(propagator(u, 0.8, 32), z) for z in RING]
        prop = propagator(u, 0.8, 32)
        assert [evaluate_disc(prop, z) for z in RING] == fresh
        assert [evaluate_disc(prop, z) for z in RING[::-1]] == fresh[::-1]
        prop = propagator(u, 0.8, 32)
        evaluate_disc(prop, 0.9)
        assert [evaluate_disc(prop, z) for z in RING] == fresh

    # M = 3 I is no propagator (those have norm at most 1): the squared
    # norm that the recurrence tests for rescaling overflows to inf
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_point_sums_only_its_own_terms(self):
        # under M = 3 I the terms 3^k c_0 z^k grow, so a ring point that
        # summed the 364 terms a |z| = 0.9 point left behind would be far off
        prop = propagator(TorusField.from_modes(8, {0: 0.5, 1: 0.2}), 0.3, 8)
        prop = replace(prop, matrix=3.0 * np.eye(9, dtype=complex))
        evaluate_disc(prop, 0.9)
        for z in RING:
            value = 0j
            for k in range(52, -1, -1):
                value = value * z + 0.5 * 3.0 ** k
            assert evaluate_disc(prop, z) == pytest.approx(value, rel=1e-12)

    def test_threads_extend_one_recurrence(self):
        import sys
        import threading

        u = TorusField.from_modes(16, {1: 0.4, 3: 0.1})
        # each point asks for a few more terms than the one before
        points = [0.3 + 0.004 * j for j in range(151)]
        reference = propagator(u, 0.5, 16)
        serial = [evaluate_disc(reference, z) for z in points]

        def worker(prop, got, i):
            got[i] = [evaluate_disc(prop, z) for z in points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # a lost update shows in most rounds, not all
                prop = counted(propagator(u, 0.5, 16))
                got = [None] * 8
                threads = [threading.Thread(target=worker, args=(prop, got, i))
                           for i in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert got == [serial] * 8
                assert prop.matrix.products == 363  # K at |z| = 0.9
        finally:
            sys.setswitchinterval(interval)


class TestReconstruct:
    def test_time_zero_reproduces_datum(self):
        u = TorusField.from_modes(64, {1: 0.5, 3: 0.2j})
        samples = synthesize_torus(evolve_coefficients(propagator(u, 0.0, 64)), 256)
        x = TWO_PI * np.arange(256) / 256
        expected = np.cos(x) + 2 * np.real(0.2j * np.exp(3j * x))
        np.testing.assert_allclose(samples, expected, atol=1e-10)

    def test_constant_is_fixed_point(self):
        u = TorusField.from_modes(8, {0: 1.1})
        for t in (0.3, 1.5):
            samples = synthesize_torus(evolve_coefficients(propagator(u, t, 8)), 32)
            np.testing.assert_allclose(samples, np.full(32, 1.1), atol=1e-10)

    def test_matches_time_stepper(self):
        u = cos_field(64)
        mine = synthesize_torus(evolve_coefficients(propagator(u, 0.3, 64)), 256)
        ref_field = evolve(u, 0.3, 5e-4, 64).final()
        ref = synthesize_torus(ref_field.hardy, 256)
        assert rel_l2(mine, ref) < 1e-6

    def test_l2_mass_conserved_by_formula(self):
        u = cos_field(128)
        coeffs = evolve_coefficients(propagator(u, 1.0, 128))
        mass = 2 * np.sum(np.abs(coeffs[1:]) ** 2) + coeffs[0].real ** 2
        mass0 = float(np.sum(np.abs(u.coeffs) ** 2))
        assert abs(mass - mass0) / mass0 < 1e-6

    def test_time_composition_through_restart(self):
        # formula at t1+t2 from u0 vs formula at t2 from the solver state at t1
        u0 = cos_field(64)
        t1, t2 = 0.2, 0.3
        u1 = evolve(u0, t1, 5e-4, 64).final()
        direct = synthesize_torus(evolve_coefficients(propagator(u0, t1 + t2, 64)), 256)
        restart = synthesize_torus(evolve_coefficients(propagator(u1, t2, 64)), 256)
        assert rel_l2(restart, direct) < 1e-6

    def test_long_horizon(self):
        # the formula is a single evaluation at any t; three time units of
        # flow cost the stepper 30k steps and still agree to solver accuracy
        from boeq.checks import formula_vs_solver

        [[rel]] = formula_vs_solver([cos_field(192)], [3.0], 1e-4)
        assert rel < 1e-8

    def test_twomode_datum(self):
        from boeq.checks import formula_vs_solver
        from boeq.presets import torus_preset

        u0 = torus_preset("twomode", 96, a=1.0, b=0.5)
        assert formula_vs_solver([u0], [0.4], 2e-4)[0][0] < 1e-8

    def test_disc_resolvent_exact_near_boundary(self):
        # the series stays machine-exact where it needs hundreds of terms
        u = cos_field(512)
        prop = propagator(u, 0.6, 512)
        for z in (0.9, 0.9j, -0.85 + 0.3j):
            tail = 2.0 * abs(z) ** 257 * np.linalg.norm(prop.p0)
            assert abs(evaluate_disc(prop, z) - dense_disc(u, prop, z)) <= tail + 1e-12


FLUSH = np.sqrt(np.finfo(float).tiny)
FLUSH_N = 512
FLUSH_T = 1.0


def tiny_count(a):
    """Entries with 0 < |x| < sqrt(tiny): their products are subnormal."""
    return int(np.count_nonzero((a != 0) & (np.abs(a) < FLUSH)))


@pytest.fixture(scope="module")
def localized():
    """twomode a=0.8, b=0.3 at n = 512, whose L_{u0} has strongly localized
    eigenvectors, with a raw (unflushed) ``np.linalg.eigh`` of it."""
    from boeq.presets import torus_preset

    u0 = torus_preset("twomode", FLUSH_N, a=0.8, b=0.3)
    w, v = np.linalg.eigh(lax_matrix(u0, FLUSH_N))
    return u0, w, v


class TestSubnormalFlush:
    def test_threshold_constant(self):
        import boeq.spectral

        assert boeq.spectral.FLUSH_BELOW == FLUSH
        assert FLUSH * FLUSH >= np.finfo(float).tiny  # products of kept entries are normal

    def test_factors_hold_no_entry_below_threshold(self, localized):
        import boeq.torus_solution as ts

        u0, _, v_raw = localized
        assert tiny_count(v_raw) > 1000  # the datum exercises the flush
        basis = ts._lax_eigensystem(u0, FLUSH_N)
        prop = propagator(u0, FLUSH_T, FLUSH_N)
        assert tiny_count(basis.system.eigenvectors) == 0
        assert tiny_count(hermitian_evolution(lax_matrix(u0, FLUSH_N), 2.0 * FLUSH_T)) == 0
        assert tiny_count(basis.step) == 0
        assert tiny_count(basis.start) == 0
        assert tiny_count(prop.w0) == 0
        assert tiny_count(prop.matrix) == 0

    def test_entries_at_or_above_threshold_unchanged(self, localized):
        import boeq.torus_solution as ts

        u0, w_raw, v_raw = localized
        basis = ts._lax_eigensystem(u0, FLUSH_N)
        es = basis.system
        np.testing.assert_array_equal(es.eigenvalues, w_raw)
        v = es.eigenvectors
        keep = np.abs(v_raw) >= FLUSH
        np.testing.assert_array_equal(v[keep], v_raw[keep])
        assert np.all(v[~keep] == 0)
        # each factor before its flush, formed exactly as boeq forms it
        u_raw = (v * np.exp(2j * FLUSH_T * es.eigenvalues)) @ v.conj().T
        shifted = np.zeros_like(v)
        shifted[:-1] = v[1:]
        w_step = v.conj().T @ shifted
        phases = np.exp(1j * FLUSH_T) * np.exp(2j * FLUSH_T * es.eigenvalues)
        for raw, flushed in [(u_raw, hermitian_evolution(lax_matrix(u0, FLUSH_N), 2.0 * FLUSH_T)),
                             (w_step, basis.step),
                             (phases[:, None] * basis.step,
                              propagator(u0, FLUSH_T, FLUSH_N).matrix)]:
            keep = np.abs(raw) >= FLUSH
            assert not keep.all()
            np.testing.assert_array_equal(flushed[keep], raw[keep])
            assert np.all(flushed[~keep] == 0)

    def test_outputs_match_unflushed_reference(self, localized):
        u0, w_raw, v_raw = localized
        prop = propagator(u0, FLUSH_T, FLUSH_N)
        phase = np.exp(1j * FLUSH_T)
        u_ref = (v_raw * np.exp(2j * FLUSH_T * w_raw)) @ v_raw.conj().T
        p0 = prop.p0
        # recurrence uhat(t, k) = <M^k Pu0 | 1>, M = phase * U * S*
        ref = [p0[0]]
        it = p0.copy()
        for _ in range(FLUSH_N // 2):
            it = phase * (u_ref @ np.append(it[1:], 0.0))
            ref.append(it[0])
        ref = np.array(ref)
        got = evolve_coefficients(prop)
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)
        m_ref = np.zeros_like(u_ref)
        m_ref[:, 1:] = u_ref[:, :-1]
        m_ref *= phase
        eye = np.eye(FLUSH_N + 1)
        for j in range(8):
            z = 0.5 * np.exp(2j * np.pi * j / 8)
            ref_z = np.linalg.solve(eye - z * m_ref, p0)[0]
            assert abs(evaluate_disc(prop, z) - ref_z) <= 1e-15 * abs(ref_z)

    @staticmethod
    def _eigen_system_with(monkeypatch, localized, corrupt):
        """eigen_system of the datum's L_{u0} with eigh's output corrupted."""
        from boeq.spectral import eigen_system

        u0, w_raw, v_raw = localized
        monkeypatch.setattr(np.linalg, "eigh", lambda a: corrupt(w_raw.copy(), v_raw.copy()))
        return eigen_system(lax_matrix(u0, FLUSH_N))

    def test_corrupted_eigenvalue_fails_reconstruction(self, monkeypatch, localized):
        from boeq.errors import LinearAlgebraError

        def corrupt(w, v):
            w[FLUSH_N // 2] += 1e-6
            return w, v

        with pytest.raises(LinearAlgebraError, match="residual"):
            self._eigen_system_with(monkeypatch, localized, corrupt)

    def test_corrupted_flushed_entry_fails_reconstruction(self, monkeypatch, localized):
        # a sub-threshold entry grown to 1e-6 survives the flush and is caught
        from boeq.errors import LinearAlgebraError

        def corrupt(w, v):
            i, j = np.argwhere((v != 0) & (np.abs(v) < FLUSH))[0]
            v[i, j] = 1e-6
            return w, v

        with pytest.raises(LinearAlgebraError, match="residual"):
            self._eigen_system_with(monkeypatch, localized, corrupt)

    def test_nan_eigenvector_fails_reconstruction(self, monkeypatch, localized):
        from boeq.errors import LinearAlgebraError

        def corrupt(w, v):
            v[3, 3] = np.nan
            return w, v

        with pytest.raises(LinearAlgebraError, match="residual"):
            self._eigen_system_with(monkeypatch, localized, corrupt)

    def test_non_unitary_eigenvectors_fail_unitarity(self, monkeypatch, localized):
        # column k scaled by 1 + d and its eigenvalue by (1 + d)^-2 keeps
        # V Lambda V* = L_{u0}, so only the unitarity check can object
        k, d = FLUSH_N // 2, 1e-8

        def corrupt(w, v):
            v[:, k] *= 1.0 + d
            w[k] /= (1.0 + d) ** 2
            return w, v

        with pytest.raises(LinearAlgebraError, match="unitary defect"):
            self._eigen_system_with(monkeypatch, localized, corrupt)

    def test_non_unitary_factor_fails_evolution_check(self, monkeypatch, localized):
        # an eigensystem whose V is not unitary, past eigen_system's checks
        import boeq.spectral
        from boeq.spectral import EigenSystem

        u0, w_raw, v_raw = localized
        v = v_raw.copy()
        v[:, FLUSH_N // 2] *= 1.0 + 1e-8
        monkeypatch.setattr(boeq.spectral, "eigen_system", lambda a: EigenSystem(w_raw, v))
        with pytest.raises(LinearAlgebraError, match="evolution unitary defect"):
            hermitian_evolution(lax_matrix(u0, FLUSH_N), 2.0 * FLUSH_T)


class TestIterateRescale:
    """The power recurrence rescales a decaying iterate by exact powers of two."""

    N, K = 128, 1500

    @staticmethod
    def _plain(matrix, v, k):
        out = []
        for _ in range(k):
            v = matrix @ v
            out.append(v)
        return out

    def test_iterates_stay_normal_and_match_plain_recurrence(self):
        import boeq.torus_solution as ts

        tiny = np.finfo(float).tiny
        prop = propagator(cos_field(self.N), 1.0, self.N)
        row = prop.eigenvectors[0]  # uhat(t, k) = (V w)_0 for the iterate w
        plain = self._plain(prop.matrix, prop.w0, self.K)
        # the datum decays into subnormal numbers without the rescale
        assert np.max(np.abs(plain[-1].view(float))) < tiny
        scaled = list(islice(ts._iterates(prop.matrix, prop.w0), self.K))
        for v, _ in scaled:
            parts = np.abs(v.view(float))
            assert np.all((parts == 0.0) | (parts >= tiny))
        first_rescale = next(k for k, (_, e) in enumerate(scaled) if e != 0)
        assert first_rescale < 500
        # bit for bit while the plain recurrence is still exact in normal
        # numbers: 500 and more coefficients past the first rescale
        want = np.array([row @ v for v in plain])
        got = np.array([ts._unscaled(complex(row @ v), e) for v, e in scaled])
        kept = np.abs(want) >= 1e-280
        assert np.count_nonzero(kept[first_rescale:]) > 500
        np.testing.assert_array_equal(got[kept], want[kept])
        assert np.all(np.isfinite(got))
        # the disc power sequence reads the same coefficients
        np.testing.assert_array_equal(np.array(prop._series.head(self.K)[1:])[kept], want[kept])

    @pytest.mark.parametrize("amplitude, warns", [(0.4, True), (1e-12, False)])
    def test_truncation_warning_reads_unscaled_tail(self, monkeypatch, amplitude, warns):
        import warnings

        import boeq.torus_solution as ts
        from boeq.errors import TruncationWarning

        # every mode up to the edge of a tiny truncation; at amplitude 1e-12
        # the tail is far below TAIL_WARN, though not relative to the
        # iterate's peak
        u = TorusField.from_modes(16, {k: amplitude / k for k in range(1, 17)})
        prop = propagator(u, 0.8, 16)
        runs = []
        for threshold in (ts.RESCALE_BELOW, 2.0 ** 60):  # the second rescales every iterate
            monkeypatch.setattr(ts, "RESCALE_BELOW", threshold)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                coeffs = evolve_coefficients(prop, 16)
            runs.append((coeffs, [(w.category, str(w.message)) for w in seen]))
        for coeffs, seen in runs:
            np.testing.assert_array_equal(coeffs, runs[0][0])
            assert seen == runs[0][1]
            assert [category for category, _ in seen] == ([TruncationWarning] if warns else [])
