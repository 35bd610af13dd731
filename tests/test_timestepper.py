import numpy as np
import pytest

from boeq.errors import BlowUpError, StabilityWarning
from boeq.spectral import TorusField, field_from_samples
from boeq.presets import torus_preset
from boeq.timestepper import _Stepper, conserved_quantities, evolve, march

from box_oracle import evolve_line_on_box


def cos_field(n, a=1.0):
    return TorusField.from_modes(n, {1: a / 2.0})


def one_step(u, dt):
    """One IF-RK4 step: evolve over a horizon of exactly dt."""
    return evolve(u, dt, dt, u.max_mode)


class TestStep:
    def test_zero_stays_zero(self):
        out = one_step(TorusField.zero(16), 1e-3)
        assert np.all(out.final().coeffs == 0)
        assert out.times[-1] == pytest.approx(1e-3)

    def test_constant_is_stationary(self):
        u = TorusField.from_modes(16, {0: 0.8})
        f = u
        for _ in range(5):
            f = one_step(f, 1e-3).final()
        np.testing.assert_allclose(f.coeffs, u.coeffs, atol=1e-14)

    def test_linear_phase_for_small_amplitude(self):
        a = 1e-3
        u = TorusField.from_modes(32, {1: a})  # 2a cos x
        traj = evolve(u, 1.0, 1e-3, 32)
        ratio = traj.final().coeff(1) / a
        assert abs(ratio - np.exp(1j * 1.0)) < 5 * a

    def test_dealias_cut_inert_on_quadratic_product(self):
        # for data band-limited to N/3 the quadratic product reaches exactly
        # the 2/3 cut, so cutting it changes nothing, bit for bit
        n = 24
        u = TorusField.from_modes(n, {k: 0.1 / (k + 1) for k in range(1, n // 3 + 1)})
        half = u.coeffs[None, n:]  # c_0..c_N, a one-row stack
        eng = _Stepper([n], 1e-3, dealias=True)
        with_cut = eng.nonlinear(half)[0]
        without = _Stepper([n], 1e-3, dealias=False).nonlinear(half)[0]
        assert with_cut.size == eng.cut + 1 and without.size == n + 1
        # retained modes bitwise identical; the cut removes only FFT roundoff
        np.testing.assert_array_equal(with_cut, without[:eng.cut + 1])
        assert np.max(np.abs(without[eng.cut + 1:])) < 1e-15

    @pytest.mark.parametrize("dealias", [True, False])
    def test_nonlinear_term_is_the_exact_product(self, dealias):
        # full-band data: u^2 reaches mode 2N, and no aliased mode may land
        # on a kept one; the reference is the direct convolution of c with c
        n = 30
        rng = np.random.default_rng(5)
        u = TorusField.from_modes(n, {k: (rng.standard_normal() + 1j * rng.standard_normal()) / k
                                      for k in range(1, n + 1)})
        eng = _Stepper([n], 1e-3, dealias=dealias)
        m = eng.cut + 1
        kept = np.where(np.abs(np.arange(-n, n + 1)) < m, u.coeffs, 0.0)
        square = np.convolve(kept, kept)[2 * n:2 * n + m]  # modes 0..cut of u^2
        np.testing.assert_allclose(eng.nonlinear(u.coeffs[None, n:])[0], -1j * np.arange(m) * square,
                                   rtol=0, atol=1e-12)

    def test_dealias_cut_inert_for_band_limited_steps(self):
        # each RK4 stage doubles the band of the stage inputs, so the modes
        # the cut removes from a full step carry only machine-level mass for
        # narrow-band data; the step agrees to machine precision either way
        n = 24
        u = TorusField.from_modes(n, {k: 0.1 / (k + 1) for k in range(1, n // 6 + 1)})
        with_cut = one_step(u, 1e-3).final().coeffs[n:]  # c_0..c_N, zero above the cut
        without = _Stepper([n], 1e-3, dealias=False).step(u.coeffs[None, n:])[0]
        np.testing.assert_allclose(with_cut, without, atol=2e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route
    def test_blow_up_reported(self):
        u = cos_field(32, a=5.0)
        with pytest.raises(BlowUpError), pytest.warns(StabilityWarning):
            evolve(u, 10.0, 0.5, 32)

    def test_cfl_guideline_warning(self):
        u = cos_field(64)
        with pytest.warns(StabilityWarning):
            one_step(u, 0.02)


class TestRealFieldGuard:
    def test_field_from_samples_datum_passes(self):
        x = 2 * np.pi * np.arange(64) / 64
        u = field_from_samples(np.exp(np.sin(x)) + 0.3 * np.cos(3 * x), max_mode=16)
        final = evolve(u, 0.01, 1e-3, 16).final()
        assert final.max_mode == 16 and np.all(np.isfinite(final.coeffs))
        assert abs(final.mean - u.mean) <= 1e-15
        np.testing.assert_array_equal(one_step(u, 1e-3).final().hardy[11:], 0.0)


def to_fft_layout(coeffs):
    """Natural order (k = -N..N) -> numpy fft order (0..N, -N..-1)."""
    n = (coeffs.size - 1) // 2
    return np.concatenate([coeffs[n:], coeffs[:n]])


def from_fft_layout(cf):
    """Numpy fft order -> natural order (k = -N..N)."""
    n = (cf.size - 1) // 2
    return np.concatenate([cf[n + 1:], cf[:n + 1]])


def _full_complex_step(cf, n, dt):
    """One IF-RK4 step written on the two-sided spectrum in numpy FFT order
    (0..N, -N..-1) with complex FFTs, the textbook form of the scheme."""
    k = np.concatenate([np.arange(0, n + 1), np.arange(-n, 0)])
    mask = np.abs(k) <= (2 * n) // 3
    pad = 4 * n + 2
    e_half = np.exp(1j * k * np.abs(k) * dt / 2.0)
    e_full = e_half * e_half

    def nonlinear(v):
        v = np.where(mask, v, 0.0)
        big = np.zeros(pad, dtype=np.complex128)
        big[:n + 1] = v[:n + 1]
        big[-n:] = v[-n:]
        u = np.fft.ifft(big) * pad
        w = np.fft.fft(u * u) / pad
        return -1j * k * np.where(mask, np.concatenate([w[:n + 1], w[-n:]]), 0.0)

    k1 = nonlinear(cf)
    k2 = nonlinear(e_half * (cf + 0.5 * dt * k1))
    k3 = nonlinear(e_half * cf + 0.5 * dt * k2)
    k4 = nonlinear(e_full * cf + dt * e_half * k3)
    out = e_full * cf + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return np.where(mask, out, 0.0)


class TestFullComplexOracle:
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_half_spectrum_matches_full_complex_steps(self, direction):
        n, dt, steps = 48, 1e-3, 200
        rng = np.random.default_rng(11)
        modes = {k: 0.2 * (rng.standard_normal() + 1j * rng.standard_normal()) / k
                 for k in range(1, 17)}
        modes[0] = 0.3
        u = TorusField.from_modes(n, modes)
        cf = to_fft_layout(u.coeffs)
        for _ in range(steps):
            cf = _full_complex_step(cf, n, direction * dt)
        expected = from_fft_layout(cf)
        got = evolve(u, direction * steps * dt, dt, n).final().coeffs
        assert np.max(np.abs(got - expected)) <= 1e-13
        # the oracle's own negative half is the conjugate of its positive one
        assert np.max(np.abs(expected[::-1] - np.conj(expected))) <= 1e-13


class TestEvolve:
    def test_zero_horizon_single_snapshot(self):
        u = cos_field(16)
        traj = evolve(u, 0.0, 1e-3, 16)
        assert len(traj.fields) == 1
        np.testing.assert_array_equal(traj.fields[0].coeffs, u.coeffs)

    def test_snapshots_are_conjugate_symmetric(self):
        traj = evolve(cos_field(32), 0.05, 1e-3, 32, snapshot_every=10)
        assert len(traj.fields) == 6
        for f in traj.fields:
            # every snapshot is the real field of its own Hardy half
            np.testing.assert_array_equal(TorusField.from_hardy(f.hardy, 32).coeffs, f.coeffs)

    def test_time_reversal_consistency(self):
        u = cos_field(128)
        forward = evolve(u, 0.5, 5e-4, 128).final()
        back = evolve(forward, -0.5, 5e-4, 128).final()
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-8

    def test_temporal_order_is_rk4(self):
        u = cos_field(64)
        ref = evolve(u, 0.5, 2.5e-4, 64).final().coeffs
        errs = []
        for dt in (4e-3, 2e-3):
            errs.append(np.linalg.norm(evolve(u, 0.5, dt, 64).final().coeffs - ref))
        order = np.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_fractional_final_step(self):
        u = cos_field(32)
        a = evolve(u, 0.1003, 1e-3, 32).final().coeffs
        b = evolve(u, 0.1003, 1.003e-4, 32).final().coeffs
        assert np.max(np.abs(a - b)) < 1e-9


def _relative_gap(a, b):
    return np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs))


def march_to(fields, t_final, dt):
    """Every field of a stacked :func:`march` at the one time t_final."""
    return [at[float(t_final)] for at in march(fields, [t_final], dt)]


class TestEvolveStack:
    """Several truncations of one datum marched as the rows of one stack."""

    @pytest.mark.parametrize("t_final", [0.1003, -0.05], ids=["partial-step", "backward"])
    def test_rows_match_their_own_evolve(self, t_final):
        # the largest row shares its padded grid with evolve, bit for bit;
        # the others run on a longer grid and agree to rounding
        ns = [32, 64, 48]
        fields = [torus_preset("twomode", n, a=1.0, b=0.5) for n in ns]
        stacked = march_to(fields, t_final, 1e-3)
        assert [f.max_mode for f in stacked] == ns
        for u, got in zip(fields, stacked):
            alone = evolve(u, t_final, 1e-3, u.max_mode).final()
            if u.max_mode == max(ns):
                np.testing.assert_array_equal(got.coeffs, alone.coeffs)
            else:
                assert _relative_gap(got, alone) <= 1e-15

    def test_one_row_is_evolve_bitwise(self):
        u = torus_preset("twomode", 40, a=1.0, b=0.5)
        got = march_to([u], 0.05, 1e-3)[0]
        np.testing.assert_array_equal(got.coeffs, evolve(u, 0.05, 1e-3, 40).final().coeffs)

    def test_zero_horizon_and_empty_stack(self):
        u = cos_field(16)
        assert march_to([u], 0.0, 1e-3)[0] is u
        assert march([], [0.1], 1e-3) == []

    def test_cfl_warning_names_the_row_that_exceeds_it(self):
        # dt * N * max|u| = 0.08 at N = 16 and 1.28 at N = 256
        with pytest.warns(StabilityWarning) as seen:
            march_to([cos_field(16), cos_field(256)], 0.005, 0.005)
        assert len(seen) == 1 and "at N = 256" in str(seen[0].message)

    @pytest.mark.parametrize("ns", [(2, 32), (32, 2)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route
    @pytest.mark.filterwarnings("ignore::boeq.errors.StabilityWarning")
    def test_blow_up_names_the_row_that_blew_up(self, ns):
        # at N = 2 the cut keeps mode 1 only, where u^2 of a mean-free cos
        # has no content: that row stays linear and finite
        with pytest.raises(BlowUpError) as err:
            march_to([cos_field(n, a=5.0) for n in ns], 10.0, 0.5)
        assert err.value.n == 32
        assert "N = 32" in str(err.value)


class TestMarch:
    """``march`` lands fields on times; one row and no rows behave as before."""

    def test_one_row_behaves_as_evolve(self):
        # every time, on either side of 0 and off the step grid, has the bits
        # of one evolve from t = 0; t = 0 hands back the datum itself
        u = torus_preset("twomode", 32, a=1.0, b=0.5)
        times = [0.0, 0.0105, 0.02, -0.0042, -0.011]
        (got,) = march([u], times, 1e-3)
        assert list(got) == [0.0, 0.0105, 0.02, -0.0042, -0.011]
        assert got[0.0] is u is evolve(u, 0.0, 1e-3).final()
        for t in times[1:]:
            np.testing.assert_array_equal(got[t].coeffs, evolve(u, t, 1e-3).final().coeffs)

    def test_empty_field_list_and_no_times(self):
        assert march([], [0.1, -0.1], 1e-3) == []
        assert march([cos_field(16)], [], 1e-3) == [{}]

    def test_refuses_non_positive_dt(self):
        with pytest.raises(ValueError):
            march([cos_field(16)], [0.1], 0.0)
        with pytest.raises(ValueError):
            evolve(cos_field(16), 0.1, -1e-3)


class TestConservedQuantities:
    def test_two_cos(self):
        q = conserved_quantities(TorusField.from_modes(4, {1: 1.0}))
        assert q["mean"] == 0.0
        assert q["l2sq"] == pytest.approx(2.0)

    def test_constant(self):
        c = 0.7
        q = conserved_quantities(TorusField.from_modes(4, {0: c}))
        assert q["mean"] == pytest.approx(c)
        assert q["l2sq"] == pytest.approx(c * c)
        assert q["energy"] == pytest.approx(-c ** 3 / 3.0)

    def test_cubic_term_hand_value(self):
        # u = 1 + cos x: (1/2pi) int u^3 = 1 + 3/2 = 5/2, so
        # energy = 1/2 (2 * 1/4) - (1/3)(5/2)
        u = TorusField.from_modes(4, {0: 1.0, 1: 0.5})
        q = conserved_quantities(u)
        assert q["energy"] == pytest.approx(0.25 - 5.0 / 6.0)

    def test_drift_along_flow(self):
        traj = evolve(cos_field(128), 0.3, 2e-4, 128)
        q0 = conserved_quantities(traj.fields[0])
        q1 = conserved_quantities(traj.final())
        assert abs(q1["mean"] - q0["mean"]) <= 1e-12
        assert abs(q1["l2sq"] - q0["l2sq"]) / q0["l2sq"] <= 1e-9
        assert abs(q1["energy"] - q0["energy"]) / abs(q0["energy"]) <= 1e-8


class TestBoxLineOracle:
    def test_soliton_travels_right_at_speed_c(self):
        # the solitary wave 2c/(1+c^2(x-ct)^2): direction frozen against
        # this stepper once, rightward for the sign conventions in use
        c, t = 1.0, 0.3
        u0 = lambda x: 2 * c / (1 + (c * x) ** 2)
        run = evolve_line_on_box(u0, t, half_width=60.0, n_modes=512)
        window = np.abs(run.x) < 8.0
        expected_right = 2 * c / (1 + (c * (run.x - c * t)) ** 2)
        expected_left = 2 * c / (1 + (c * (run.x + c * t)) ** 2)
        err_right = np.max(np.abs(run.u[window] - expected_right[window]))
        err_left = np.max(np.abs(run.u[window] - expected_left[window]))
        assert err_right < 5e-3
        assert err_left > 0.1
        # peak location pins the direction independently of the profile fit
        peak_x = run.x[np.argmax(run.u)]
        assert peak_x == pytest.approx(c * t, abs=0.1)

    def test_zero_time_returns_datum(self):
        u0 = lambda x: np.exp(-x ** 2)
        run = evolve_line_on_box(u0, 0.0, half_width=30.0, n_modes=128)
        np.testing.assert_allclose(run.u, u0(run.x), atol=1e-12)
