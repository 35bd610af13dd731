import numpy as np
import pytest

from boeq.errors import BlowUpError, StabilityWarning
from boeq.spectral import TorusField, field_from_samples, next_fast_len
from boeq.presets import torus_preset
from boeq.timestepper import (Run, _check_finite, _Stepper, conserved_quantities, dealias_cut,
                              evolve, march_runs)

from box_oracle import evolve_line_on_box
from conftest import step_counter, wave_datum, wave_hardy, wave_speed


def cos_field(n, a=1.0):
    return TorusField.from_modes(n, {1: a / 2.0})


def one_step(u, dt):
    """One IF-RK4 step: evolve over a horizon of exactly dt."""
    return evolve(u, dt, dt, u.max_mode)


def full_band_field(n, seed=5):
    """Random field whose modes reach the truncation n."""
    rng = np.random.default_rng(seed)
    return TorusField.from_modes(n, {k: (rng.standard_normal() + 1j * rng.standard_normal()) / k
                                     for k in range(1, n + 1)})


def exact_nonlinear(u, m):
    """-ik (u^2)_k, k = 0..m-1, of the modes |k| < m of u: the direct
    convolution of its coefficients with themselves."""
    n = u.max_mode
    kept = np.where(np.abs(np.arange(-n, n + 1)) < m, u.coeffs, 0.0)
    return -1j * np.arange(m) * np.convolve(kept, kept)[2 * n:2 * n + m]


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
        ratio = traj.final().hardy[1] / a
        assert abs(ratio - np.exp(1j * 1.0)) < 5 * a

    @pytest.mark.parametrize("dealias", [True, False])
    def test_nonlinear_term_is_the_exact_product(self, dealias):
        # full-band data: u^2 reaches twice the highest mode read, and no
        # aliased mode may land on a kept one; the reference is the direct
        # convolution of c with c.  With the cut it is the stepper's term,
        # without it the textbook complex-FFT term on the full band
        n = 30
        u = full_band_field(n)
        if dealias:
            m = dealias_cut(n) + 1
            got = _Stepper([n], 1e-3).nonlinear(u.coeffs[None, n:])[0]
        else:
            m = n + 1
            got = _complex_nonlinear(to_fft_layout(u.coeffs), n, n)[:m]
        np.testing.assert_allclose(got, exact_nonlinear(u, m), rtol=0, atol=1e-12)

    def test_dealias_cut_inert_for_band_limited_steps(self):
        # each RK4 stage doubles the band of the stage inputs, so the modes
        # the cut removes from a full step carry only machine-level mass for
        # narrow-band data; the step agrees to machine precision with the
        # textbook step on the full band
        n = 24
        u = TorusField.from_modes(n, {k: 0.1 / (k + 1) for k in range(1, n // 6 + 1)})
        with_cut = one_step(u, 1e-3).final().coeffs[n:]  # c_0..c_N, zero above the cut
        without = from_fft_layout(_full_complex_step(to_fft_layout(u.coeffs), n, 1e-3, cut=n))[n:]
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


class TestGrid:
    """Products are formed on the smallest fast grid on which the square of
    the kept band is alias-free."""

    @pytest.mark.parametrize("ns, pad", [([64], 128), ([128], 256), ([256], 512),
                                         ([96, 128], 256), ([32, 64, 48], 128), ([2, 32], 64)])
    def test_pad_is_the_fast_length_above_three_cuts(self, ns, pad):
        cut = max(dealias_cut(n) for n in ns)
        assert _Stepper(ns, 1e-3).pad == next_fast_len(3 * cut + 1) == pad

    def test_grid_of_three_cuts_aliases_onto_kept_modes(self, monkeypatch):
        # on 3 * cut points mode 2 * cut of u^2 folds onto mode -cut, so
        # the kept mode cut is wrong by the square of c_cut
        import boeq.timestepper as ts

        monkeypatch.setattr(ts, "next_fast_len", lambda target: target - 1)
        n = 30
        u = full_band_field(n)
        short = _Stepper([n], 1e-3)
        assert short.pad == 3 * dealias_cut(n)
        got = short.nonlinear(u.coeffs[None, n:])[0]
        assert np.max(np.abs(got - exact_nonlinear(u, dealias_cut(n) + 1))) > 1e-3

    def test_nonlinear_reads_only_the_kept_modes(self):
        n = 30
        eng = _Stepper([n], 1e-3)
        full = full_band_field(n).coeffs[None, n:]  # c_0..c_N
        zeroed = np.where(np.arange(n + 1) <= eng.cut, full, 0.0)
        got = eng.nonlinear(full)
        np.testing.assert_array_equal(got, eng.nonlinear(zeroed))
        np.testing.assert_array_equal(got, eng.nonlinear(full[:, :eng.cut + 1]))

    def test_step_leaves_its_input_alone(self):
        # a partial step is taken on the state the march continues from
        n = 30
        eng = _Stepper([n, 24], 1e-3)
        c = np.stack([full_band_field(n, seed).hardy[:eng.cut + 1] for seed in (5, 6)])
        before = c.copy()
        eng.step(c)
        np.testing.assert_array_equal(c, before)


class TestPeriodicWaveMarch:
    """Benjamin's periodic travelling wave, (q, b) = (0.5, 0.2) at N = 128,
    marched by the stepper: its Hardy coefficients 0..N/2 travel exactly as
    q^k e^{-ikct}, a reference that is neither the formula nor the stepper.
    """

    N, Q, B = 128, 0.5, 0.2
    TIMES = (0.5, 2.0)
    # relative l2 error of coefficients 0..N/2 at each of TIMES: twice the
    # error measured on the 3N + 1 point grid of the earlier stepper
    BOUNDS = {1e-3: (2 * 1.19e-9, 2 * 2.45e-9), 5e-4: (2 * 7.39e-11, 2 * 1.48e-10)}

    def _errors(self, dt, amplitude=1.0):
        (got,) = march_runs([Run(wave_datum(self.Q, self.B, self.N, amplitude), self.TIMES, dt)])
        c = wave_speed(self.Q, self.B)
        errs = []
        for t in self.TIMES:
            exact = wave_hardy(self.Q, self.B, t, c, self.N // 2, amplitude)
            errs.append(np.linalg.norm(got[t].hardy[:self.N // 2 + 1] - exact) / np.linalg.norm(exact))
        return errs

    def test_march_matches_travelling_wave_at_fourth_order(self):
        errs = {dt: self._errors(dt) for dt in self.BOUNDS}
        for dt, bounds in self.BOUNDS.items():
            for err, bound in zip(errs[dt], bounds):
                assert err <= bound, (dt, err, bound)
        for coarse, fine in zip(errs[1e-3], errs[5e-4]):
            assert 3.7 <= np.log2(coarse / fine) <= 4.3

    def test_oracle_rejects_a_scaled_wave(self):
        # 0.9 times the wave is no travelling wave
        assert min(self._errors(1e-3, amplitude=0.9)) > 1e-3


class TestRealFieldGuard:
    def test_field_from_samples_datum_passes(self):
        x = 2 * np.pi * np.arange(64) / 64
        u = field_from_samples(np.exp(np.sin(x)) + 0.3 * np.cos(3 * x), max_mode=16)
        final = evolve(u, 0.01, 1e-3, 16).final()
        assert final.max_mode == 16 and np.all(np.isfinite(final.coeffs))
        assert final.mean == u.mean
        np.testing.assert_array_equal(one_step(u, 1e-3).final().hardy[11:], 0.0)


def to_fft_layout(coeffs):
    """Natural order (k = -N..N) -> numpy fft order (0..N, -N..-1)."""
    n = (coeffs.size - 1) // 2
    return np.concatenate([coeffs[n:], coeffs[:n]])


def from_fft_layout(cf):
    """Numpy fft order -> natural order (k = -N..N)."""
    n = (cf.size - 1) // 2
    return np.concatenate([cf[n + 1:], cf[:n + 1]])


def _complex_nonlinear(v, n, cut):
    """-ik (u^2)_k on the two-sided spectrum v in numpy FFT order (0..N,
    -N..-1), reading and keeping the modes |k| <= cut, with complex FFTs on
    4N + 2 points."""
    k = np.concatenate([np.arange(0, n + 1), np.arange(-n, 0)])
    mask = np.abs(k) <= cut
    pad = 4 * n + 2
    v = np.where(mask, v, 0.0)
    big = np.zeros(pad, dtype=np.complex128)
    big[:n + 1] = v[:n + 1]
    big[-n:] = v[-n:]
    u = np.fft.ifft(big) * pad
    w = np.fft.fft(u * u) / pad
    return -1j * k * np.where(mask, np.concatenate([w[:n + 1], w[-n:]]), 0.0)


def _full_complex_step(cf, n, dt, cut=None):
    """One IF-RK4 step written on the two-sided spectrum in numpy FFT order
    with complex FFTs, the textbook form of the scheme; it keeps the modes
    |k| <= cut (default the 2/3 rule's)."""
    cut = dealias_cut(n) if cut is None else cut
    k = np.concatenate([np.arange(0, n + 1), np.arange(-n, 0)])
    e_half = np.exp(1j * k * np.abs(k) * dt / 2.0)
    e_full = e_half * e_half

    def nonlinear(v):
        return _complex_nonlinear(v, n, cut)

    k1 = nonlinear(cf)
    k2 = nonlinear(e_half * (cf + 0.5 * dt * k1))
    k3 = nonlinear(e_half * cf + 0.5 * dt * k2)
    k4 = nonlinear(e_full * cf + dt * e_half * k3)
    out = e_full * cf + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return np.where(np.abs(k) <= cut, out, 0.0)


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
    """Every field of a stacked :func:`march_runs` at the one time t_final."""
    return [at[float(t_final)] for at in march_runs([Run(u, [t_final], dt) for u in fields])]


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
        assert march_runs([]) == []

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


class TestLockstep:
    """Runs with their own truncations, times and dts as the rows of one
    lockstep march."""

    @pytest.fixture(scope="class")
    def runs(self):
        return [
            # sets the grid; a partial step at 0.0105
            Run(torus_preset("twomode", 48, a=1.0, b=0.5), [0.0105, 0.03], 1e-3),
            # a backward row, and the longest row
            Run(torus_preset("twomode", 32, a=1.0, b=0.5), [-0.004, 0.05], 5e-4),
            # leaves after 3 steps
            Run(cos_field(24), [0.006], 2e-3),
        ]

    def test_rows_match_their_own_evolve(self, runs):
        # the row whose cut sets the first grid keeps the bits of its own
        # evolve; the others, on longer grids for part of the march, agree
        # with theirs to rounding
        marched = march_runs(runs)
        for (u, times, dt), got in zip(runs, marched):
            assert list(got) == sorted(t for t in times if t >= 0) + [t for t in times if t < 0]
            for t in times:
                alone = evolve(u, t, dt).final()
                if u.max_mode == 48:
                    np.testing.assert_array_equal(got[t].coeffs, alone.coeffs)
                else:
                    assert _relative_gap(got[t], alone) <= 1e-15

    def test_every_field_keeps_the_mean_bit_for_bit(self):
        # the -ik table is zero at k = 0, so c_0 of every row, after whole
        # and partial steps either way in time, is its datum's
        runs = [Run(TorusField.from_modes(32, {0: 1.0 / 3.0, 1: 0.4, 2: 0.1 - 0.2j}),
                    [0.0105, 0.03, -0.007], 1e-3),
                Run(TorusField.from_modes(24, {0: -0.7, 1: 0.2j, 3: 0.05}), [0.006, -0.0031], 2e-3)]
        for (u, times, _), got in zip(runs, march_runs(runs)):
            assert sorted(got) == sorted(times)
            for f in got.values():
                assert f.hardy[0] == u.mean

    def test_rows_leave_in_order_of_their_last_step(self, runs, monkeypatch):
        steps = step_counter(monkeypatch)
        march_runs(runs)
        # the stack holds rows 100, 30, 8 and 3 steps long, the longest first;
        # the partial step at 0.0105 is one more step of one row
        partial = (1, (0.0105 - 10 * 1e-3,))
        assert partial in steps
        steps.remove(partial)
        assert [rows for rows, _ in steps] == [4] * 3 + [3] * 5 + [2] * 22 + [1] * 70
        assert steps[0][1] == (5e-4, 1e-3, -5e-4, 2e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow en route
    @pytest.mark.filterwarnings("ignore::boeq.errors.StabilityWarning")
    def test_blow_up_names_the_row_at_its_own_time(self):
        # N = 32 at dt = 0.5 blows up; the row beside it steps 0.1 at a time
        with pytest.raises(BlowUpError) as err:
            march_runs([Run(cos_field(8, a=0.1), [20.0], 0.1), Run(cos_field(32, a=5.0), [10.0], 0.5)])
        with pytest.raises(BlowUpError) as alone:
            evolve(cos_field(32, a=5.0), 10.0, 0.5)
        assert err.value.n == 32
        assert err.value.t == alone.value.t < 10.0

    def test_returned_state_survives_further_steps(self):
        eng = _Stepper([30, 24], [1e-3, -2e-3])
        c = np.stack([full_band_field(30, seed).hardy[:eng.cut + 1] for seed in (5, 6)])
        first = eng.step(c)
        kept = first.copy()
        eng.step(eng.step(first))
        np.testing.assert_array_equal(first, kept)

    def test_one_step_makes_eight_real_transforms(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(np.fft, name)

            def transform(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return transform

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(name))
        eng = _Stepper([30, 24, 16], [1e-3, 2e-3, -1e-3])
        eng.step(np.stack([full_band_field(30, seed).hardy[:eng.cut + 1] for seed in (5, 6, 7)]))
        assert sorted(calls) == ["irfft"] * 4 + ["rfft"] * 4


class TestFiniteCheck:
    """One sum tests the stack; a row search names the row that blew up."""

    NS, TIMES = {3: 16, 7: 32}, {3: 0.25, 7: -0.5}

    def stack(self, row, col, *values):
        c = np.ones((2, 5), dtype=np.complex128)
        for j, v in enumerate(values):
            c[row, col + j] = v
        return c

    @pytest.mark.parametrize("values", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf),
                                        (complex(0, np.inf),)],
                             ids=["nan", "inf", "-inf", "inf-inf", "imag-inf"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the sum
    def test_non_finite_row_is_named(self, values):
        with pytest.raises(BlowUpError) as err:
            _check_finite(self.stack(1, 2, *values), [3, 7], self.NS, self.TIMES.get)
        assert (err.value.n, err.value.t) == (32, -0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the sum overflows
    def test_finite_stack_whose_sum_overflows_passes(self):
        c = self.stack(0, 0, 1e308, 1e308, 1e308)
        assert not np.isfinite(c.sum())
        _check_finite(c, [3, 7], self.NS, self.TIMES.get)


class TestMarch:
    """``march_runs`` lands a field on times; one row and no rows behave as before."""

    def test_one_row_behaves_as_evolve(self):
        # every time, on either side of 0 and off the step grid, has the bits
        # of one evolve from t = 0; t = 0 hands back the datum itself
        u = torus_preset("twomode", 32, a=1.0, b=0.5)
        times = [0.0, 0.0105, 0.02, -0.0042, -0.011]
        (got,) = march_runs([Run(u, times, 1e-3)])
        assert list(got) == [0.0, 0.0105, 0.02, -0.0042, -0.011]
        assert got[0.0] is u is evolve(u, 0.0, 1e-3).final()
        for t in times[1:]:
            np.testing.assert_array_equal(got[t].coeffs, evolve(u, t, 1e-3).final().coeffs)

    def test_empty_field_list_and_no_times(self):
        assert march_runs([]) == []
        assert march_runs([Run(cos_field(16), [], 1e-3)]) == [{}]

    def test_refuses_non_positive_dt(self):
        with pytest.raises(ValueError):
            march_runs([Run(cos_field(16), [0.1], 0.0)])
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
