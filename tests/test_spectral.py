import numpy as np
import pytest
from scipy.integrate import quad

from boeq.errors import IngestionError, InvalidFieldError
from boeq.line_operators import HalfLineSpectrum, LineGrid
from boeq.presets import torus_preset
from boeq.spectral import (
    SYMMETRY_TOL,
    TWO_PI,
    OperatorMatrix,
    TorusField,
    eigen_system,
    field_from_samples,
    hermitian_evolution,
    next_fast_len,
    synthesize_torus,
    uniform_spacing,
)
from boeq.timestepper import march


def expm_series(a):
    """Scaling-and-squaring Taylor series, independent of eigendecomposition."""
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    b = a / 2 ** s
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_next_fast_len_is_scipys_real_length():
    # every pad and circulant length boeq picks, bit for bit as before
    scipy_fft = pytest.importorskip("scipy.fft")
    targets = range(1, 20001)
    assert [next_fast_len(t) for t in targets] == [
        scipy_fft.next_fast_len(t, real=True) for t in targets]


class TestTorusField:
    def test_from_modes_conjugate_symmetry_exact(self):
        f = TorusField.from_modes(4, {1: 0.3 + 0.7j, 3: -0.2j})
        assert f.coeff(-1) == np.conj(f.coeff(1))
        assert f.coeff(-3) == np.conj(f.coeff(3))

    def test_from_modes_rejects_complex_mean(self):
        with pytest.raises(InvalidFieldError):
            TorusField.from_modes(2, {0: 1.0 + 0.5j})

    @pytest.mark.parametrize("case", ["asymmetric", "complex_mean", "nan"])
    def test_refuses_non_real(self, case):
        c = np.zeros(5, complex)
        if case == "asymmetric":
            c[3] = 1.0  # k = 1 set, k = -1 missing
        elif case == "complex_mean":
            c[2] = 1.0 + 1e-9j
        else:
            c[1] = c[3] = np.nan
        with pytest.raises(InvalidFieldError):
            TorusField(2, c)

    def test_within_tolerance_is_stored_exactly_symmetric(self):
        c = np.array([0.5 - 0.25j, 0.1 + 0.2j, 2.0, 0.1 - 0.2j, 0.5 + 0.25j])
        c[3] += 0.4 * SYMMETRY_TOL * (1 + 1j)
        c[2] += 0.4j * SYMMETRY_TOL
        f = TorusField(2, c)
        np.testing.assert_array_equal(f.coeffs[::-1], np.conj(f.coeffs))
        assert f.coeff(0).imag == 0.0
        np.testing.assert_allclose(f.coeffs, c, rtol=0, atol=SYMMETRY_TOL)

    def test_exactly_symmetric_is_kept_bit_for_bit(self, rng):
        h = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        h[0] = h[0].real
        h[3] = -0.0 - 2.0j
        c = np.concatenate([np.conj(h[:0:-1]), h])
        assert TorusField(6, c).coeffs.tobytes() == c.tobytes()

    def test_hardy_is_a_read_only_view_and_mean_is_c0(self):
        f = TorusField.from_modes(3, {0: 1.25, 2: 0.5j})
        np.testing.assert_array_equal(f.hardy, [1.25, 0, 0.5j, 0])
        assert f.mean == 1.25
        with pytest.raises(ValueError):
            f.hardy[1] = 1.0

    @pytest.mark.parametrize("source", ["preset", "samples", "truncated", "march"])
    def test_from_hardy_inverts_hardy(self, source):
        u = torus_preset("twomode", 16, a=1.0, b=0.5)
        if source == "samples":
            x = TWO_PI * np.arange(40) / 40
            u = field_from_samples(np.exp(np.sin(x)), max_mode=16)
        elif source == "truncated":
            u = u.truncated(24)
        elif source == "march":
            u = march([u], [0.05], 1e-3)[0][0.05]
        back = TorusField.from_hardy(u.hardy, u.max_mode)
        assert back.max_mode == u.max_mode
        np.testing.assert_array_equal(back.coeffs, u.coeffs)

    def test_from_hardy_pads_above_its_modes(self):
        f = TorusField.from_hardy([0.5, 0.25j], 3)
        np.testing.assert_array_equal(f.coeffs, [0, 0, -0.25j, 0.5, 0.25j, 0, 0])
        with pytest.raises(ValueError):
            TorusField.from_hardy([1.0, 0.0, 0.0], 1)

    def test_effective_band(self):
        f = TorusField.from_modes(8, {2: 1.0, 5: 1e-20})
        assert f.effective_band() == 2

    def test_truncated_pads_cuts_and_keeps_itself(self):
        f = TorusField.from_modes(4, {0: 0.5, 1: 0.3 + 0.7j, 3: -0.2j})
        assert f.truncated(4) is f
        wide = f.truncated(6)
        assert wide.max_mode == 6
        assert [wide.coeff(k) for k in range(-6, 7)] == [f.coeff(k) for k in range(-6, 7)]
        narrow = f.truncated(2)
        assert narrow.max_mode == 2
        np.testing.assert_array_equal(narrow.coeffs, f.coeffs[2:7])


class TestProjectHardy:
    """The Hardy projection Pu, ``TorusField.hardy``."""

    def test_two_cos(self):
        u = TorusField.from_modes(4, {1: 1.0})  # 2 cos x
        assert np.allclose(u.hardy, [0, 1, 0, 0, 0])

    def test_constant(self):
        u = TorusField.from_modes(3, {0: 2.5})
        assert np.allclose(u.hardy, [2.5, 0, 0, 0])

    def test_mixed_modes(self):
        # 2 cos x + 4 sin 2x has e^{2ix} coefficient -2i
        u = TorusField.from_modes(4, {1: 1.0, 2: -2.0j})
        assert np.allclose(u.hardy, [0, 1, -2j, 0, 0])


class TestSynthesize:
    def test_single_mode_gives_cosine(self):
        x = TWO_PI * np.arange(16) / 16
        np.testing.assert_allclose(synthesize_torus(np.array([0, 1, 0]), 0.0, 16), 2 * np.cos(x),
                                   atol=1e-13)

    def test_constant(self):
        np.testing.assert_allclose(synthesize_torus(np.array([1.5, 0, 0]), 1.5, 8), np.full(8, 1.5),
                                   atol=1e-14)

    def test_roundtrip_random_field(self, rng):
        n = 12
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, n + 1)}
        modes[0] = rng.standard_normal()
        u = TorusField.from_modes(n, modes)
        samples = synthesize_torus(u.hardy, u.mean, 64)
        back = field_from_samples(samples, max_mode=n)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    def test_roundtrip_on_band_limited_samples(self, rng):
        # band-limit first: 40 samples can only carry modes |k| <= 19
        raw = field_from_samples(rng.standard_normal(40))
        samples = synthesize_torus(raw.hardy, raw.mean, 40)
        f = field_from_samples(samples)
        again = synthesize_torus(f.hardy, f.mean, 40)
        np.testing.assert_allclose(again, samples, atol=1e-12)


class TestFieldFromSamples:
    def test_cosine_modes(self):
        x = TWO_PI * np.arange(32) / 32
        f = field_from_samples(np.cos(x))
        assert abs(f.coeff(1) - 0.5) < 1e-14
        assert abs(f.coeff(-1) - 0.5) < 1e-14

    def test_constant(self):
        f = field_from_samples(np.full(16, 3.0))
        assert abs(f.coeff(0) - 3.0) < 1e-14
        assert np.max(np.abs(np.delete(f.coeffs, f.max_mode))) < 1e-14

    def test_exp_cos_against_quadrature(self):
        # oracle: c_k = (1/2pi) int exp(cos x) e^{-ikx} dx by adaptive quadrature
        x = TWO_PI * np.arange(256) / 256
        f = field_from_samples(np.exp(np.cos(x)))
        for k in (0, 1, 2, 5):
            re = quad(lambda s: np.exp(np.cos(s)) * np.cos(k * s), 0, TWO_PI, limit=200)[0]
            im = quad(lambda s: -np.exp(np.cos(s)) * np.sin(k * s), 0, TWO_PI, limit=200)[0]
            oracle = (re + 1j * im) / TWO_PI
            assert abs(f.coeff(k) - oracle) < 1e-10

    def test_nonfinite_rejected(self):
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(IngestionError):
            field_from_samples(bad)


class TestOperatorMatrix:
    def test_hermitian_tag_requires_exact(self):
        a = np.array([[1.0, 1e-16j], [0, 1.0]])
        with pytest.raises(ValueError):
            OperatorMatrix(a, tag="hermitian")

    def test_unitary_tag_tolerance(self):
        OperatorMatrix(np.eye(3), tag="unitary")
        with pytest.raises(ValueError):
            OperatorMatrix(1.001 * np.eye(3), tag="unitary")

    def test_entries_readonly(self):
        m = OperatorMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestHermitianEvolution:
    def test_zero_matrix_gives_identity(self):
        a = OperatorMatrix(np.zeros((4, 4)), tag="hermitian")
        u = hermitian_evolution(a, 0.7)
        np.testing.assert_allclose(u.entries, np.eye(4), atol=1e-14)

    def test_diagonal_at_pi(self):
        a = OperatorMatrix(np.diag([0.0, 1.0, 2.0]), tag="hermitian")
        u = hermitian_evolution(a, np.pi)
        np.testing.assert_allclose(u.entries, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_random_hermitian_matches_series_oracle(self, rng):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (h + h.conj().T)
        h = 0.5 * (h + h.conj().T)  # idempotent: exact symmetry
        a = OperatorMatrix(h, tag="hermitian")
        tau = 0.7
        u = hermitian_evolution(a, tau)
        oracle = expm_series(1j * tau * h)
        assert np.max(np.abs(u.entries - oracle)) < 1e-10

    def test_unitarity_of_large_evolution(self, rng):
        h = rng.standard_normal((32, 32))
        h = 500.0 * (h + h.T) / 2
        a = OperatorMatrix(h.astype(complex), tag="hermitian")
        u = hermitian_evolution(a, 10.0)
        assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(32))) < 1e-10

    def test_group_law(self, rng):
        h = rng.standard_normal((6, 6))
        h = (h + h.T) / 2
        a = OperatorMatrix(h.astype(complex), tag="hermitian")
        u1 = hermitian_evolution(a, 0.3).entries
        u2 = hermitian_evolution(a, 1.1).entries
        u12 = hermitian_evolution(a, 1.4).entries
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10

    def test_eigen_system_reconstructs(self, rng):
        h = rng.standard_normal((10, 10))
        h = (h + h.T) / 2
        es = eigen_system(OperatorMatrix(h.astype(complex), tag="hermitian"))
        v = es.eigenvectors.entries
        assert np.max(np.abs((v * es.eigenvalues) @ v.conj().T - h)) < 1e-12


class TestHalfLineSpectrum:
    def test_grid_and_tail(self):
        vals = np.exp(-np.arange(11) * 4.0)
        grid = LineGrid(10 * 0.5, 0.5)
        s = grid.spectrum(vals)
        assert s.grid is grid
        assert s.grid.xi[3] == 1.5
        assert s.tail_fraction() == pytest.approx(np.exp(-40.0))
        assert not s.values.flags.writeable

    def test_cutoff_mismatch_rejected(self):
        # the grid of cutoff 5 and step 0.5 has 11 nodes, not 7
        with pytest.raises(ValueError, match="one value per node"):
            HalfLineSpectrum(LineGrid(5.0, 0.5), np.zeros(7))
        with pytest.raises(ValueError, match="one value per node"):
            LineGrid(5.0, 0.5).spectrum(np.zeros((11, 1)))


class TestUniformSpacing:
    def test_spacing_of_a_uniform_grid(self):
        assert uniform_spacing(np.linspace(-3.0, 3.0, 13)) == pytest.approx(0.5)

    @pytest.mark.parametrize("x", [
        np.linspace(3.0, -3.0, 13),
        np.array([0.0, 1.0, 2.0, 3.5, 4.5]),
        np.array([0.0, 1.0, 1.0, 2.0]),
        np.array([0.0, 1.0, np.nan, 3.0]),
        np.array([0.0]),
    ], ids=["decreasing", "nonuniform", "repeated", "nan", "single"])
    def test_refused(self, x):
        with pytest.raises(IngestionError):
            uniform_spacing(x)
