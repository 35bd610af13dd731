import numpy as np
import pytest
from scipy.integrate import quad

from boeq.errors import IngestionError, InvalidFieldError
from boeq.spectral import (
    TWO_PI,
    HalfLineSpectrum,
    HardyTorusVector,
    OperatorMatrix,
    TorusField,
    eigen_system,
    field_from_samples,
    hermitian_evolution,
    next_fast_len,
    project_hardy,
    synthesize_torus,
)


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
        assert f.symmetry_defect() == 0.0
        assert f.coeff(-1) == np.conj(f.coeff(1))

    def test_from_modes_rejects_complex_mean(self):
        with pytest.raises(ValueError):
            TorusField.from_modes(2, {0: 1.0 + 0.5j})

    def test_effective_band(self):
        f = TorusField.from_modes(8, {2: 1.0, 5: 1e-20})
        assert f.effective_band() == 2


class TestProjectHardy:
    def test_two_cos(self):
        u = TorusField.from_modes(4, {1: 1.0})  # 2 cos x
        p = project_hardy(u)
        assert np.allclose(p.coeffs, [0, 1, 0, 0, 0])

    def test_constant(self):
        u = TorusField.from_modes(3, {0: 2.5})
        p = project_hardy(u)
        assert np.allclose(p.coeffs, [2.5, 0, 0, 0])

    def test_mixed_modes(self):
        # 2 cos x + 4 sin 2x has e^{2ix} coefficient -2i
        u = TorusField.from_modes(4, {1: 1.0, 2: -2.0j})
        p = project_hardy(u)
        assert np.allclose(p.coeffs, [0, 1, -2j, 0, 0])

    def test_symmetry_violation_raises(self):
        c = np.zeros(5, complex)
        c[3] = 1.0  # k=1 set, k=-1 missing
        with pytest.raises(InvalidFieldError):
            project_hardy(TorusField(2, c))


class TestSynthesize:
    def test_single_mode_gives_cosine(self):
        p = HardyTorusVector([0, 1, 0])
        x = TWO_PI * np.arange(16) / 16
        np.testing.assert_allclose(synthesize_torus(p, 0.0, 16), 2 * np.cos(x), atol=1e-13)

    def test_constant(self):
        p = HardyTorusVector([1.5, 0, 0])
        np.testing.assert_allclose(synthesize_torus(p, 1.5, 8), np.full(8, 1.5), atol=1e-14)

    def test_roundtrip_random_field(self, rng):
        n = 12
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, n + 1)}
        modes[0] = rng.standard_normal()
        u = TorusField.from_modes(n, modes)
        samples = synthesize_torus(project_hardy(u), float(u.coeff(0).real), 64)
        back = field_from_samples(samples, max_mode=n)
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    def test_roundtrip_on_band_limited_samples(self, rng):
        # band-limit first: 40 samples can only carry modes |k| <= 19
        raw = field_from_samples(rng.standard_normal(40))
        samples = synthesize_torus(project_hardy(raw), float(raw.coeff(0).real), 40)
        f = field_from_samples(samples)
        again = synthesize_torus(project_hardy(f), float(f.coeff(0).real), 40)
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
        s = HalfLineSpectrum(10 * 0.5, 0.5, vals)
        assert s.size == 11
        assert s.xi[3] == 1.5
        assert s.tail_fraction() == pytest.approx(np.exp(-40.0))

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HalfLineSpectrum(5.0, 0.5, np.zeros(7))
