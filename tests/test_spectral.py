import numpy as np
import pytest
from scipy.integrate import quad

from boeq.errors import IngestionError, InvalidFieldError
from boeq.line_operators import HalfLineSpectrum, LineGrid
from boeq.presets import torus_preset
from boeq.spectral import (
    SYMMETRY_TOL,
    TWO_PI,
    TorusField,
    eigen_system,
    field_from_samples,
    hermitian_evolution,
    next_fast_len,
    synthesize_torus,
    uniform_spacing,
)
from boeq.timestepper import Run, march_runs


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
        c = f.coeffs
        assert c[4 - 1] == np.conj(c[4 + 1])
        assert c[4 - 3] == np.conj(c[4 + 3])

    def test_from_modes_rejects_complex_mean(self):
        with pytest.raises(InvalidFieldError):
            TorusField.from_modes(2, {0: 1.0 + 0.5j})

    @pytest.mark.parametrize("case", ["complex_mean", "nan", "inf", "inf_mean"])
    def test_refuses_non_real(self, case):
        h = np.zeros(3, complex)
        if case == "complex_mean":
            h[0] = 1.0 + 1e-9j
        elif case == "nan":
            h[1] = np.nan
        elif case == "inf":
            h[2] = complex(0.0, np.inf)
        else:
            h[0] = np.inf
        with pytest.raises(InvalidFieldError):
            TorusField(h)

    def test_refuses_too_few_modes(self):
        for h in ([1.0], [], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                TorusField(np.asarray(h, complex))

    def test_within_tolerance_is_stored_exactly_symmetric(self):
        h = np.array([2.0 + 0.4j * SYMMETRY_TOL, 0.1 - 0.2j, 0.5 + 0.25j])
        f = TorusField(h)
        np.testing.assert_array_equal(f.coeffs[::-1], np.conj(f.coeffs))
        assert f.hardy[0] == 2.0 and f.hardy[0].imag == 0.0
        np.testing.assert_array_equal(f.hardy[1:], h[1:])
        h[0] = 2.0 + 0.6j * SYMMETRY_TOL  # 2 |Im c_0| above the tolerance
        with pytest.raises(InvalidFieldError):
            TorusField(h)

    def test_exactly_symmetric_is_kept_bit_for_bit(self, rng):
        # the Hardy half is stored as given, signed zeros included, and a
        # later write to the input does not reach the field
        h = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        h[0] = -0.0
        h[3] = -0.0 - 2.0j
        f = TorusField(h)
        assert f.hardy.tobytes() == h.tobytes()
        h[1] = 9.0
        assert f.hardy[1] != 9.0

    @pytest.mark.parametrize("build", [
        "zero", "from_modes", "from_hardy_padded", "truncated_up", "truncated_down",
        "abs_derivative", "samples",
    ])
    def test_every_builder_gives_the_two_sided_real_field(self, build):
        from boeq.torus_operators import abs_derivative_field

        modes = {0: -0.75, 1: 0.3 + 0.7j, 2: -0.5j, 3: 0.25, 5: complex(-0.0, 0.125)}
        u = TorusField.from_modes(6, modes)
        f = {
            "zero": lambda: TorusField.zero(5),
            "from_modes": lambda: u,
            "from_hardy_padded": lambda: TorusField.from_hardy([0.5, complex(0.25, -0.0), -0.0], 7),
            "truncated_up": lambda: u.truncated(9),
            "truncated_down": lambda: u.truncated(2),
            "abs_derivative": lambda: abs_derivative_field(u),
            "samples": lambda: field_from_samples(np.exp(np.sin(TWO_PI * np.arange(24) / 24))),
        }[build]()
        n = f.max_mode
        c = f.coeffs
        assert c.shape == (2 * n + 1,) and c.dtype == np.complex128
        assert not c.flags.writeable and not f.hardy.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert c[n:].tobytes() == f.hardy.tobytes()
        mirror = np.conj(f.hardy[:0:-1])
        np.testing.assert_array_equal(c[:n], mirror)
        # bit for bit the conjugates, with every zero part +0.0
        assert c[:n].tobytes() == (mirror + 0.0).tobytes()
        assert not np.any(np.signbit(c[:n].view(np.float64)[c[:n].view(np.float64) == 0]))
        assert f.hardy[0].imag == 0.0 and not np.signbit(f.hardy[0].imag)
        assert f.mean == f.hardy[0].real

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
            u = march_runs([Run(u, [0.05], 1e-3)])[0][0.05]
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
        np.testing.assert_array_equal(wide.hardy, np.append(f.hardy, [0, 0]))
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

    def test_returns_float64_that_owns_its_data(self):
        # a view of a complex buffer would hold 16 bytes per sample
        samples = synthesize_torus(np.array([0.5, 1 - 2j, 0.25j]), 0.5, 64)
        assert samples.dtype == np.float64
        assert samples.base is None and samples.flags.owndata
        assert samples.nbytes == 8 * 64

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
        assert abs(f.hardy[1] - 0.5) < 1e-14
        assert abs(f.coeffs[f.max_mode - 1] - 0.5) < 1e-14

    def test_constant(self):
        f = field_from_samples(np.full(16, 3.0))
        assert abs(f.hardy[0] - 3.0) < 1e-14
        assert np.max(np.abs(np.delete(f.coeffs, f.max_mode))) < 1e-14

    def test_exp_cos_against_quadrature(self):
        # oracle: c_k = (1/2pi) int exp(cos x) e^{-ikx} dx by adaptive quadrature
        x = TWO_PI * np.arange(256) / 256
        f = field_from_samples(np.exp(np.cos(x)))
        for k in (0, 1, 2, 5):
            re = quad(lambda s: np.exp(np.cos(s)) * np.cos(k * s), 0, TWO_PI, limit=200)[0]
            im = quad(lambda s: -np.exp(np.cos(s)) * np.sin(k * s), 0, TWO_PI, limit=200)[0]
            oracle = (re + 1j * im) / TWO_PI
            assert abs(f.hardy[k] - oracle) < 1e-10

    def test_nonfinite_rejected(self):
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(IngestionError):
            field_from_samples(bad)


class TestEigenSystem:
    def test_refuses_non_hermitian(self):
        # exact symmetry, not symmetry to rounding: 1e-16j off one side fails
        a = np.array([[1.0, 1e-16j], [0, 1.0]])
        with pytest.raises(ValueError, match="exactly Hermitian"):
            eigen_system(a)
        with pytest.raises(ValueError, match="exactly Hermitian"):
            hermitian_evolution(a, 0.7)

    def test_factors_read_only(self, rng):
        h = rng.standard_normal((5, 5))
        es = eigen_system((h + h.T).astype(complex))
        u = hermitian_evolution((h + h.T).astype(complex), 0.3)
        for a in (es.eigenvalues, es.eigenvectors, u):
            assert not a.flags.writeable


class TestHermitianEvolution:
    def test_zero_matrix_gives_identity(self):
        u = hermitian_evolution(np.zeros((4, 4)), 0.7)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-14)

    def test_diagonal_at_pi(self):
        u = hermitian_evolution(np.diag([0.0, 1.0, 2.0]), np.pi)
        np.testing.assert_allclose(u, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_random_hermitian_matches_series_oracle(self, rng):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (h + h.conj().T)
        h = 0.5 * (h + h.conj().T)  # idempotent: exact symmetry
        tau = 0.7
        u = hermitian_evolution(h, tau)
        oracle = expm_series(1j * tau * h)
        assert np.max(np.abs(u - oracle)) < 1e-10

    def test_unitarity_of_large_evolution(self, rng):
        h = rng.standard_normal((32, 32))
        h = 500.0 * (h + h.T) / 2
        u = hermitian_evolution(h.astype(complex), 10.0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-10

    def test_group_law(self, rng):
        h = rng.standard_normal((6, 6))
        h = (h + h.T) / 2
        a = h.astype(complex)
        u1 = hermitian_evolution(a, 0.3)
        u2 = hermitian_evolution(a, 1.1)
        u12 = hermitian_evolution(a, 1.4)
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10

    def test_eigen_system_reconstructs(self, rng):
        h = rng.standard_normal((10, 10))
        h = (h + h.T) / 2
        es = eigen_system(h.astype(complex))
        v = es.eigenvectors
        assert np.max(np.abs((v * es.eigenvalues) @ v.conj().T - h)) < 1e-12


class TestCoordinates:
    @staticmethod
    def _system(rng, n=12):
        h = rng.standard_normal((n, n))
        return eigen_system(((h + h.T) / 2).astype(complex))

    def test_vector_and_columns_read_only_with_small_residual(self, rng):
        es = self._system(rng)
        v = es.eigenvectors
        b = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        for x, rhs in [(es.coordinates(b), b), (es.coordinates(b[:, 0], refine=True), b[:, 0])]:
            assert not x.flags.writeable
            assert np.max(np.abs(v @ x - rhs)) < 1e-13

    def test_refinement_does_not_grow_residual(self, rng):
        es = self._system(rng, 200)
        v = es.eigenvectors
        b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        plain = np.linalg.norm(v @ es.coordinates(b) - b)
        refined = np.linalg.norm(v @ es.coordinates(b, refine=True) - b)
        assert refined <= plain

    @pytest.mark.parametrize("defect", [1e-8, np.nan])
    def test_non_inverse_factor_fails_residual_check(self, rng, defect):
        # V* is not V^-1 once a column of V is scaled: x = V* b misses b
        from boeq.errors import LinearAlgebraError
        from boeq.spectral import EigenSystem

        es = self._system(rng)
        v = es.eigenvectors.copy()
        v[:, 5] *= 1.0 + defect
        bad = EigenSystem(es.eigenvalues, v)
        with pytest.raises(LinearAlgebraError, match="coordinates residual"):
            bad.coordinates(np.ones(12, dtype=complex))


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
