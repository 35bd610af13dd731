import numpy as np
import pytest

from boeq.errors import InvalidFieldError, TruncationWarning
from boeq.spectral import TorusField
from boeq.torus_operators import (
    abs_derivative_field,
    b_matrix,
    lax_matrix,
    shift_adjoint,
    toeplitz_matrix,
)


def adjoint_defect(a):
    """Largest entry of A - A^dagger."""
    return float(np.max(np.abs(a - a.conj().T)))


def two_cos(n=8):
    return TorusField.from_modes(n, {1: 1.0})  # 2 cos x


def band_field(rng, band=6):
    """A real field of band ``band`` with random modes, a real mode 0 and a
    real mode 1, so some entries of its operators have zero parts."""
    modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(2, band + 1)}
    return TorusField.from_modes(band, {0: rng.standard_normal(), 1: 0.7, **modes})


def test_operators_read_only(rng):
    u = band_field(rng)
    for a in (toeplitz_matrix(u, 8), lax_matrix(u, 8), b_matrix(u, 8), shift_adjoint(8)):
        assert a.dtype == np.complex128 and a.shape == (9, 9)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 5.0


class TestToeplitz:
    def test_two_cos_n2(self):
        t = toeplitz_matrix(two_cos(), 2)
        np.testing.assert_array_equal(t, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_constant_is_scalar(self):
        t = toeplitz_matrix(TorusField.from_modes(2, {0: 1.7}), 3)
        np.testing.assert_array_equal(t, 1.7 * np.eye(4))

    def test_mixed_symbol_entries(self):
        # 2 cos x + 4 sin 2x: bhat(2) = -2i, bhat(-2) = 2i
        b = TorusField.from_modes(4, {1: 1.0, 2: -2.0j})
        t = toeplitz_matrix(b, 2)
        assert t[2, 0] == -2.0j
        assert t[0, 2] == 2.0j

    def test_hermitian_iff_real(self, rng):
        """Hermitian always: a complex symbol is refused at construction."""
        real = TorusField.from_modes(4, {1: 0.3 + 0.2j, 2: -0.5j})
        t = toeplitz_matrix(real, 8)
        assert adjoint_defect(t) == 0.0
        with pytest.raises(InvalidFieldError):
            TorusField(np.array([1.0 + 0.5j, 1.0, 0.0, 0.0, 0.0]))

    def test_out_of_reach_modes_warn(self):
        b = TorusField.from_modes(6, {5: 1.0})
        with pytest.warns(TruncationWarning):
            toeplitz_matrix(b, 2)


class TestLax:
    def test_zero_field(self):
        lm = lax_matrix(TorusField.zero(4), 4)
        np.testing.assert_array_equal(lm, np.diag([0, 1, 2, 3, 4]))

    def test_action_on_constants(self):
        # L_u e_0 = -Pu: column 0 holds the negated Hardy coefficients
        u = TorusField.from_modes(4, {0: 0.5, 1: 0.25 - 0.1j, 2: 0.3j})
        lm = lax_matrix(u, 4)
        np.testing.assert_allclose(lm[:, 0], -u.hardy, atol=1e-15)

    def test_two_cos_hand_matrix(self):
        lm = lax_matrix(two_cos(), 2)
        np.testing.assert_array_equal(
            lm, [[0, -1, 0], [-1, 1, -1], [0, -1, 2]]
        )

    def test_exactly_hermitian(self, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, 5)}
        u = TorusField.from_modes(6, modes)
        assert adjoint_defect(lax_matrix(u, 12)) == 0.0

    @pytest.mark.parametrize("n", [3, 16, 65])
    def test_matches_index_gather_reference(self, n, rng):
        # D - T with T gathered by an index array, bit for bit: zero signs
        # included, which a negated T (-0.0 where T holds +0.0) would break
        u = band_field(rng)
        j = np.arange(n + 1)
        t = u.truncated(n).coeffs[j[:, None] - j[None, :] + n]
        reference = np.diag(np.arange(n + 1).astype(np.complex128)) - t
        lm = lax_matrix(u, n)
        assert lm.flags.c_contiguous
        assert lm.tobytes() == reference.tobytes()
        assert toeplitz_matrix(u, n).tobytes() == t.tobytes()

    def test_allocates_one_matrix(self, rng):
        # the strided Toeplitz view allocates no matrix of its own: the
        # result is the only (n + 1) x (n + 1) array
        import tracemalloc

        n = 512
        u = band_field(rng)
        tracemalloc.start()
        try:
            lm = lax_matrix(u, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lm.shape == (n + 1, n + 1)
        assert peak <= 1.1 * lm.nbytes


class TestBMatrix:
    def test_zero(self):
        bm = b_matrix(TorusField.zero(3), 3)
        assert np.all(bm == 0)

    def test_constant(self):
        bm = b_matrix(TorusField.from_modes(2, {0: 1.5}), 3)
        np.testing.assert_allclose(bm, -1j * 2.25 * np.eye(4), atol=1e-15)

    def test_two_cos_hand_matrix(self):
        bm = b_matrix(two_cos(), 2)
        expected = 1j * np.array([[-1, 1, -1], [1, -2, 1], [-1, 1, -1]])
        np.testing.assert_allclose(bm, expected, atol=1e-15)

    def test_exactly_antihermitian(self, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, 6)}
        u = TorusField.from_modes(8, modes)
        bm = b_matrix(u, 16)
        assert np.array_equal(bm, -bm.conj().T)

    def test_abs_derivative(self):
        u = TorusField.from_modes(3, {0: 2.0, 1: 1.0, 3: 0.5j})
        d = abs_derivative_field(u)
        np.testing.assert_array_equal(d.hardy, [0.0, 1.0, 0.0, 1.5j])
        assert d.coeffs[0] == np.conj(d.hardy[3])


class TestShift:
    def test_action(self):
        s = shift_adjoint(2)
        np.testing.assert_array_equal(s @ np.array([1.0, 2.0, 3.0]), [2, 3, 0])

    def test_kills_constants(self):
        s = shift_adjoint(3)
        assert np.all(s @ np.array([1.0, 0, 0, 0]) == 0)

    def test_isometry_identity(self):
        s = shift_adjoint(5)
        np.testing.assert_array_equal(s @ s.T, np.diag([1, 1, 1, 1, 1, 0]))
        np.testing.assert_array_equal(s.T @ s, np.diag([0, 1, 1, 1, 1, 1]))
        # S* S = I with S the transpose of S*
        np.testing.assert_array_equal(s @ s.conj().T, np.diag([1.0, 1, 1, 1, 1, 0]))


class TestFiniteSectionIdentities:
    @pytest.mark.parametrize("n", [3, 17, 63])
    def test_adjoint_leibniz_exact_for_all_truncations(self, n):
        s = shift_adjoint(n)
        d = np.diag(np.arange(n + 1).astype(complex))
        assert np.array_equal(s @ d, d @ s + s)

    @pytest.mark.parametrize("band,n", [(1, 16), (4, 64)])
    def test_toeplitz_shift_commutator_margin(self, band, n, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, band + 1)}
        b = TorusField.from_modes(band, modes)
        s = shift_adjoint(n)
        t = toeplitz_matrix(b, n)
        comm = s @ t - t @ s
        # margin columns: v_0 = 0 so the rank-one term vanishes there
        assert np.max(np.abs(comm[:, band:n - band + 1])) == 0.0
        # against e_0 the identity reads [S*, T_b] e_0 = S* Pb, exactly
        hardy = b.truncated(n).hardy
        np.testing.assert_array_equal(comm[:, 0], np.append(hardy[1:], 0.0))

    @pytest.mark.parametrize("band,n", [(1, 32), (4, 64)])
    def test_lax_bracket_identity_on_margin(self, band, n, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, band + 1)}
        u = TorusField.from_modes(band, modes)
        s = shift_adjoint(n)
        lm, bm = lax_matrix(u, n), b_matrix(u, n)
        lhs = s @ bm - bm @ s
        lp = lm + np.eye(n + 1)
        rhs = 1j * (lp @ lp @ s - s @ lm @ lm)
        cols = slice(2 * band, n - 2 * band + 1)
        assert np.max(np.abs((lhs - rhs)[:, cols])) < 1e-13

    def test_lax_bracket_exact_zero_for_zero_field(self):
        n = 24
        u = TorusField.zero(4)
        s = shift_adjoint(n)
        lm = lax_matrix(u, n)
        bm = b_matrix(u, n)
        lhs = s @ bm - bm @ s
        lp = lm + np.eye(n + 1)
        rhs = 1j * (lp @ lp @ s - s @ lm @ lm)
        assert np.max(np.abs(lhs - rhs)) == 0.0
