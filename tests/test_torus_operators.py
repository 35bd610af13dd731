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


def adjoint_defect(op):
    """Largest entry of A - A^dagger."""
    return float(np.max(np.abs(op.entries - op.entries.conj().T)))


def two_cos(n=8):
    return TorusField.from_modes(n, {1: 1.0})  # 2 cos x


class TestToeplitz:
    def test_two_cos_n2(self):
        t = toeplitz_matrix(two_cos(), 2)
        np.testing.assert_array_equal(t.entries, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert t.tag == "hermitian"

    def test_constant_is_scalar(self):
        t = toeplitz_matrix(TorusField.from_modes(2, {0: 1.7}), 3)
        np.testing.assert_array_equal(t.entries, 1.7 * np.eye(4))

    def test_mixed_symbol_entries(self):
        # 2 cos x + 4 sin 2x: bhat(2) = -2i, bhat(-2) = 2i
        b = TorusField.from_modes(4, {1: 1.0, 2: -2.0j})
        t = toeplitz_matrix(b, 2)
        assert t.entries[2, 0] == -2.0j
        assert t.entries[0, 2] == 2.0j

    def test_hermitian_iff_real(self, rng):
        """Hermitian always: a complex symbol is refused at construction."""
        real = TorusField.from_modes(4, {1: 0.3 + 0.2j, 2: -0.5j})
        t = toeplitz_matrix(real, 8)
        assert t.tag == "hermitian"
        assert adjoint_defect(t) == 0.0
        c = np.zeros(9, complex)
        c[4 + 1] = 1.0
        c[4 - 1] = 0.5
        with pytest.raises(InvalidFieldError):
            TorusField(4, c)

    def test_out_of_reach_modes_warn(self):
        b = TorusField.from_modes(6, {5: 1.0})
        with pytest.warns(TruncationWarning):
            toeplitz_matrix(b, 2)


class TestLax:
    def test_zero_field(self):
        lm = lax_matrix(TorusField.zero(4), 4)
        np.testing.assert_array_equal(lm.entries, np.diag([0, 1, 2, 3, 4]))

    def test_action_on_constants(self):
        # L_u e_0 = -Pu: column 0 holds the negated Hardy coefficients
        u = TorusField.from_modes(4, {0: 0.5, 1: 0.25 - 0.1j, 2: 0.3j})
        lm = lax_matrix(u, 4)
        hardy = np.array([u.coeff(k) for k in range(5)])
        np.testing.assert_allclose(lm.entries[:, 0], -hardy, atol=1e-15)

    def test_two_cos_hand_matrix(self):
        lm = lax_matrix(two_cos(), 2)
        np.testing.assert_array_equal(
            lm.entries, [[0, -1, 0], [-1, 1, -1], [0, -1, 2]]
        )

    def test_exactly_hermitian(self, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, 5)}
        u = TorusField.from_modes(6, modes)
        assert adjoint_defect(lax_matrix(u, 12)) == 0.0


class TestBMatrix:
    def test_zero(self):
        bm = b_matrix(TorusField.zero(3), 3)
        assert np.all(bm.entries == 0)

    def test_constant(self):
        bm = b_matrix(TorusField.from_modes(2, {0: 1.5}), 3)
        np.testing.assert_allclose(bm.entries, -1j * 2.25 * np.eye(4), atol=1e-15)

    def test_two_cos_hand_matrix(self):
        bm = b_matrix(two_cos(), 2)
        expected = 1j * np.array([[-1, 1, -1], [1, -2, 1], [-1, 1, -1]])
        np.testing.assert_allclose(bm.entries, expected, atol=1e-15)

    def test_exactly_antihermitian(self, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, 6)}
        u = TorusField.from_modes(8, modes)
        bm = b_matrix(u, 16)
        assert np.array_equal(bm.entries, -bm.entries.conj().T)

    def test_abs_derivative(self):
        u = TorusField.from_modes(3, {0: 2.0, 1: 1.0, 3: 0.5j})
        d = abs_derivative_field(u)
        assert d.coeff(0) == 0.0
        assert d.coeff(1) == 1.0
        assert d.coeff(3) == 1.5j
        assert d.coeff(-3) == np.conj(d.coeff(3))


class TestShift:
    def test_action(self):
        s = shift_adjoint(2).entries
        np.testing.assert_array_equal(s @ np.array([1.0, 2.0, 3.0]), [2, 3, 0])

    def test_kills_constants(self):
        s = shift_adjoint(3).entries
        assert np.all(s @ np.array([1.0, 0, 0, 0]) == 0)

    def test_isometry_identity(self):
        s = shift_adjoint(5).entries
        np.testing.assert_array_equal(s @ s.T, np.diag([1, 1, 1, 1, 1, 0]))
        np.testing.assert_array_equal(s.T @ s, np.diag([0, 1, 1, 1, 1, 1]))
        # S* S = I with S the transpose of S*
        np.testing.assert_array_equal(s @ s.conj().T, np.diag([1.0, 1, 1, 1, 1, 0]))


class TestFiniteSectionIdentities:
    @pytest.mark.parametrize("n", [3, 17, 63])
    def test_adjoint_leibniz_exact_for_all_truncations(self, n):
        s = shift_adjoint(n).entries
        d = np.diag(np.arange(n + 1).astype(complex))
        assert np.array_equal(s @ d, d @ s + s)

    @pytest.mark.parametrize("band,n", [(1, 16), (4, 64)])
    def test_toeplitz_shift_commutator_margin(self, band, n, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, band + 1)}
        b = TorusField.from_modes(band, modes)
        s = shift_adjoint(n).entries
        t = toeplitz_matrix(b, n).entries
        comm = s @ t - t @ s
        # margin columns: v_0 = 0 so the rank-one term vanishes there
        assert np.max(np.abs(comm[:, band:n - band + 1])) == 0.0
        # against e_0 the identity reads [S*, T_b] e_0 = S* Pb, exactly
        hardy = np.array([b.coeff(k) for k in range(n + 1)])
        np.testing.assert_array_equal(comm[:, 0], np.append(hardy[1:], 0.0))

    @pytest.mark.parametrize("band,n", [(1, 32), (4, 64)])
    def test_lax_bracket_identity_on_margin(self, band, n, rng):
        modes = {k: rng.standard_normal() + 1j * rng.standard_normal() for k in range(1, band + 1)}
        u = TorusField.from_modes(band, modes)
        s = shift_adjoint(n).entries
        lm, bm = lax_matrix(u, n).entries, b_matrix(u, n).entries
        lhs = s @ bm - bm @ s
        lp = lm + np.eye(n + 1)
        rhs = 1j * (lp @ lp @ s - s @ lm @ lm)
        cols = slice(2 * band, n - 2 * band + 1)
        assert np.max(np.abs((lhs - rhs)[:, cols])) < 1e-13

    def test_lax_bracket_exact_zero_for_zero_field(self):
        n = 24
        u = TorusField.zero(4)
        s = shift_adjoint(n).entries
        lm = lax_matrix(u, n).entries
        bm = b_matrix(u, n).entries
        lhs = s @ bm - bm @ s
        lp = lm + np.eye(n + 1)
        rhs = 1j * (lp @ lp @ s - s @ lm @ lm)
        assert np.max(np.abs(lhs - rhs)) == 0.0
