import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.integrate import quad

import boeq.line_operators as lo
import boeq.spectral as spectral
from boeq.checks import check_line_identities
from boeq.errors import ConditioningError, ConfigurationError, DomainError
from boeq.line_operators import (
    LineField,
    LineGrid,
    ResolventEvaluator,
    generator_apply,
    iplus,
    toeplitz_apply,
    toeplitz_line,
)
from boeq.line_solution import evaluate_uhp
from boeq.presets import line_preset

TWO_PI = 2.0 * np.pi


def lorentzian():
    return line_preset("lorentzian", c=1.0).field


def lax_line(u0, grid):
    """L_{u0} = D - T_{u0} with D = diag(xi_j), in the weighted frame."""
    return np.diag(grid.xi) - toeplitz_line(u0.hardy(grid))


@dataclass(frozen=True)
class LineResolventSystem:
    """Dense gauge-frame discretization of (G - 2t L_{u0} - z) f = Pu0.

    ``matrix`` includes the -z shift on the first M diagonal entries and the
    decay closure row ``g(Xi) = 0`` in place of the last equation; ``rhs`` is
    the gauge-transformed weighted Hardy datum; ``gauge`` the unit-modulus
    diagonal ``e^{i t xi^2}``.  The reference that ``ResolventEvaluator``'s
    elimination of the closure node is checked against.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    gauge: np.ndarray


def gauge_operator(u0, t, grid):
    """A = G_w + 2t P T_w P* in the weighted gauge frame (without -z), built
    densely in place in the Toeplitz matrix: the reference for the
    matrix-free products of ``ResolventEvaluator``."""
    phase = lo._gauge_phase(grid, t)
    a = toeplitz_line(u0.hardy(grid))
    a *= phase[:, None]
    a *= np.conj(phase)[None, :]
    a *= 2.0 * t
    g = lo._generator_stencil(grid)
    j = np.arange(grid.count)
    a[j, j] += g.diag
    a[j[:-1], j[1:]] += g.sup
    a[j[1:], j[:-1]] += g.sub
    a[0, 2] += g.head
    a[-1, -3] += g.tail
    return a


def resolvent_system(u0, t, z, grid):
    """Assemble the dense square system with its closure row."""
    n = grid.count
    a = gauge_operator(u0, t, grid)
    a[np.arange(n - 1), np.arange(n - 1)] -= z
    a[n - 1, :] = 0.0
    a[n - 1, n - 1] = 1.0
    rhs = lo._gauge_rhs(u0.hardy(grid), t)
    rhs[-1] = 0.0
    return LineResolventSystem(matrix=a, rhs=rhs, gauge=lo._gauge_phase(grid, t))


def dense_solution(u0, t, z, grid):
    """fhat from a dense solve of :func:`resolvent_system`, closure row included."""
    sys = resolvent_system(u0, t, z, grid)
    g = np.linalg.solve(sys.matrix, sys.rhs)
    return np.conj(sys.gauge) * (g / grid.sqrt_weights)


class TestGrid:
    def test_counts(self):
        g = LineGrid(40.0, 0.02)
        assert g.count == 2001
        assert g.xi[-1] == pytest.approx(40.0)

    def test_refinement(self):
        g = LineGrid(40.0, 0.04).refined(2)
        assert g.step == pytest.approx(0.02)
        assert g.cutoff == 40.0

    def test_weights(self):
        w = LineGrid(1.0, 0.1).weights
        assert w[0] == 0.5 and w[-1] == 0.5 and np.all(w[1:-1] == 1.0)


def collocation_generator(grid):
    """f -> G f on raw samples, through the weighted product G_w."""
    apply = generator_apply(grid)
    return lambda f: apply(grid.sqrt_weights * f) / grid.sqrt_weights


def stencil_to_dense(g):
    """G_w as a dense matrix, from its stencil record."""
    dense = np.diag(g.diag) + np.diag(g.sup, 1) + np.diag(g.sub, -1)
    dense[0, 2], dense[-1, -3] = g.head, g.tail
    return dense


def gauge_operator_reference(u0, t, grid, gw):
    """G_w + 2t P T_w P* as the dense expression the in-place assembly replaces."""
    phase = lo._gauge_phase(grid, t)
    coupling = phase[:, None] * toeplitz_line(u0.hardy(grid)) * np.conj(phase)[None, :]
    return gw + 2.0 * t * coupling


class TestGMatrix:
    """The generator G = i d/dxi acting on raw samples."""

    def test_exponential_derivative_second_order(self):
        g = LineGrid(20.0, 0.01)
        f = np.exp(-g.xi)
        err = np.max(np.abs(collocation_generator(g)(f) - (-1j) * np.exp(-g.xi)))
        assert err < 2.0 * 0.01 ** 2

    def test_linear_function_exact_inside(self):
        g = LineGrid(10.0, 0.05)
        r = collocation_generator(g)(g.xi.astype(complex))
        np.testing.assert_allclose(r[1:-1], 1j * np.ones(g.count - 2), atol=1e-12)

    def test_halving_h_quarters_error(self):
        errs = []
        for h in (0.02, 0.01):
            g = LineGrid(20.0, h)
            f = np.exp(-g.xi ** 2).astype(complex)
            exact = 1j * (-2 * g.xi) * np.exp(-g.xi ** 2)
            errs.append(np.max(np.abs(collocation_generator(g)(f) - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestGeneratorBand:
    # 9 nodes (the fewest the stencil allows), 10, 41 and 801
    GRIDS = [LineGrid(8.0, 1.0), LineGrid(9.0, 1.0), LineGrid(8.0, 0.2), LineGrid(16.0, 0.02)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"M{g.count}")
    def test_band_is_dense_stencil_on_all_rows(self, grid, dense_generator):
        # both closure rows included: row 0 (columns 0..2) and row M
        dense = stencil_to_dense(lo._generator_stencil(grid))
        ref = dense_generator(grid)
        assert np.max(np.abs(dense - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(dense[0, :3] != 0) and np.all(dense[-1, -3:] != 0)

    @pytest.mark.parametrize("t", [0.5, -0.3])
    @pytest.mark.parametrize("grid", [LineGrid(20.0, 0.1), LineGrid(16.0, 0.02)],
                             ids=lambda g: f"M{g.count}")
    def test_gauge_operator_equals_dense_sum_bitwise(self, grid, t, dense_generator):
        # the dense reference the matrix-free products are pinned to: its
        # in-place assembly from the stencil record equals the plain dense sum
        u0 = lorentzian()
        a = gauge_operator(u0, t, grid)
        assert np.array_equal(a, gauge_operator_reference(u0, t, grid, dense_generator(grid)))

    # Im z from near the real axis to far above it, with |Re z| inside and
    # beyond the stencil's bandwidth 1/h = 20
    BLOCK_POINTS = [0.2 + 0.8j, 0.2 + 1e-3j, 25.0 + 1e-3j, -25.0 + 0.8j, 21.0 + 50.0j,
                    -30.0 + 50.0j, 0.2 + 50.0j]

    def test_band_solve_matches_dense_stencil_block(self, dense_generator):
        # the preconditioner factors rows/columns 0..M-1 of the stencil,
        # which leave out the closure row and column M
        grid = LineGrid(25.0, 0.05)
        rhs = lo._gauge_rhs(lorentzian().hardy(grid), 0.0)[:-1]
        m = grid.last
        gw, stencil = dense_generator(grid)[:m, :m], lo._generator_stencil(grid)
        for z in self.BLOCK_POINTS:
            g = lo._tridiagonal_preconditioner(stencil, z)(rhs)
            assert np.linalg.norm((gw - z * np.eye(m)) @ g - rhs) <= 1e-12 * np.linalg.norm(rhs), z

    def test_row_zero_elimination_keeps_the_dense_solution(self, rng, dense_generator):
        # row 0 minus alpha times row 1 drops G_w[0, 2] from the factor; the
        # same operation on the right-hand side leaves the solution of the
        # untouched block
        grid = LineGrid(25.0, 0.05)
        m = grid.last
        gw, stencil = dense_generator(grid)[:m, :m], lo._generator_stencil(grid)
        assert stencil.head != 0.0
        rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for z in self.BLOCK_POINTS:
            want = np.linalg.solve(gw - z * np.eye(m), rhs)
            got = lo._tridiagonal_preconditioner(stencil, z)(rhs)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), z


def sampled_field():
    x = np.linspace(-12.0, 12.0, 97)
    return LineField.from_samples(x, np.exp(-x ** 2) * (1.0 + 0.3 * x))


MATRIX_FREE_FIELDS = {
    "lorentzian": lorentzian,
    "gaussian": lambda: line_preset("gaussian", a=1.0, w=1.0).field,
    "sampled": sampled_field,
}


class TestToeplitzLine:
    def test_zero_symbol(self):
        zero = line_preset("zero").field
        t = toeplitz_line(zero.hardy(LineGrid(5.0, 0.5)))
        assert np.all(t == 0)

    def test_exactly_hermitian(self):
        t = toeplitz_line(lorentzian().hardy(LineGrid(20.0, 0.05)))
        assert np.array_equal(t, t.conj().T)

    @pytest.mark.parametrize("field", sorted(MATRIX_FREE_FIELDS))
    def test_mirror_is_the_transform_at_negative_frequencies(self, field):
        # the half-line samples, mirrored by conjugation, give the kernel
        # uhat(xi_j - xi_k) that the datum's own transform gives there
        u0 = MATRIX_FREE_FIELDS[field]()
        grid = LineGrid(6.0, 0.25)
        xi = grid.xi
        kernel = np.asarray(u0.spectrum_fn((xi[:, None] - xi[None, :]).ravel()))
        s = grid.sqrt_weights
        want = kernel.reshape(grid.count, grid.count) * (grid.step / TWO_PI) * np.outer(s, s)
        np.testing.assert_allclose(toeplitz_line(u0.hardy(grid)), want, rtol=1e-13, atol=1e-16)

    def test_weighted_action_is_trapezoid_collocation(self):
        # unweighting the weighted matvec must reproduce the literal
        # trapezoid sum with endpoint weights h/2
        grid = LineGrid(10.0, 0.25)
        u0 = lorentzian()
        f = np.exp(-grid.xi).astype(complex)
        via_matrix = toeplitz_line(u0.hardy(grid)) @ (grid.sqrt_weights * f) / grid.sqrt_weights
        m = grid.last
        vals = u0.spectrum_fn(np.arange(-m, m + 1) * grid.step)  # uhat on both sides
        w = grid.weights * grid.step
        direct = np.array([
            np.sum(vals[j - np.arange(grid.count) + m] * f * w) / TWO_PI
            for j in range(grid.count)
        ])
        np.testing.assert_allclose(via_matrix, direct, rtol=1e-13, atol=1e-15)

    def test_rows_match_adaptive_quadrature(self):
        # quadrature oracle for (T f)(xi) = (1/2pi) int uhat(xi-eta) fhat(eta) d eta
        # with uhat = 2pi e^{-|z|}, fhat = e^{-eta}; trapezoid at step h matches
        # the adaptive integral to 1e-8 once h ~ 6e-5
        h = 6.25e-5
        cutoff = 30.0
        eta = np.arange(int(round(cutoff / h)) + 1) * h
        w = np.full(eta.size, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        fhat = np.exp(-eta)
        for xi in (0.5, 5.0, 12.0):
            row = np.exp(-np.abs(xi - eta))  # uhat / 2pi
            rule = float(np.sum(row * fhat * w))
            oracle = quad(
                lambda s: np.exp(-abs(xi - s)) * np.exp(-s), 0.0, cutoff,
                points=[xi], limit=400,
            )[0]
            assert abs(rule - oracle) < 1e-8

    def test_default_grid_row_accuracy(self):
        # at the working resolution the same comparison holds to O(h^2)
        grid = LineGrid(30.0, 0.02)
        u0 = lorentzian()
        f = np.exp(-grid.xi).astype(complex)
        out = toeplitz_line(u0.hardy(grid)) @ (grid.sqrt_weights * f) / grid.sqrt_weights
        j = grid.count // 3
        xi = grid.xi[j]
        oracle = quad(lambda s: np.exp(-abs(xi - s)) * np.exp(-s), 0.0, 30.0,
                      points=[xi], limit=400)[0]
        assert abs(out[j].real - oracle) < 5.0 * 0.02 ** 2


class TestMatrixFreeProducts:
    # M = 17 and 40 nodes (odd and even), 81 and 200 for a longer kernel
    GRIDS = [LineGrid(8.0, 0.5), LineGrid(7.8, 0.2), LineGrid(8.0, 0.1), LineGrid(19.9, 0.1)]

    @staticmethod
    def _random_vectors(rng, n):
        return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"M{g.count}")
    @pytest.mark.parametrize("field", sorted(MATRIX_FREE_FIELDS))
    def test_toeplitz_apply_matches_dense(self, rng, grid, field):
        samples = MATRIX_FREE_FIELDS[field]().hardy(grid)  # one sampling for both
        dense = toeplitz_line(samples)
        apply = toeplitz_apply(samples)
        for v in self._random_vectors(rng, grid.count):
            ref = dense @ v
            assert np.linalg.norm(apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"M{g.count}")
    def test_generator_apply_matches_dense(self, rng, grid, dense_generator):
        dense = dense_generator(grid)
        apply = generator_apply(grid)
        for v in self._random_vectors(rng, grid.count):
            ref = dense @ v
            assert np.linalg.norm(apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_zero_field_gives_exact_zeros(self, rng):
        grid = LineGrid(8.0, 0.1)
        apply = toeplitz_apply(line_preset("zero").field.hardy(grid))
        for v in self._random_vectors(rng, grid.count):
            assert np.all(apply(v) == 0.0)

    def test_generator_needs_stencil_room(self):
        # the grid itself refuses fewer nodes than the stencils need
        with pytest.raises(ConfigurationError, match="M >= 8"):
            LineGrid(7.0, 1.0)

    def test_line_identities_allocate_no_dense_matrix(self):
        # one M x M complex array at M = 2001 is 61 MiB; the products need
        # a few vectors of length M and one FFT buffer of length ~2M
        grid = LineGrid(40.0, 0.02)
        tracemalloc.start()
        try:
            check_line_identities(lorentzian(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestToeplitzClosedForm:
    """T_w against a closed form that reaches its first column: for
    lorentzian:c=1, uhat = 2 pi e^{-|xi|}, and the raw vector e^{-xi} goes to
    (T f)(xi) = (1/2pi) int_0^oo uhat(xi - eta) e^{-eta} d eta
    = (xi + 1/2) e^{-xi}, on Xi = 40 up to e^{-40}."""

    H = [0.08, 0.04, 0.02]

    @staticmethod
    def _interior_error(h):
        grid = LineGrid(40.0, h)
        xi, sw = grid.xi, grid.sqrt_weights
        got = toeplitz_apply(lorentzian().hardy(grid))(sw * np.exp(-xi)) / sw
        return float(np.max(np.abs(got - (xi + 0.5) * np.exp(-xi))[2:grid.count - 2]))

    @pytest.mark.parametrize("h", H)
    def test_within_half_h_squared(self, h):
        # measured: 0.142 h^2, 0.154 h^2 and 0.160 h^2
        assert self._interior_error(h) <= 0.5 * h ** 2

    @pytest.mark.parametrize("h", H)
    def test_product_that_drops_node_zero_fails(self, monkeypatch, h):
        # the fault that every report of check_line_identities passes at
        # h = 0.04 errs by 5.2 h^2, 11.4 h^2 and 23.9 h^2 here
        product = lo._circulant_product

        def drops_node_zero(kernel, left, right, x):
            left = left.copy()
            left[0] = 0.0
            return product(kernel, left, right, x)

        monkeypatch.setattr(lo, "_circulant_product", drops_node_zero)
        assert self._interior_error(h) > 0.5 * h ** 2


def _faulty_product(monkeypatch, fault):
    """Swap one of the two shared line products for a faulty one."""
    if fault == "generator_drops_head":  # G_w x without its G_w[0, 2] term
        product = lo._generator_product
        monkeypatch.setattr(lo, "_generator_product",
                            lambda g, x, z=0.0: product(replace(g, head=0.0), x, z))
    else:  # the circulant product read one node off
        def shifted(kernel, left, right, x):
            return right * np.fft.ifft(kernel * np.fft.fft(left * x, kernel.size))[1:x.size + 1]

        monkeypatch.setattr(lo, "_circulant_product", shifted)


class TestSharedProducts:
    """``validate``'s line checks and the resolvent run the same G_w and
    circulant products, so a fault in either fails a check and moves the
    solver's values."""

    @pytest.mark.parametrize("fault", ["generator_drops_head", "circulant_off_by_one"])
    def test_faulty_product_fails_a_check_and_moves_the_solver(self, monkeypatch, fault):
        grid = LineGrid(40.0, 0.04)
        u0, z = lorentzian(), 0.3 + 0.8j

        def observe():
            reports = check_line_identities(u0, grid)
            return reports, ResolventEvaluator(u0.hardy(grid), 0.5).value(z)

        reports, value = observe()
        assert all(r.passed for r in reports)
        _faulty_product(monkeypatch, fault)
        reports, moved = observe()
        assert not all(r.passed for r in reports)
        assert abs(moved - value) > 1e-6 * abs(value)


class TestSampledTransform:
    # 2048 samples onto the default grid (M = 2001): the full phase matrix
    # exp(-i xi x) would be 2001 x 2048 complex numbers, 62.5 MiB
    X = np.linspace(-20.0, 20.0, 2048)

    @classmethod
    def _field(cls):
        return LineField.from_samples(cls.X, np.exp(-cls.X ** 2) * (1.0 + 0.3 * cls.X))

    def test_matches_direct_trapezoid_sum(self):
        grid = LineGrid()
        u = np.exp(-self.X ** 2) * (1.0 + 0.3 * self.X)
        w = np.full(self.X.size, self.X[1] - self.X[0])
        w[[0, -1]] *= 0.5
        direct = np.exp(-1j * np.outer(grid.xi, self.X)) @ (w * u)
        got = self._field().hardy(grid).values
        assert np.linalg.norm(got - direct) <= 1e-14 * np.linalg.norm(direct)

    def test_allocates_no_phase_matrix(self):
        grid = LineGrid()
        field = self._field()
        tracemalloc.start()
        try:
            field.hardy(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestLaxLine:
    def test_zero_field_is_frequency_diagonal(self):
        zero = line_preset("zero").field
        grid = LineGrid(5.0, 0.5)
        np.testing.assert_array_equal(lax_line(zero, grid), np.diag(grid.xi))

    def test_hermitian(self):
        grid = LineGrid(10.0, 0.1)
        lm = lax_line(lorentzian(), grid)
        assert np.max(np.abs(lm - lm.conj().T)) < 1e-12

    def test_nine_node_hand_values(self):
        grid = LineGrid(8.0, 1.0)  # nodes 0..8, the fewest a grid takes
        lm = lax_line(lorentzian(), grid)
        nodes = np.arange(9)
        sw = np.sqrt([0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
        kernel = np.exp(-np.abs(np.subtract.outer(nodes, nodes)))
        expected = np.diag(nodes.astype(float)) - kernel * np.outer(sw, sw)
        np.testing.assert_allclose(lm, expected, atol=1e-14)


class TestIPlus:
    def test_exponential(self):
        grid = LineGrid(20.0, 0.01)
        s = grid.spectrum(np.exp(-grid.xi))
        assert iplus(s) == pytest.approx(1.0)
        assert iplus(s, extrapolate=True) == pytest.approx(1.0, abs=1e-5)

    def test_vanishing_boundary(self):
        grid = LineGrid(20.0, 0.01)
        s = grid.spectrum(grid.xi * np.exp(-grid.xi))
        assert iplus(s) == 0.0
        assert abs(iplus(s, extrapolate=True)) < 1e-5

    def test_hardy_part_of_lorentzian(self):
        grid = LineGrid(40.0, 0.02)
        assert iplus(lorentzian().hardy(grid)) == pytest.approx(TWO_PI)


class TestResolventSolve:
    def test_zero_datum_gives_zero(self):
        zero = line_preset("zero").field
        f = ResolventEvaluator(zero.hardy(LineGrid(10.0, 0.05)), 0.0).hardy_solution(1j)
        assert np.max(np.abs(f.values)) == 0.0

    def test_domain_error(self):
        ev = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.05)), 0.0)
        with pytest.raises(DomainError):
            ev.hardy_solution(1.0 - 0.1j)

    @pytest.mark.parametrize("t", [0.0, 0.35])
    @pytest.mark.parametrize("z", [complex(0.0, np.nan), complex(np.nan, 1.0),
                                   complex(np.inf, 1.0), complex(0.0, np.inf)])
    def test_non_finite_point_is_a_domain_error(self, t, z):
        ev = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.08)), t)
        with pytest.raises(DomainError):
            ev.value(z)

    def test_nan_banded_solve_fails_residual_check(self, monkeypatch):
        # a NaN residual must fail the check, not slip past a "> tol" test
        from types import SimpleNamespace

        monkeypatch.setattr(lo, "lapack", SimpleNamespace(
            zgttrf=lo.lapack.zgttrf,
            zgttrs=lambda dl, d, du, du2, piv, b, **kw: (np.full_like(b, np.nan), 0)))
        for t in (0.0, 0.35):
            ev = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.08)), t)
            with pytest.raises(ConditioningError):
                ev.hardy_solution(1j)

    def test_tail_precondition(self):
        with pytest.raises(ConfigurationError):
            ResolventEvaluator(lorentzian().hardy(LineGrid(4.0, 0.05)), 0.0)

    def test_t0_against_closed_form(self):
        # i f' - i f = 2pi e^{-xi} with decay has f = i pi e^{-xi}
        grid = LineGrid(40.0, 0.001)
        f = ResolventEvaluator(lorentzian().hardy(grid), 0.0).hardy_solution(1j)
        exact = 1j * np.pi * np.exp(-grid.xi)
        assert np.max(np.abs(f.values[:-1] - exact[:-1])) < 1e-6

    def test_t0_against_variation_of_constants_quadrature(self):
        # oracle: f(xi) = i int_xi^inf e^{i z (eta - xi)} ghat(eta) d eta
        grid = LineGrid(40.0, 0.002)
        z = 0.4 + 0.8j
        f = ResolventEvaluator(lorentzian().hardy(grid), 0.0).hardy_solution(z)
        for j in (0, 500, 3000):
            xi = grid.xi[j]
            val = 1j * quad(
                lambda s: np.exp(1j * z * (s - xi)) * TWO_PI * np.exp(-s),
                xi, np.inf, complex_func=True, limit=400,
            )[0]
            assert abs(f.values[j] - val) < 2e-5

    def test_full_convolution_self_convergence(self):
        u0 = lorentzian()
        vals = []
        for h in (0.08, 0.04, 0.02):
            f = ResolventEvaluator(u0.hardy(LineGrid(40.0, h)), 0.4).hardy_solution(0.3 + 0.9j)
            vals.append(iplus(f, extrapolate=True))
        # successive-difference ratio is 4 for a clean O(h^2) scheme
        ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert 2.8 < ratio < 5.5

    def test_system_invariants(self):
        grid = LineGrid(25.0, 0.05)
        sys = resolvent_system(lorentzian(), 0.3, 0.2 + 0.7j, grid)
        assert np.max(np.abs(np.abs(sys.gauge) - 1.0)) < 1e-14
        assert sys.matrix.shape == (grid.count, grid.count)
        # full dense solve agrees with the fast path
        fast = ResolventEvaluator(lorentzian().hardy(grid), 0.3).hardy_solution(0.2 + 0.7j)
        np.testing.assert_allclose(dense_solution(lorentzian(), 0.3, 0.2 + 0.7j, grid),
                                   fast.values, atol=1e-10)

    def test_closure_node_is_zero(self):
        f = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.04)), 0.2).hardy_solution(1j)
        assert f.values[-1] == 0.0

    def test_generator_row_at_cutoff_reaches_no_solver_output(self, monkeypatch):
        # The solver works on rows and columns 0..M-1 of the gauge
        # operator; the decay closure g(Xi) = 0 replaces the generator's
        # one-sided row at xi = Xi, so that row cannot move its outputs.
        grid = LineGrid(25.0, 0.1)
        u0, t, zs = lorentzian(), 0.5, (1j, 0.5 + 0.6j)

        def outputs():
            ev = ResolventEvaluator(u0.hardy(grid), t)
            return [ev.hardy_solution(z).values for z in zs]

        before = outputs()
        a_before = gauge_operator(u0, t, grid)
        stencil = lo._generator_stencil

        def first_order_row(grid):
            g = stencil(grid)
            m, sw = grid.last, grid.sqrt_weights
            diag, sub = g.diag.copy(), g.sub.copy()
            diag[m] = 1j / grid.step
            sub[m - 1] = -1j / grid.step * (sw[m] / sw[m - 1])
            return replace(g, diag=diag, sub=sub, tail=0.0)

        monkeypatch.setattr(lo, "_generator_stencil", first_order_row)
        a_after = gauge_operator(u0, t, grid)
        assert not np.array_equal(a_after[-1], a_before[-1])  # the row did change
        np.testing.assert_array_equal(a_after[:-1], a_before[:-1])
        for value0, value1 in zip(before, outputs()):
            np.testing.assert_array_equal(value1, value0)

    def test_banded_t0_path_matches_dense_system(self):
        grid = LineGrid(25.0, 0.05)
        z = 0.1 + 0.9j
        fast = ResolventEvaluator(lorentzian().hardy(grid), 0.0).hardy_solution(z)
        np.testing.assert_allclose(fast.values, dense_solution(lorentzian(), 0.0, z, grid),
                                   atol=1e-11)


class TestResolventEvaluator:
    @pytest.mark.parametrize("t", [0.0, 0.35, -0.3, 0.5, 2.0, 8.0])
    def test_matches_direct_solve(self, t):
        # the dense system with its closure row, solved directly
        grid = LineGrid(40.0, 0.08)
        u0 = lorentzian()
        ev = ResolventEvaluator(u0.hardy(grid), t)
        for z in (1j, 0.5 + 0.6j, -1.2 + 0.3j, 0.3 + 1e-3j):
            want = dense_solution(u0, t, z, grid)
            got = ev.hardy_solution(z).values
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [0.0, 0.5, -0.3])
    def test_matrix_free_product_equals_dense_assembly(self, rng, t):
        grid = LineGrid(16.0, 0.04)
        u0 = lorentzian()
        ev = ResolventEvaluator(u0.hardy(grid), t, tail_tol=1e-6)
        m = grid.last
        z = 0.2 + 0.7j
        a = gauge_operator(u0, t, grid)[:m, :m] - z * np.eye(m)
        for _ in range(3):
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            ref = a @ x
            assert np.linalg.norm(ev._apply(x, z) - ref) <= 1e-13 * np.linalg.norm(ref)

    @staticmethod
    def _corrupt_preconditioner(monkeypatch, diagonal, index, value):
        # the product keeps reading the true stencil; only the copy that is
        # factored for the preconditioner changes
        factor = lo._tridiagonal_preconditioner

        def corrupted(g, z):
            entries = getattr(g, diagonal).copy()
            entries[index] = value
            return factor(replace(g, **{diagonal: entries}), z)

        monkeypatch.setattr(lo, "_tridiagonal_preconditioner", corrupted)

    @pytest.mark.parametrize("corruption", ["nan_diagonal", "ill_conditioned"])
    def test_corrupted_band_fails_residual_check(self, monkeypatch, corruption):
        # right preconditioning leaves GMRES's residual that of the true
        # system, but a NaN, or a stencil whose LU loses the digits the
        # estimate counts on, must still be caught by the true residual
        ev = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.08)), 0.35)
        ev.hardy_solution(0.5 + 0.6j)
        if corruption == "nan_diagonal":
            self._corrupt_preconditioner(monkeypatch, "diag", 3, np.nan)
        else:
            self._corrupt_preconditioner(monkeypatch, "sup", 4, 1e13)  # cond(G_w - z) near 1e13
        with pytest.raises(ConditioningError, match="ill-conditioned"):
            ev.hardy_solution(0.5 + 0.6j)

    def test_perturbed_preconditioner_changes_no_value(self, monkeypatch):
        # the preconditioner steers the iteration only: a wrong but
        # well-conditioned factor costs steps, not accuracy
        grid = LineGrid(40.0, 0.08)
        z = 0.5 + 0.6j
        ev = ResolventEvaluator(lorentzian().hardy(grid), 0.35)
        want = ev.value(z)
        self._corrupt_preconditioner(monkeypatch, "sup", 4, 1e3)
        assert abs(ev.value(z) - want) <= 1e-12 * abs(want)

    def test_too_small_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lo, "GMRES_MAX_STEPS", 2)
        ev = ResolventEvaluator(lorentzian().hardy(LineGrid(40.0, 0.08)), 0.5)
        with pytest.raises(ConditioningError, match="did not converge in 2 steps"):
            ev.value(0.3 + 0.5j)

    @pytest.mark.parametrize("case, t", [("t0", 0.0), ("zero_datum", 0.5), ("coupled", 0.5)])
    def test_operator_products_per_point(self, monkeypatch, case, t):
        # x0 = (G_w - z)^-1 b solves the system at t = 0 and for the zero
        # datum, so a point there costs one product, its residual check;
        # otherwise GMRES takes Arnoldi steps between two residual products
        counted = []
        apply = ResolventEvaluator._apply

        def counting(self, x, z):
            counted.append(z)
            return apply(self, x, z)

        monkeypatch.setattr(ResolventEvaluator, "_apply", counting)
        field = line_preset("zero").field if case == "zero_datum" else lorentzian()
        ev = ResolventEvaluator(field.hardy(LineGrid(40.0, 0.08)), t)
        for z in (1j, 0.5 + 1e-3j):
            counted.clear()
            ev.value(z)
            if case == "coupled":
                assert len(counted) > 3
            else:
                assert len(counted) == 1

    def test_gmres_step_ceiling_at_benchmark_configuration(self, monkeypatch):
        # the line workloads' grid (Xi = 16, h = 0.02, M = 801) at t = 0.5,
        # near the real axis: every point takes at most 16 Arnoldi steps
        # (14 at most when written), two products fewer than it makes
        counted = []
        apply = ResolventEvaluator._apply

        def counting(self, x, z):
            counted.append(z)
            return apply(self, x, z)

        monkeypatch.setattr(ResolventEvaluator, "_apply", counting)
        grid = LineGrid(16.0, 0.02)
        steps = []
        for c in (0.9, 1.0, 1.1):
            ev = ResolventEvaluator(line_preset("lorentzian", c=c).field.hardy(grid), 0.5,
                                    tail_tol=1e-6)
            for x in np.linspace(-10.0, 10.0, 41):
                for eps in (1e-3, 2e-3):
                    counted.clear()
                    ev.value(x + 1j * eps)
                    steps.append(len(counted) - 2)
        assert min(steps) > 0 and max(steps) <= 16

    def test_value_is_scaled_boundary_functional(self):
        grid = LineGrid(40.0, 0.04)
        ev = ResolventEvaluator(lorentzian().hardy(grid), 0.0)
        f = ev.hardy_solution(1j)
        assert ev.value(1j) == pytest.approx(
            complex(iplus(f, extrapolate=True) / (2j * np.pi))
        )


class TestDenseMemoryBudget:
    """What replaced the dense memory budget: the solver is matrix-free.
    Every grid is charged ``GRID_NODE_BYTES`` per node, and a t != 0
    evaluator ``KRYLOV_NODE_BYTES`` more, GMRES's Krylov basis among them,
    before anything is allocated."""

    @pytest.fixture
    def tight_budget(self, monkeypatch):
        # a 1 MiB machine: room for the grid arrays of M = 501 and 1001, not
        # for a Krylov basis at M = 501; building the coupling fails loudly
        def no_product(*args, **kwargs):
            raise AssertionError("coupling built past the budget check")

        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2 ** 20)
        monkeypatch.setattr(lo, "_circulant_kernel", no_product)

    @pytest.mark.parametrize("path", ["evaluator", "evaluate_uhp"])
    def test_refused_before_allocation(self, tight_budget, path):
        grid = LineGrid(40.0, 0.08)  # M = 501: the t != 0 resolvent needs 1.2 MB
        with pytest.raises(ConfigurationError, match="physical memory"):
            if path == "evaluator":
                ResolventEvaluator(lorentzian().hardy(grid), 0.3)
            else:
                evaluate_uhp(lorentzian(), 0.3, 1j, grid, refinements=0)

    def test_banded_t0_paths_unaffected(self, tight_budget):
        # at t = 0 the evaluator and every Richardson level of evaluate_uhp
        # are band solves, which need no Krylov basis
        grid = LineGrid(40.0, 0.08)
        ev = ResolventEvaluator(lorentzian().hardy(grid), 0.0)
        assert abs(ev.value(1j) - 0.5) < 1e-3
        assert abs(evaluate_uhp(lorentzian(), 0.0, 1j, grid, refinements=1) - 0.5) < 1e-4

    def test_fitting_resolvent_served_unchanged(self, monkeypatch):
        # room for the t != 0 resolvent at M = 501 but not at M = 1001: the
        # first gives the value of an unconstrained run, the second is refused
        grid = LineGrid(40.0, 0.08)
        want = ResolventEvaluator(lorentzian().hardy(grid), 0.3).value(1j)
        need = (lo.GRID_NODE_BYTES + lo.KRYLOV_NODE_BYTES) * grid.count
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2 * need)
        assert ResolventEvaluator(lorentzian().hardy(grid), 0.3).value(1j) == want
        with pytest.raises(ConfigurationError, match="Krylov basis at M = 1001"):
            ResolventEvaluator(lorentzian().hardy(grid.refined(2)), 0.3)

    def test_estimate_scales_with_grid(self, monkeypatch):
        grid = LineGrid(40.0, 0.08)
        need = lo.GRID_NODE_BYTES * grid.count
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2 * need)
        LineGrid(grid.cutoff, grid.step)
        with pytest.raises(ConfigurationError):
            grid.refined(2)

    @pytest.mark.parametrize("path", ["assembly", "evaluator"])
    def test_peak_within_estimate(self, path):
        grid = LineGrid(16.0, 0.02)  # M = 801
        u0, t, z = lorentzian(), 0.5, 0.3 + 1j
        build = lambda: ResolventEvaluator(u0.hardy(grid), t, tail_tol=1e-6)
        runs = {"assembly": build, "evaluator": lambda: build().hardy_solution(z)}
        tracemalloc.start()
        try:
            runs[path]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (lo.GRID_NODE_BYTES + lo.KRYLOV_NODE_BYTES) * grid.count

    def test_default_evaluate_uhp_allocates_no_dense_array(self):
        # the default Richardson levels reach M = 8001, where one M x M
        # complex array alone would be 977 MiB
        grid = LineGrid()
        finest = grid.refined(4)
        assert finest.count == 8001
        tracemalloc.start()
        try:
            value = evaluate_uhp(lorentzian(), 0.5, 0.3 + 1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak <= (lo.GRID_NODE_BYTES + lo.KRYLOV_NODE_BYTES) * finest.count
