"""Frequency-domain discretization of the line Hardy space.

Functions live on the half-line frequency grid ``xi_j = j h``, ``j = 0..M``,
``Xi = M h``.  Two frames are in play:

- the *collocation* frame of raw samples ``fhat(xi_j)``, in which the
  generator ``G`` acts as ``i d/dxi`` through finite differences and the
  Toeplitz operator as a trapezoid-weighted convolution;
- the *weighted* frame ``g_j = sqrt(wt_j) fhat_j`` with trapezoid weights
  ``wt = (1/2, 1, ..., 1, 1/2)``, related by the exact diagonal similarity
  ``S = diag(sqrt(wt))``.

The convolution matrix returned by :func:`toeplitz_line` lives in the
weighted frame, where the convolution of a real symbol is *exactly*
Hermitian (kernel conjugate symmetry times the symmetric weight
``sqrt(wt_j wt_k)``).  Applying ``S^-1 T S`` to raw samples reproduces the
plain trapezoid collocation sum bit-for-bit, so no quadrature accuracy is
traded for the symmetry.

The weighted generator ``G_w = S G S^-1`` exists only as a band
(:func:`_generator_band`), which :func:`generator_apply` and the
resolvent's product and preconditioner read.  :func:`toeplitz_apply` forms
T_w v in O(M log M); no solver forms the dense Toeplitz matrix.

The resolvent system ``(G - 2t L_{u0} - z) f = Pu0`` is solved in gauge
variables ``ghat = e^{i t xi^2} fhat``, which removes the ``-2t xi`` diagonal
of ``G - 2t D`` exactly and moves phases ``e^{i t (xi^2 - eta^2)}`` into the
convolution kernel.  The only boundary condition is the decay closure
``ghat(Xi) = 0``; no condition is imposed at ``xi = 0`` where a one-sided
stencil runs.  :class:`ResolventEvaluator` is the one solver of that system:
one matrix-free GMRES per point, preconditioned by the band of G_w - z, in
O(M log M) time and O(M) memory at every t.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla  # noqa: F401  (swapped by perfbench/spans.py)
from scipy.linalg import lapack

from .accel import hessenberg_solve_shifted  # noqa: F401  (traced here by perfbench/spans.py)
from .errors import ConditioningError, ConfigurationError, DomainError, IngestionError
from .spectral import TWO_PI, HalfLineSpectrum, check_memory, next_fast_len

__all__ = [
    "LineGrid",
    "LineField",
    "abs_frequency_field",
    "generator_apply",
    "unweight_vector",
    "toeplitz_line",
    "toeplitz_apply",
    "iplus",
    "check_tail",
    "ResolventEvaluator",
]

DEFAULT_CUTOFF = 40.0
DEFAULT_STEP = 0.02
SPECTRAL_TAIL_TOL = 1e-10
SOLVE_TOL = 1e-6
# GMRES stops once its residual estimate is below GMRES_TOL ||b|| and raises
# ConditioningError after GMRES_MAX_STEPS Arnoldi steps without it.
GMRES_TOL = 1e-12
GMRES_MAX_STEPS = 100
# Bytes per node at the peak of a t = 0 solve-line run, with or without its
# scan (tracemalloc, M = 2001 to 20001: 294 to 355).  Every line path holds
# these O(M) arrays; LineGrid checks them before any line array is allocated.
GRID_NODE_BYTES = 400
# Bytes per node that a t != 0 resolvent adds: GMRES's Krylov basis of
# GMRES_MAX_STEPS + 1 complex vectors (1616) and the coupling's FFT buffers.
# A t != 0 run peaks at 2074 to 2170 bytes per node in all (tracemalloc,
# solve-line at M = 2001 to 20001 and evaluate_uhp to M = 8001), 2260 for
# one point at M = 801.  A t != 0 ResolventEvaluator checks GRID_NODE_BYTES
# + KRYLOV_NODE_BYTES per node before it builds anything.
KRYLOV_NODE_BYTES = 16 * (GMRES_MAX_STEPS + 1) + 400
# Bytes of phase factors exp(-i xi x) that LineField.from_samples holds at
# once: its transform runs over row blocks, so no M x N array is formed.
SAMPLE_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class LineGrid:
    """Half-line frequency grid xi_j = j*h, j = 0..M, with Xi = M*h."""

    cutoff: float = DEFAULT_CUTOFF
    step: float = DEFAULT_STEP

    def __post_init__(self):
        if self.cutoff <= 0 or self.step <= 0:
            raise ValueError("cutoff and step must be positive")
        nodes = self.cutoff / self.step + 1
        check_memory(GRID_NODE_BYTES * nodes, f"a line grid of {nodes:.4g} nodes",
                     "enlarge the step or lower the cutoff")
        if self.count < 3:
            raise ValueError("grid needs at least 3 nodes")

    @property
    def count(self) -> int:
        return int(round(self.cutoff / self.step)) + 1

    @property
    def last(self) -> int:
        return self.count - 1

    @property
    def xi(self) -> np.ndarray:
        return np.arange(self.count) * self.step

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights divided by h: (1/2, 1, ..., 1, 1/2)."""
        w = np.ones(self.count)
        w[0] = 0.5
        w[-1] = 0.5
        return w

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weights)

    def refined(self, factor: int = 2) -> "LineGrid":
        return LineGrid(self.cutoff, self.step / factor)

    def spectrum(self, values: np.ndarray) -> HalfLineSpectrum:
        return HalfLineSpectrum(self.cutoff, self.step, values)


@dataclass(frozen=True)
class LineField:
    """Real decaying field on the line, stored through its transform.

    ``two_sided(grid)`` evaluates uhat on the mirrored grid
    ``zeta = d*h, d = -M..M`` (needed by the convolution); the Hardy datum
    is its non-negative half.
    """

    spectrum_fn: Callable[[np.ndarray], np.ndarray]

    def two_sided(self, grid: LineGrid) -> np.ndarray:
        """uhat on zeta = d*h for d = -M..M, conjugate-symmetric exactly."""
        pos = np.asarray(self.spectrum_fn(grid.xi), dtype=np.complex128)
        if pos.shape != (grid.count,):
            raise ValueError("spectrum_fn must return one value per node")
        out = np.empty(2 * grid.count - 1, dtype=np.complex128)
        m = grid.last
        out[m:] = pos
        out[:m] = np.conj(pos[1:][::-1])
        return out

    def hardy(self, grid: LineGrid) -> HalfLineSpectrum:
        """Transform of the Hardy part Pu0 on the half-line grid."""
        pos = np.asarray(self.spectrum_fn(grid.xi), dtype=np.complex128)
        return grid.spectrum(pos)

    @classmethod
    def from_samples(cls, x: np.ndarray, u: np.ndarray) -> "LineField":
        """Trapezoid Fourier transform of uniformly sampled decaying data."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 1 or x.shape != u.shape or x.size < 8:
            raise IngestionError("need matching 1-d x and u arrays with >= 8 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise IngestionError("samples contain non-finite values")
        dx = np.diff(x)
        if np.max(np.abs(dx - dx[0])) > 1e-9 * abs(dx[0]):
            raise IngestionError("x grid must be uniform")
        w = np.full(x.size, dx[0])
        w[0] *= 0.5
        w[-1] *= 0.5

        wu = (w * u).astype(np.complex128)
        rows = max(1, SAMPLE_BLOCK_BYTES // (16 * x.size))

        def fn(xi: np.ndarray) -> np.ndarray:
            xi = np.ravel(xi)
            vals = np.empty(xi.size, dtype=np.complex128)
            for lo in range(0, xi.size, rows):
                phase = np.multiply(-1j, np.outer(xi[lo:lo + rows], x))
                vals[lo:lo + rows] = np.exp(phase, out=phase) @ wu
            return vals

        return cls(fn)


def abs_frequency_field(u: LineField) -> LineField:
    """The field with transform |zeta| uhat(zeta), i.e. |D|u."""

    def fn(xi: np.ndarray) -> np.ndarray:
        return np.abs(xi) * np.asarray(u.spectrum_fn(xi), dtype=np.complex128)

    return LineField(fn)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

def _check_stencil_room(grid: LineGrid):
    if grid.count < 9:
        raise ConfigurationError("differentiation needs M >= 8 nodes")


def _generator_band(grid: LineGrid) -> np.ndarray:
    """G_w = S G S^-1 with G = i d/dxi, in scipy's band layout (l, u) = (2, 2).

    ``ab[2 + i - j, j] = G_w[i, j]`` on all M + 1 rows: second-order central
    rows inside, one-sided closures at 0 (row 0, columns 0..2) and at Xi
    (row M, columns M-2..M).  The only place the stencil is written.
    """
    n = grid.count
    h = grid.step
    c = 1.0 / (2.0 * h)
    sw = grid.sqrt_weights
    ab = np.zeros((5, n), dtype=np.complex128)
    ab[2, 0] = -1.5j / h
    ab[1, 1] = 2.0j / h * (sw[0] / sw[1])
    ab[0, 2] = -0.5j / h * (sw[0] / sw[2])
    ab[1, 2:] = 1j * c * (sw[1:n - 1] / sw[2:])
    ab[3, :n - 2] = -1j * c * (sw[1:n - 1] / sw[:n - 2])
    ab[2, n - 1] = 1.5j / h
    ab[3, n - 2] = -2.0j / h * (sw[n - 1] / sw[n - 2])
    ab[4, n - 3] = 0.5j / h * (sw[n - 1] / sw[n - 3])
    return ab


def _band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for A in scipy's band layout with 2 super- and 2 subdiagonals."""
    out = ab[2] * v
    out[:-1] += ab[1, 1:] * v[1:]
    out[:-2] += ab[0, 2:] * v[2:]
    out[1:] += ab[3, :-1] * v[:-1]
    out[2:] += ab[4, :-2] * v[:-2]
    return out


def unweight_vector(g: np.ndarray, grid: LineGrid) -> np.ndarray:
    return g / grid.sqrt_weights


def toeplitz_line(u0: LineField, grid: LineGrid) -> np.ndarray:
    """Convolution matrix of T_{u0} in the weighted frame; exactly Hermitian
    for real u0.

    Entries ``(1/2pi) uhat(xi_j - xi_k) h sqrt(wt_j wt_k)``; applying
    ``S^-1 T S`` to raw samples is the trapezoid collocation sum with
    endpoint weights h/2.
    """
    vals = u0.two_sided(grid)
    m = grid.last
    j = np.arange(grid.count)
    kernel = vals[j[:, None] - j[None, :] + m]
    s = grid.sqrt_weights
    kernel *= grid.step / TWO_PI
    kernel *= s[:, None] * s[None, :]
    return kernel


def generator_apply(grid: LineGrid) -> Callable[[np.ndarray], np.ndarray]:
    """v -> G_w v, the weighted generator applied in O(M) from its band."""
    _check_stencil_room(grid)
    ab = _generator_band(grid)
    return lambda v: _band_matvec(ab, v)


def toeplitz_apply(u0: LineField, grid: LineGrid) -> Callable[[np.ndarray], np.ndarray]:
    """v -> T_w v, the weighted Toeplitz matrix :func:`toeplitz_line` applied
    in O(M log M) without forming it.

    The two-sided kernel uhat(xi_d), d = -M..M, is embedded in a circulant of
    5-smooth length >= 2M + 1 and transformed once; each product is then one
    forward and one inverse FFT (Chan & Ng, SIAM Review 38, 1996).  Equal to
    the dense product up to rounding, and exactly zero for the zero field.
    """
    n, m = grid.count, grid.last
    size = next_fast_len(2 * m + 1)
    vals = u0.two_sided(grid)
    column = np.zeros(size, dtype=np.complex128)
    column[:m + 1] = vals[m:]       # d = 0..M
    column[size - m:] = vals[:m]    # d = -M..-1, wrapped
    kernel = np.fft.fft(column)
    sw = grid.sqrt_weights
    scale = (grid.step / TWO_PI) * sw

    def apply(v: np.ndarray) -> np.ndarray:
        return scale * np.fft.ifft(kernel * np.fft.fft(sw * v, size))[:n]

    return apply


def iplus(f: HalfLineSpectrum, extrapolate: bool = False) -> complex:
    """Boundary value fhat(0+).

    Reads node 0 directly; with ``extrapolate=True`` a quadratic through
    nodes 1, 2, 3 is evaluated at 0, used for resolvent outputs whose
    boundary row folds node 0 into the one-sided closure.  Either form
    assumes the transform is smooth across the first few nodes.
    """
    v = f.values
    if extrapolate:
        if v.size < 4:
            raise ValueError("extrapolation needs at least 4 nodes")
        return complex(3.0 * v[1] - 3.0 * v[2] + v[3])
    return complex(v[0])


# ---------------------------------------------------------------------------
# gauge resolvent system
# ---------------------------------------------------------------------------

def _gauge_phase(grid: LineGrid, t: float) -> np.ndarray:
    return np.exp(1j * t * grid.xi ** 2)


def _gauge_rhs(hardy: HalfLineSpectrum, t: float, grid: LineGrid) -> np.ndarray:
    return grid.sqrt_weights * (_gauge_phase(grid, t) * hardy.values)


def check_tail(hardy: HalfLineSpectrum, tol: float):
    """Refuse, by :class:`ConfigurationError`, a spectrum whose tail at the
    cutoff exceeds ``tol`` of its peak."""
    tail = hardy.tail_fraction()
    if tail > tol:
        raise ConfigurationError(
            f"spectral tail {tail:.3e} at Xi = {hardy.cutoff:g} exceeds {tol:g}; "
            "enlarge the cutoff"
        )


def check_uhp(z: complex) -> complex:
    """``z`` as a complex number; a non-finite z or Im z <= 0 raises
    :class:`DomainError`."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"z = {z} must be finite with Im z > 0")
    return z


def _band_preconditioner(band: np.ndarray, z: complex) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (G_w - z)^-1 v on nodes 0..M-1, from one LAPACK band LU.

    ``band`` is G_w's band in scipy's layout (:func:`_generator_band`).  The
    (l, u) = (1, 2) band of its leading M x M block goes below the l rows
    that ``zgbtrf`` wants on top for its fill-in.
    """
    m = band.shape[1] - 1
    ab = np.zeros((5, m), dtype=np.complex128, order="F")
    ab[1:] = band[:4, :m]
    ab[4, m - 1] = 0.0  # G_w[M, M-1] lies outside the block
    ab[3] -= z  # the diagonal
    lu, piv, info = lapack.zgbtrf(ab, 1, 2, overwrite_ab=1)
    if info != 0:
        raise ConditioningError(f"preconditioner band is singular (zgbtrf info {info})", np.inf)
    return lambda v: lapack.zgbtrs(lu, 1, 2, v, piv)[0]


def _gmres(
    operator: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    r: np.ndarray,
    stop: float,
) -> np.ndarray:
    """Correction d with ||r - A d|| <= stop, by GMRES on A M^-1 from d = 0.

    Right-preconditioned GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput.
    7, 1986): each Arnoldi step orthogonalizes A M^-1 v_j by two classical
    Gram-Schmidt passes, and Givens rotations keep the least-squares
    residual of the Hessenberg problem, which is the residual of r - A d.
    The iteration stops once that estimate is at most ``stop`` (or is NaN,
    which the caller's residual check then refuses); after
    ``GMRES_MAX_STEPS`` steps without it, :class:`ConditioningError`.
    """
    cap = GMRES_MAX_STEPS
    basis = np.empty((cap + 1, r.size), dtype=np.complex128)
    tri = np.zeros((cap, cap), dtype=np.complex128)  # R of the rotated Hessenberg matrix
    rotations: list[tuple[float, complex]] = []
    beta = float(np.linalg.norm(r))
    g = [complex(beta)]
    basis[0] = r / beta
    for j in range(cap):
        w = operator(precondition(basis[j]))
        q = basis[:j + 1]
        h = np.zeros(j + 1, dtype=np.complex128)
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = (q @ w.conj()).conj()
            w -= c @ q
            h += c
        col = h.tolist()
        sub = float(np.linalg.norm(w))
        for i, (cs, sn) in enumerate(rotations):
            col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                  cs * col[i + 1] - sn.conjugate() * col[i])
        a = col[j]
        rho = math.hypot(abs(a), sub)
        if rho == 0.0:  # A M^-1 maps the Krylov space into a smaller one
            raise ConditioningError("GMRES broke down on a singular operator", np.inf)
        cs, sn = (abs(a) / rho, a / abs(a) * (sub / rho)) if a != 0 else (0.0, 1.0 + 0j)
        rotations.append((cs, sn))
        col[j] = cs * a + sn * sub
        tri[:j + 1, j] = col
        g[j], residual = cs * g[j], -sn.conjugate() * g[j]
        g.append(residual)
        if not abs(residual) > stop:
            y = np.linalg.solve(tri[:j + 1, :j + 1], np.asarray(g[:j + 1]))
            return precondition(y @ basis[:j + 1])
        basis[j + 1] = w / sub
    raise ConditioningError(f"GMRES did not converge in {cap} steps", abs(g[cap]) / beta)


class ResolventEvaluator:
    """Solves (G - 2t L_{u0} - z) f = Pu0 for one (u0, t, grid) and any z.

    Gauge variables remove the -2t*xi diagonal exactly; the decay closure
    ``ghat(Xi) = 0`` is eliminated, leaving the square system
    ``(A - z) g = b`` on nodes 0..M-1 with ``A = G_w + 2t P T_w P*``,
    ``P = diag(e^{i t xi^2})``.  A is never formed: G_w is applied in O(M)
    from its band and T_w by :func:`toeplitz_apply` in O(M log M).
    Each point is one GMRES solve, right-preconditioned by the band LU of
    ``G_w - z``, factored per point in O(M).  It starts from
    ``x0 = (G_w - z)^-1 b``, which at t = 0 (where the preconditioner is the
    operator) and for the zero datum is the solution: no Arnoldi step runs
    there.  Every point checks its true residual against ``SOLVE_TOL``.
    At t != 0 the evaluator first checks ``KRYLOV_NODE_BYTES`` per node,
    the Krylov basis of at most ``GMRES_MAX_STEPS + 1`` vectors and the
    coupling's buffers, on top of the grid's ``GRID_NODE_BYTES``
    (:class:`ConfigurationError` when they do not fit).  A point allocates
    its own work arrays, so one evaluator may serve several threads at a
    time.
    """

    def __init__(
        self,
        u0: LineField,
        t: float,
        grid: LineGrid | None = None,
        tail_tol: float = SPECTRAL_TAIL_TOL,
    ):
        self.grid = grid or LineGrid()
        self.t = float(t)
        if self.t != 0.0:
            check_memory((GRID_NODE_BYTES + KRYLOV_NODE_BYTES) * self.grid.count,
                         f"the line resolvent's Krylov basis at M = {self.grid.count}",
                         "lower the cutoff or enlarge the step")
        hardy = u0.hardy(self.grid)  # one evaluation of the datum for both uses
        check_tail(hardy, tail_tol)
        m = self.grid.last
        _check_stencil_room(self.grid)
        self._band = _generator_band(self.grid)  # G_w, for the product and the preconditioner
        self._rhs = _gauge_rhs(hardy, self.t, self.grid)[:m]
        phase = _gauge_phase(self.grid, self.t)
        phase_conj = self._phase_conj = np.conj(phase)
        self._coupling = None  # 2t P T_w P*, which vanishes at t = 0
        if self.t != 0.0:
            toeplitz = toeplitz_apply(u0, self.grid)
            weight = 2.0 * self.t * phase
            self._coupling = lambda v: weight * toeplitz(phase_conj * v)

    def _apply(self, x: np.ndarray, z: complex) -> np.ndarray:
        """(A - z) x on nodes 0..M-1, with the closure node held at zero."""
        v = np.zeros(self.grid.count, dtype=np.complex128)
        v[:-1] = x
        y = _band_matvec(self._band, v)
        if self._coupling is not None:
            y += self._coupling(v)
        return y[:-1] - z * x

    def hardy_solution(self, z: complex) -> HalfLineSpectrum:
        """fhat samples of the resolvent output at z, Im z > 0."""
        z = check_uhp(z)
        b = self._rhs
        scale = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
        stop = GMRES_TOL * scale
        precondition = _band_preconditioner(self._band, z)
        x = precondition(b)
        r = b - self._apply(x, z)
        if self._coupling is not None and np.linalg.norm(r) > stop:
            x = x + _gmres(lambda v: self._apply(v, z), precondition, r, stop)
            r = b - self._apply(x, z)
        residual = float(np.linalg.norm(r)) / scale
        if not residual <= SOLVE_TOL:  # NaN fails too
            raise ConditioningError("line resolvent solve is ill-conditioned", residual)
        # closure zero g(Xi) = 0, unweight, un-gauge
        return self.grid.spectrum(self._phase_conj * unweight_vector(np.append(x, 0.0), self.grid))

    def value(self, z: complex) -> complex:
        """Pu(t, z): (1/2i pi) I+ of the resolvent output, extrapolated stencil."""
        return iplus(self.hardy_solution(z), extrapolate=True) / (2j * np.pi)
