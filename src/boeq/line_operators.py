"""Frequency-domain discretization of the line Hardy space.

Functions live on the half-line frequency grid ``xi_j = j h``, ``j = 0..M``,
``Xi = M h``.  The datum enters every operator as its samples there, a
:class:`HalfLineSpectrum` that carries its grid, mirrored by
``uhat(-xi) = conj(uhat(xi))`` where a kernel needs both sides.  Two frames
are in play:

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
T_w v in O(M log M) from the circulant of :func:`_circulant_kernel`, which
the resolvent's product reads too; no solver forms the dense Toeplitz
matrix.

The resolvent system ``(G - 2t L_{u0} - z) f = Pu0`` is solved in gauge
variables ``ghat = e^{i t xi^2} fhat``, which removes the ``-2t xi`` diagonal
of ``G - 2t D`` exactly and moves phases ``e^{i t (xi^2 - eta^2)}`` into the
convolution kernel.  The only boundary condition is the decay closure
``ghat(Xi) = 0``; no condition is imposed at ``xi = 0`` where a one-sided
stencil runs.  :class:`ResolventEvaluator` is the one solver of that system:
one matrix-free GMRES per point, preconditioned by a tridiagonal LU of
G_w - z, in O(M log M) time and O(M) memory at every t.
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
from .spectral import TWO_PI, _readonly, check_memory, next_fast_len, uniform_spacing

__all__ = [
    "LineGrid",
    "HalfLineSpectrum",
    "LineField",
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
# scan (tracemalloc, M = 2001 to 20001: 263 to 299).  Every line path holds
# these O(M) arrays; LineGrid checks them before any line array is allocated.
GRID_NODE_BYTES = 400
# Bytes per node that a t != 0 resolvent adds: GMRES's Krylov basis of
# GMRES_MAX_STEPS + 1 complex vectors (1616) and the coupling's FFT buffers.
# A t != 0 run peaks at 2006 to 2051 bytes per node in all (tracemalloc,
# solve-line at M = 2001 to 20001 and evaluate_uhp to M = 8001), 2016 for
# one point at M = 801.  A t != 0 ResolventEvaluator checks GRID_NODE_BYTES
# + KRYLOV_NODE_BYTES per node before it builds anything.
KRYLOV_NODE_BYTES = 16 * (GMRES_MAX_STEPS + 1) + 400
# Bytes of phase factors exp(-i xi x) that LineField.from_samples holds at
# once: its transform runs over row blocks, so no M x N array is formed.
SAMPLE_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class LineGrid:
    """Half-line frequency grid xi_j = j*h, j = 0..M, with Xi = M*h and M >= 8
    (room for the generator's one-sided closures)."""

    cutoff: float = DEFAULT_CUTOFF
    step: float = DEFAULT_STEP

    def __post_init__(self):
        if self.cutoff <= 0 or self.step <= 0:
            raise ValueError("cutoff and step must be positive")
        nodes = self.cutoff / self.step + 1
        check_memory(GRID_NODE_BYTES * nodes, f"a line grid of {nodes:.4g} nodes",
                     "enlarge the step or lower the cutoff")
        if self.count < 9:
            raise ConfigurationError("the generator's difference stencils need "
                                     f"M >= 8 (9 nodes), got M = {self.last}")

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

    def spectrum(self, values: np.ndarray) -> "HalfLineSpectrum":
        return HalfLineSpectrum(self, values)


@dataclass(frozen=True)
class HalfLineSpectrum:
    """Samples ``values[j]`` of a line Hardy-space transform at ``grid.xi[j]``,
    one per node of ``grid``."""

    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.size != self.grid.count:
            raise ValueError(f"need one value per node of the grid ({self.grid.count})")
        object.__setattr__(self, "values", _readonly(v))

    def tail_fraction(self) -> float:
        top = float(np.max(np.abs(self.values)))
        if top == 0.0:
            return 0.0
        return float(np.abs(self.values[-1])) / top


@dataclass(frozen=True)
class LineField:
    """Real decaying field on the line, stored through its transform.

    The operators read it only through ``hardy(grid)``, its samples on
    the half-line grid.
    """

    spectrum_fn: Callable[[np.ndarray], np.ndarray]

    def hardy(self, grid: LineGrid) -> HalfLineSpectrum:
        """Transform of the Hardy part Pu0 on the half-line grid."""
        return grid.spectrum(np.asarray(self.spectrum_fn(grid.xi), dtype=np.complex128))

    @classmethod
    def from_samples(cls, x: np.ndarray, u: np.ndarray) -> "LineField":
        """Trapezoid Fourier transform of uniformly sampled decaying data."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 1 or x.shape != u.shape or x.size < 8:
            raise IngestionError("need matching 1-d x and u arrays with >= 8 samples")
        if not np.all(np.isfinite(u)):
            raise IngestionError("samples contain non-finite values")
        w = np.full(x.size, uniform_spacing(x))
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


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

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


def toeplitz_line(samples: HalfLineSpectrum) -> np.ndarray:
    """Dense convolution matrix of T_{u0} in the weighted frame, from the
    half-line samples of uhat0 on their grid; exactly Hermitian.

    Entries ``(1/2pi) uhat(xi_j - xi_k) h sqrt(wt_j wt_k)``, with
    ``uhat(-xi) = conj(uhat(xi))`` read from the mirrored samples; applying
    ``S^-1 T S`` to raw samples is the trapezoid collocation sum with
    endpoint weights h/2.  The reference for :func:`toeplitz_apply`.
    """
    grid = samples.grid
    vals = np.concatenate([np.conj(samples.values[:0:-1]), samples.values])  # d = -M..M
    m = grid.last
    j = np.arange(grid.count)
    kernel = vals[j[:, None] - j[None, :] + m]
    s = grid.sqrt_weights
    kernel *= grid.step / TWO_PI
    kernel *= s[:, None] * s[None, :]
    return kernel


def generator_apply(grid: LineGrid) -> Callable[[np.ndarray], np.ndarray]:
    """v -> G_w v, the weighted generator applied in O(M) from its band."""
    ab = _generator_band(grid)
    return lambda v: _band_matvec(ab, v)


def _circulant_kernel(samples: HalfLineSpectrum) -> np.ndarray:
    """FFT of the two-sided kernel uhat(xi_d), d = -M..M, the samples and
    their conjugate mirror, embedded in a circulant of 5-smooth length
    >= 2M + 1: T_w v is then one forward and one inverse FFT of that length
    (Chan & Ng, SIAM Review 38, 1996)."""
    m = samples.grid.last
    size = next_fast_len(2 * m + 1)
    column = np.zeros(size, dtype=np.complex128)
    column[:m + 1] = samples.values                       # d = 0..M
    column[size - m:] = np.conj(samples.values[:0:-1])    # d = -M..-1, wrapped
    return np.fft.fft(column)


def toeplitz_apply(samples: HalfLineSpectrum) -> Callable[[np.ndarray], np.ndarray]:
    """v -> T_w v, the weighted Toeplitz matrix :func:`toeplitz_line` applied
    in O(M log M) without forming it, from the half-line samples of uhat0 on
    their grid, through :func:`_circulant_kernel`.  Equal to the dense
    product up to rounding, and exactly zero for the zero field.
    """
    grid = samples.grid
    n = grid.count
    kernel = _circulant_kernel(samples)
    sw = grid.sqrt_weights
    scale = (grid.step / TWO_PI) * sw

    def apply(v: np.ndarray) -> np.ndarray:
        return scale * np.fft.ifft(kernel * np.fft.fft(sw * v, kernel.size))[:n]

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
        return complex(3.0 * v[1] - 3.0 * v[2] + v[3])
    return complex(v[0])


# ---------------------------------------------------------------------------
# gauge resolvent system
# ---------------------------------------------------------------------------

def _gauge_phase(grid: LineGrid, t: float) -> np.ndarray:
    return np.exp(1j * t * grid.xi ** 2)


def _gauge_rhs(hardy: HalfLineSpectrum, t: float) -> np.ndarray:
    grid = hardy.grid
    return grid.sqrt_weights * (_gauge_phase(grid, t) * hardy.values)


def check_tail(hardy: HalfLineSpectrum, tol: float):
    """Refuse, by :class:`ConfigurationError`, a spectrum with a non-finite
    sample or whose tail at the cutoff exceeds ``tol`` of its peak."""
    if not np.all(np.isfinite(hardy.values)):
        raise ConfigurationError("the datum's transform is not finite on the frequency grid")
    tail = hardy.tail_fraction()
    if not tail <= tol:
        raise ConfigurationError(
            f"spectral tail {tail:.3e} at Xi = {hardy.grid.cutoff:g} exceeds {tol:g}; "
            "enlarge the cutoff"
        )


def check_uhp(z: complex) -> complex:
    """``z`` as a complex number; a non-finite z or Im z <= 0 raises
    :class:`DomainError`."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"z = {z} must be finite with Im z > 0")
    return z


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector (NaN stays NaN)."""
    return math.sqrt(np.vdot(v, v).real)


def _tridiagonal_preconditioner(band: np.ndarray, z: complex) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (G_w - z)^-1 v on nodes 0..M-1, from one LAPACK tridiagonal LU.

    ``band`` is G_w's band in scipy's layout (:func:`_generator_band`).  The
    leading M x M block of G_w - z is tridiagonal but for the closure entry
    G_w[0, 2]; subtracting ``alpha = G_w[0, 2] / G_w[1, 2]`` (= -sqrt(wt_0 /
    wt_1) for the stencil, whatever z) times row 1 from row 0 removes it.
    The same row operation is applied to every right-hand side, and the
    tridiagonal rest is factored by ``zgttrf`` (LU with partial pivoting)
    and solved by ``zgttrs``.  An exactly singular factor raises
    :class:`ConditioningError`.
    """
    m = band.shape[1] - 1
    alpha = band[0, 2] / band[1, 2]
    sub = band[3, :m - 1].copy()   # G_w[i + 1, i]
    diag = band[2, :m] - z
    sup = band[1, 1:m].copy()      # G_w[i, i + 1]
    diag[0] -= alpha * sub[0]      # row 0 -= alpha * row 1
    sup[0] -= alpha * diag[1]
    sub, diag, sup, sup2, piv, info = lapack.zgttrf(sub, diag, sup, 1, 1, 1)
    if info != 0:
        raise ConditioningError(f"preconditioner is singular (zgttrf info {info})", np.inf)

    def solve(v: np.ndarray) -> np.ndarray:
        rhs = v.copy()
        rhs[0] -= alpha * v[1]
        return lapack.zgttrs(sub, diag, sup, sup2, piv, rhs, overwrite_b=1)[0]

    return solve


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
    beta = _norm(r)
    g = [complex(beta)]
    np.divide(r, beta, out=basis[0])
    for j in range(cap):
        w = operator(precondition(basis[j]))
        q = basis[:j + 1]
        h = np.zeros(j + 1, dtype=np.complex128)
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = (q @ w.conj()).conj()
            w -= c @ q
            h += c
        col = h.tolist()
        sub = _norm(w)
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
        np.divide(w, sub, out=basis[j + 1])
    raise ConditioningError(f"GMRES did not converge in {cap} steps", abs(g[cap]) / beta)


class ResolventEvaluator:
    """Solves (G - 2t L_{u0} - z) f = Pu0 for one (u0, t) and any z.

    ``samples`` is ``u0.hardy(grid)``, checked against ``tail_tol``: the
    right-hand side Pu0 and, mirrored, the kernel of L_{u0}, on their grid.
    The evaluator never evaluates u0, so the times of one run share one
    sampling.  Gauge variables remove the -2t*xi diagonal exactly; the decay
    closure ``ghat(Xi) = 0`` is eliminated, leaving the square system
    ``(A - z) g = b`` on nodes 0..M-1 with ``A = G_w + 2t P T_w P*``,
    ``P = diag(e^{i t xi^2})``.  A is never formed and acts on the M-node
    block only: G_w from the three diagonals and the corner entry of its
    band in O(M), and 2t P T_w P* as one circulant FFT product in
    O(M log M), with P, the sqrt(wt) scalings and 2t h/2pi folded into one
    vector on each side of it.  Each point is one GMRES solve,
    right-preconditioned by the tridiagonal LU of ``G_w - z``
    (:func:`_tridiagonal_preconditioner`), factored per point in O(M).  It
    starts from ``x0 = (G_w - z)^-1 b``, which at t = 0 (where the
    preconditioner is the operator) and for the zero datum is the solution:
    no Arnoldi step runs there.  Every point checks its true residual
    against ``SOLVE_TOL``.  At t != 0 the evaluator first checks
    ``KRYLOV_NODE_BYTES`` per node, the Krylov basis of at most
    ``GMRES_MAX_STEPS + 1`` vectors and the coupling's buffers, on top of
    the grid's ``GRID_NODE_BYTES`` (:class:`ConfigurationError` when they
    do not fit).  A point allocates its own work arrays, so one evaluator
    may serve several threads at a time.
    """

    def __init__(
        self,
        samples: HalfLineSpectrum,
        t: float,
        tail_tol: float = SPECTRAL_TAIL_TOL,
    ):
        grid = self.grid = samples.grid
        self.t = float(t)
        if self.t != 0.0:
            check_memory((GRID_NODE_BYTES + KRYLOV_NODE_BYTES) * grid.count,
                         f"the line resolvent's Krylov basis at M = {grid.count}",
                         "lower the cutoff or enlarge the step")
        check_tail(samples, tail_tol)
        m = grid.last
        band = self._band = _generator_band(grid)  # G_w, for the product and the preconditioner
        self._diag, self._sup, self._sub = band[2, :m], band[1, 1:m], band[3, :m - 1]
        self._corner = band[0, 2]  # G_w[0, 2], the one entry off the three diagonals
        self._rhs = _gauge_rhs(samples, self.t)[:m]
        self._rhs_norm = max(_norm(self._rhs), np.finfo(float).tiny)
        phase = _gauge_phase(grid, self.t)[:m]
        sw = grid.sqrt_weights[:m]
        self._unweight = np.conj(phase) / sw  # g -> fhat: unweight, un-gauge
        self._kernel = None  # of 2t P T_w P*, which vanishes at t = 0
        if self.t != 0.0:
            self._kernel = _circulant_kernel(samples)
            self._inner = sw * np.conj(phase)
            self._outer = (2.0 * self.t * grid.step / TWO_PI) * sw * phase

    def _apply(self, x: np.ndarray, z: complex) -> np.ndarray:
        """(A - z) x on nodes 0..M-1, with the closure node held at zero."""
        y = self._diag - z
        y *= x
        y[:-1] += self._sup * x[1:]
        y[1:] += self._sub * x[:-1]
        y[0] += self._corner * x[2]
        if self._kernel is not None:
            v = np.fft.ifft(self._kernel * np.fft.fft(self._inner * x, self._kernel.size))
            y += self._outer * v[:x.size]
        return y

    def hardy_solution(self, z: complex) -> HalfLineSpectrum:
        """fhat samples of the resolvent output at z, Im z > 0."""
        z = check_uhp(z)
        b = self._rhs
        stop = GMRES_TOL * self._rhs_norm
        precondition = _tridiagonal_preconditioner(self._band, z)
        x = precondition(b)
        r = b - self._apply(x, z)
        if self._kernel is not None and _norm(r) > stop:
            x += _gmres(lambda v: self._apply(v, z), precondition, r, stop)
            r = b - self._apply(x, z)
        residual = _norm(r) / self._rhs_norm
        if not residual <= SOLVE_TOL:  # NaN fails too
            raise ConditioningError("line resolvent solve is ill-conditioned", residual)
        values = np.zeros(self.grid.count, dtype=np.complex128)  # closure zero g(Xi) = 0
        np.multiply(self._unweight, x, out=values[:-1])
        return self.grid.spectrum(values)

    def value(self, z: complex) -> complex:
        """Pu(t, z): (1/2i pi) I+ of the resolvent output, extrapolated stencil."""
        return iplus(self.hardy_solution(z), extrapolate=True) / (2j * np.pi)
