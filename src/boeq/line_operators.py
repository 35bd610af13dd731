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

The weighted generator ``G_w = S G S^-1`` is stored once, as its three
diagonals and two closure entries (:func:`_generator_stencil`).  Each line
operator has one product, run by :func:`generator_apply`,
:func:`toeplitz_apply` and the resolvent alike: ``(G_w - z) x`` in O(M)
(:func:`_generator_product`) and ``right * C (left * x)`` in O(M log M)
for the circulant C of :func:`_circulant_kernel` (:func:`_circulant_product`);
no solver forms a dense matrix.

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
# Bytes per point of what a run writes, which the commands check before any
# solve (tracemalloc, 2e4 to 1e6 points, manifest checksums included):
# - a solve-line x point: 49 to 52;
# - a --scan point: 208 to 210.
LINE_POINT_BYTES = 64
SCAN_POINT_BYTES = 256
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

@dataclass(frozen=True)
class _GeneratorStencil:
    """G_w = S G S^-1, G = i d/dxi, on all M + 1 rows: ``diag[i] = G_w[i, i]``,
    ``sup[i] = G_w[i, i + 1]``, ``sub[i] = G_w[i + 1, i]`` and the one-sided
    closures' outer entries ``head = G_w[0, 2]``, ``tail = G_w[M, M - 2]``."""

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray
    head: complex
    tail: complex


def _generator_stencil(grid: LineGrid) -> _GeneratorStencil:
    """G_w on ``grid``: second-order central rows inside, one-sided closures
    at 0 and Xi.  The only place the stencil is written."""
    n = grid.count
    h = grid.step
    c = 1.0 / (2.0 * h)
    sw = grid.sqrt_weights
    diag = np.zeros(n, dtype=np.complex128)
    diag[[0, n - 1]] = -1.5j / h, 1.5j / h
    sup = 1j * c * (sw[:n - 1] / sw[1:])
    sup[0] = 2.0j / h * (sw[0] / sw[1])
    sub = -1j * c * (sw[1:] / sw[:n - 1])
    sub[n - 2] = -2.0j / h * (sw[n - 1] / sw[n - 2])
    return _GeneratorStencil(_readonly(diag), _readonly(sup), _readonly(sub),
                             -0.5j / h * (sw[0] / sw[2]), 0.5j / h * (sw[n - 1] / sw[n - 3]))


def _generator_product(g: _GeneratorStencil, x: np.ndarray, z: complex = 0.0) -> np.ndarray:
    """(G_w - z) x on the leading x.size nodes: rows and columns 0..x.size-1,
    so ``tail`` enters only when x holds all M + 1 nodes."""
    n = x.size
    y = g.diag[:n] - z
    y *= x
    y[:-1] += g.sup[:n - 1] * x[1:]
    y[0] += g.head * x[2]
    y[1:] += g.sub[:n - 1] * x[:-1]
    if n == g.diag.size:
        y[-1] += g.tail * x[-3]
    return y


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
    """v -> G_w v on all M + 1 nodes, in O(M) by :func:`_generator_product`."""
    g = _generator_stencil(grid)
    return lambda v: _generator_product(g, v)


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


def _circulant_product(kernel: np.ndarray, left: np.ndarray, right: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """right * C (left * x) on the leading x.size nodes, for the circulant C
    of :func:`_circulant_kernel`: one forward and one inverse FFT."""
    return right * np.fft.ifft(kernel * np.fft.fft(left * x, kernel.size))[:x.size]


def toeplitz_apply(samples: HalfLineSpectrum) -> Callable[[np.ndarray], np.ndarray]:
    """v -> T_w v, the weighted Toeplitz matrix :func:`toeplitz_line` applied
    in O(M log M) without forming it, from the half-line samples of uhat0 on
    their grid, through :func:`_circulant_kernel`.  Equal to the dense
    product up to rounding, and exactly zero for the zero field.
    """
    kernel = _circulant_kernel(samples)
    sw = samples.grid.sqrt_weights
    scale = (samples.grid.step / TWO_PI) * sw
    return lambda v: _circulant_product(kernel, sw, scale, v)


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


def _tridiagonal_preconditioner(g: _GeneratorStencil, z: complex) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (G_w - z)^-1 v on nodes 0..M-1, from one LAPACK tridiagonal LU.

    The leading M x M block of G_w - z is tridiagonal but for the closure
    entry G_w[0, 2]; subtracting ``alpha = G_w[0, 2] / G_w[1, 2]`` (=
    -sqrt(wt_0 / wt_1) for the stencil, whatever z) times row 1 from row 0
    removes it.  The same row operation is applied to every right-hand
    side, and the tridiagonal rest is factored by ``zgttrf`` (LU with
    partial pivoting) and solved by ``zgttrs``.  An exactly singular factor
    raises :class:`ConditioningError`.
    """
    m = g.diag.size - 1
    alpha = g.head / g.sup[1]
    sub = g.sub[:m - 1].copy()
    diag = g.diag[:m] - z
    sup = g.sup[:m - 1].copy()
    diag[0] -= alpha * sub[0]  # row 0 -= alpha * row 1
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
    block only, through the products that :func:`generator_apply` and
    :func:`toeplitz_apply` run: G_w in O(M), and 2t P T_w P* in O(M log M)
    with P, the sqrt(wt) scalings and 2t h/2pi folded into its ``left`` and
    ``right`` vectors.  Each point is one GMRES solve,
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
        self._generator = _generator_stencil(grid)  # for the product and the preconditioner
        self._rhs = _gauge_rhs(samples, self.t)[:m]
        self._rhs_norm = max(_norm(self._rhs), np.finfo(float).tiny)
        phase = _gauge_phase(grid, self.t)[:m]
        sw = grid.sqrt_weights[:m]
        self._unweight = np.conj(phase) / sw  # g -> fhat: unweight, un-gauge
        self._kernel = None  # of 2t P T_w P*, which vanishes at t = 0
        if self.t != 0.0:
            self._kernel = _circulant_kernel(samples)
            self._left = sw * np.conj(phase)
            self._right = (2.0 * self.t * grid.step / TWO_PI) * sw * phase

    def _apply(self, x: np.ndarray, z: complex) -> np.ndarray:
        """(A - z) x on nodes 0..M-1, with the closure node held at zero."""
        y = _generator_product(self._generator, x, z)
        if self._kernel is not None:
            y += _circulant_product(self._kernel, self._left, self._right, x)
        return y

    def hardy_solution(self, z: complex) -> HalfLineSpectrum:
        """fhat samples of the resolvent output at z, Im z > 0."""
        z = check_uhp(z)
        b = self._rhs
        stop = GMRES_TOL * self._rhs_norm
        precondition = _tridiagonal_preconditioner(self._generator, z)
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
