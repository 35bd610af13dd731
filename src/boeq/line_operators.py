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
(:func:`_generator_band`), which the t = 0 solves, the t != 0 gauge operator
and :func:`generator_apply` read.  :func:`toeplitz_apply` forms T_w v in
O(M log M); the dense Toeplitz matrix serves the t != 0 solver only.

The resolvent system ``(G - 2t L_{u0} - z) f = Pu0`` is solved in gauge
variables ``ghat = e^{i t xi^2} fhat``, which removes the ``-2t xi`` diagonal
of ``G - 2t D`` exactly and moves phases ``e^{i t (xi^2 - eta^2)}`` into the
convolution kernel.  The only boundary condition is the decay closure
``ghat(Xi) = 0``; no condition is imposed at ``xi = 0`` where a one-sided
stencil runs.  :class:`ResolventEvaluator` is the one solver of that system:
banded O(M) solves at t = 0, otherwise one Hessenberg reduction per
(u0, t, grid) and one band solve per point.
"""
from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .accel import hessenberg_band, hessenberg_of_band, hessenberg_solve_shifted
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
# M x M complex arrays live at once at the peak of the dense t != 0 path
# (tracemalloc, M = 801 and 1201): 3.07 in ResolventEvaluator's Hessenberg
# reduction, 1.52 to assemble A.  3.1 arrays are 2.96 GiB at M = 8001.
DENSE_PEAK_ARRAYS = 3.1
# Bytes per node at the peak of a t = 0 solve-line run, with or without its
# scan (tracemalloc, M = 2001 to 20001: 343 to 388).  Every line path holds
# these O(M) arrays; the t != 0 solver adds the dense ones.
GRID_NODE_BYTES = 400
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
    label: str = "line-field"

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
    def from_spectrum(cls, fn: Callable[[np.ndarray], np.ndarray], label: str = "line-field") -> "LineField":
        return cls(spectrum_fn=fn, label=label)

    @classmethod
    def from_samples(cls, x: np.ndarray, u: np.ndarray, label: str = "sampled") -> "LineField":
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

        return cls(spectrum_fn=fn, label=label)


def abs_frequency_field(u: LineField) -> LineField:
    """The field with transform |zeta| uhat(zeta), i.e. |D|u."""

    def fn(xi: np.ndarray) -> np.ndarray:
        return np.abs(xi) * np.asarray(u.spectrum_fn(xi), dtype=np.complex128)

    return LineField(spectrum_fn=fn, label=f"|D|({u.label})")


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


def _band_matvec(ab: np.ndarray, lower: int, v: np.ndarray) -> np.ndarray:
    """A v for A in scipy's band layout with 2 super- and ``lower`` subdiagonals."""
    out = ab[2] * v
    out[:-1] += ab[1, 1:] * v[1:]
    out[:-2] += ab[0, 2:] * v[2:]
    for k in range(1, lower + 1):
        out[k:] += ab[2 + k, :-k] * v[:-k]
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
    return lambda v: _band_matvec(ab, 2, v)


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


def _check_dense_budget(grid: LineGrid):
    """Refuse a dense assembly whose estimated peak exceeds half the physical memory."""
    check_memory(DENSE_PEAK_ARRAYS * np.dtype(np.complex128).itemsize * grid.count ** 2,
                 f"dense line operator at M = {grid.count}",
                 "lower the cutoff or enlarge the step")


def _gauge_operator(u0: LineField, t: float, grid: LineGrid) -> np.ndarray:
    """A = G_w + 2t P T_w P* in the weighted gauge frame (without -z), built
    in place in the Toeplitz matrix.

    Raises :class:`ConfigurationError` before allocating when the dense
    assembly would not fit the memory budget.
    """
    _check_dense_budget(grid)
    _check_stencil_room(grid)
    phase = _gauge_phase(grid, t)
    a = toeplitz_line(u0, grid)
    a *= phase[:, None]
    a *= np.conj(phase)[None, :]
    a *= 2.0 * t
    ab = _generator_band(grid)
    j = np.arange(grid.count)
    for k in range(-2, 3):  # diagonal A[i, i + k] sits in band row 2 - k
        cols = j[max(k, 0):grid.count + min(k, 0)]
        a[cols - k, cols] += ab[2 - k, cols]
    return a


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


def _solve_reduced_banded(grid: LineGrid, z: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (G_w - z) g = rhs on rows and columns 0..M-1, O(M) in time and memory."""
    m = grid.last
    ab = _generator_band(grid)[:4, :m]  # the (l, u) = (1, 2) band of the leading block
    ab[3, m - 1] = 0.0  # G_w[M, M-1] lies outside the block
    ab[2] -= z
    g = sla.solve_banded((1, 2), ab, rhs)
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    residual = float(np.linalg.norm(_band_matvec(ab, 1, g) - rhs)) / scale
    if not residual <= SOLVE_TOL:  # NaN fails too
        raise ConditioningError("banded resolvent solve is ill-conditioned", residual)
    return g


def check_uhp(z: complex) -> complex:
    """``z`` as a complex number; a non-finite z or Im z <= 0 raises
    :class:`DomainError`."""
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"z = {z} must be finite with Im z > 0")
    return z


class ResolventEvaluator:
    """Solves (G - 2t L_{u0} - z) f = Pu0 for one (u0, t, grid) and any z.

    Gauge variables remove the -2t*xi diagonal exactly; the decay closure
    ``ghat(Xi) = 0`` is eliminated, leaving a shifted square system.  At
    t = 0 the convolution coefficient 2t vanishes and every shift is a
    banded O(M) solve.  Otherwise a one-time Hessenberg reduction
    ``A = Q H Q*`` of the dense operator is computed, unless its memory
    estimate exceeds the budget (:class:`ConfigurationError`); H is kept in
    LAPACK band storage, and each shift costs one LAPACK band solve of
    ``(H - z I)``, O(M^2), checked by its own residual.  The solve
    overwrites a work copy of the band that each calling thread allocates
    once and reuses, so one evaluator may serve several threads at a time.
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
        hardy = u0.hardy(self.grid)  # one evaluation of the datum for both uses
        check_tail(hardy, tail_tol)
        n = self.grid.count
        self._rhs = _gauge_rhs(hardy, self.t, self.grid)[:n - 1]
        self._phase_conj = np.conj(_gauge_phase(self.grid, self.t))
        if self.t == 0.0:
            self._band = None
            self._q = None
        else:
            a_red = _gauge_operator(u0, self.t, self.grid)[:n - 1, :n - 1]
            hess, q = sla.hessenberg(a_red, calc_q=True)
            del a_red  # free each n^2 array once consumed: the peak stays put
            self._band = hessenberg_band(hess)
            del hess
            self._work = threading.local()  # one solve buffer per calling thread
            self._q = q
            self._qh_rhs = (self._rhs.conj() @ q).conj()  # Q* b without a conjugate copy of Q

    def hardy_solution(self, z: complex) -> HalfLineSpectrum:
        """fhat samples of the resolvent output at z, Im z > 0."""
        z = check_uhp(z)
        if self._band is None:
            g = _solve_reduced_banded(self.grid, z, self._rhs)
        else:
            b = self._qh_rhs
            work = getattr(self._work, "band", None)
            if work is None:
                work = self._work.band = np.empty_like(self._band, order="F")
            y = hessenberg_solve_shifted(self._band, z, b, work)
            scale = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
            h_y = hessenberg_of_band(self._band) @ y
            residual = float(np.linalg.norm(h_y - z * y - b)) / scale
            if not residual <= SOLVE_TOL:
                raise ConditioningError("shifted Hessenberg solve is ill-conditioned", residual)
            g = self._q @ y
        # closure zero g(Xi) = 0, unweight, un-gauge
        return self.grid.spectrum(self._phase_conj * unweight_vector(np.append(g, 0.0), self.grid))

    def value(self, z: complex) -> complex:
        """Pu(t, z): (1/2i pi) I+ of the resolvent output, extrapolated stencil."""
        return iplus(self.hardy_solution(z), extrapolate=True) / (2j * np.pi)
