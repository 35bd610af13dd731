"""Discrete representations of fields on the torus and the line.

Conventions used throughout the package:

- Torus inner product ``<f|g> = (1/2pi) int_0^{2pi} f conj(g) dx`` so the
  exponentials ``e^{ikx}`` are orthonormal and coefficients are
  ``c_k = <u|e^{ikx}>``.
- A torus field is real: ``c_{-k} = conj(c_k)`` with real ``c_0``.
  :class:`TorusField` stores only its Hardy part, the projection ``Pu``:
  the read-only array ``TorusField.hardy`` = ``(c_0, ..., c_N)``, whose
  ``c_0``, the mean, is stored real.  Its constructor refuses a non-finite
  coefficient or a mean whose imaginary part exceeds ``SYMMETRY_TOL / 2``
  (:class:`InvalidFieldError`); the negative modes exist only in the
  derived two-sided ``TorusField.coeffs``, so there is no symmetry to
  check or repair.  :func:`synthesize_torus`, the operators and the
  propagator take the Hardy half as it is, and read the mean from c_0:
  no mean is passed or stored beside a Hardy half.
- On the line, spectra are sampled on the half-line frequency grid
  ``xi_j = j*h``, ``j = 0..M`` (``line_operators.HalfLineSpectrum``).
- Dense torus operators are plain read-only arrays, exactly Hermitian or
  anti-Hermitian by construction; :func:`eigen_system` refuses one that is
  not exactly Hermitian and checks its own factors.
- The dense torus factors, the eigenvectors V of ``eigen_system``, the
  eigenbasis coordinates of ``EigenSystem.coordinates`` and the evolution
  of ``hermitian_evolution``, have entries below ``FLUSH_BELOW`` set to
  exact zero before they are checked, so n^3 products with them never meet
  subnormal numbers.
- A torus field is transformed by real FFTs only: :func:`synthesize_torus`
  is one ``irfft`` of the Hardy half and :func:`field_from_samples` one
  ``rfft`` of the samples, as in the stepper.
- :func:`check_memory` refuses, before it allocates, a job whose estimated
  peak exceeds half the physical memory (a configuration error, exit 2).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, IngestionError, InvalidFieldError, LinearAlgebraError

TWO_PI = 2.0 * np.pi

SYMMETRY_TOL = 1e-12
UNITARY_TOL = 1e-12
EIG_TOL = 1e-12
# Entries of the dense torus factors below this magnitude are set to zero:
# a product of two entries at or above it is a normal number, while products
# of smaller ones fall into the subnormal range, which slows every n^3
# product with the factor several-fold on common CPUs.
FLUSH_BELOW = float(np.sqrt(np.finfo(float).tiny))


def _flush_tiny(a: np.ndarray) -> np.ndarray:
    """Set entries of ``a`` with ``|x| < FLUSH_BELOW`` to zero, in place."""
    a[np.abs(a) < FLUSH_BELOW] = 0.0
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(nbytes: float, what: str, remedy: str):
    """Refuse a job whose estimated peak of ``nbytes`` exceeds half the
    physical memory, by :class:`ConfigurationError`, before it allocates."""
    total = _physical_memory()
    if total is not None and 2 * nbytes > total:
        raise ConfigurationError(
            f"{what} needs about {nbytes / 2**30:.2f} GiB, more than half of the "
            f"{total / 2**30:.2f} GiB of physical memory; {remedy}"
        )


# ---------------------------------------------------------------------------
# torus types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusField:
    """Real periodic field, stored as its Hardy half ``hardy`` = (c_0, ..., c_N).

    Real by construction: the negative modes are never stored, and the
    two-sided ``coeffs`` derives them as c_{-k} = conj(c_k).  The
    constructor takes a read-only complex128 copy of ``hardy`` (N >= 1)
    with c_0 stored real; it refuses, by :class:`InvalidFieldError`, a
    non-finite coefficient or a mean with ``2 |Im c_0| > SYMMETRY_TOL``.
    """

    hardy: np.ndarray  # complex128, (c_0, ..., c_N), the projection Pu

    def __post_init__(self):
        h = np.array(self.hardy, dtype=np.complex128)
        if h.ndim != 1 or h.size < 2:
            raise ValueError("need the Hardy coefficients c_0, ..., c_N with N >= 1")
        if not np.all(np.isfinite(h)):
            raise InvalidFieldError("a torus field's coefficients must be finite")
        if not 2.0 * abs(h[0].imag) <= SYMMETRY_TOL:
            raise InvalidFieldError(
                f"mean c_0 = {h[0]} is not real to {SYMMETRY_TOL:g}; a torus field is real"
            )
        h[0] = h[0].real
        h.setflags(write=False)
        object.__setattr__(self, "hardy", h)

    @classmethod
    def zero(cls, max_mode: int) -> "TorusField":
        return cls(np.zeros(max_mode + 1, dtype=np.complex128))

    @classmethod
    def from_hardy(cls, hardy: np.ndarray, max_mode: int | None = None) -> "TorusField":
        """The real field whose modes 0..K are ``hardy`` = (c_0, ..., c_K),
        at truncation ``max_mode`` (default K); modes above K are zero."""
        h = np.asarray(hardy, dtype=np.complex128)
        n = h.size - 1 if max_mode is None else max_mode
        if h.ndim != 1 or not 1 <= h.size <= n + 1:
            raise ValueError(f"need 1 to {n + 1} Hardy coefficients for max_mode {n}")
        padded = np.zeros(n + 1, dtype=np.complex128)
        padded[:h.size] = h
        return cls(padded)

    @classmethod
    def from_modes(cls, max_mode: int, modes: Mapping[int, complex]) -> "TorusField":
        """Build a real field from coefficients on modes k >= 0; the others
        are zero."""
        h = np.zeros(max_mode + 1, dtype=np.complex128)
        for k, val in modes.items():
            if k < 0:
                raise ValueError("specify modes k >= 0; negatives are implied")
            if k > max_mode:
                raise ValueError(f"mode {k} exceeds max_mode {max_mode}")
            h[k] = val
        return cls(h)

    @property
    def max_mode(self) -> int:
        """The truncation N."""
        return self.hardy.size - 1

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only two-sided coefficients c_k, k = -N..N, at index k + N;
        c_{-k} = conj(c_k), with its zero parts written as +0.0."""
        h = self.hardy
        c = np.concatenate([np.conj(h[:0:-1]) + 0.0, h])
        c.setflags(write=False)
        return c

    @property
    def mean(self) -> float:
        """The zeroth coefficient c_0, real."""
        return float(self.hardy[0].real)

    def truncated(self, n: int) -> "TorusField":
        """This field at truncation n: modes above n cut, missing ones zero;
        the field itself when n is its own ``max_mode``."""
        if n == self.max_mode:
            return self
        return TorusField.from_hardy(self.hardy[:n + 1], n)

    def effective_band(self, rel_tol: float = 1e-12) -> int:
        """Largest k whose coefficient exceeds rel_tol * max |c|."""
        mags = np.abs(self.hardy)
        live = np.flatnonzero(mags > rel_tol * mags.max())
        return int(live[-1]) if live.size else 0


# ---------------------------------------------------------------------------
# eigensystems
# ---------------------------------------------------------------------------

def _checked_unitary(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` made read-only, once ``max |A* A - I| <= UNITARY_TOL``;
    otherwise, or on NaN, :class:`LinearAlgebraError`."""
    gram = a.conj().T @ a
    gram.flat[::a.shape[0] + 1] -= 1.0
    defect = float(np.max(np.abs(gram)))
    if not defect <= UNITARY_TOL:  # NaN fails too
        raise LinearAlgebraError(f"{what} unitary defect above tolerance", defect)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Checked ``A = V Lambda V*`` of a Hermitian array, from :func:`eigen_system`."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def coordinates(self, b: np.ndarray, refine: bool = False) -> np.ndarray:
        """Read-only coordinates ``x = V* b`` of a vector, or of each column
        of a matrix, in the eigenbasis.

        With ``refine``, one refinement step ``x += V* (b - V x)`` follows,
        which takes up most of the rounding by which V* misses V^-1.  Entries
        below ``FLUSH_BELOW`` are flushed to zero, then x is checked by its
        residual ``max |V x - b| <= EIG_TOL max |b|``; a larger or NaN one
        raises :class:`LinearAlgebraError`.
        """
        v = self.eigenvectors
        x = v.conj().T @ b
        if refine:
            x += v.conj().T @ (b - v @ x)
        _flush_tiny(x)
        defect = v @ x
        defect -= b
        scale = max(float(np.max(np.abs(b))), np.finfo(float).tiny)
        residual = float(np.max(np.abs(defect)))
        if not residual <= EIG_TOL * scale:  # NaN fails too
            raise LinearAlgebraError("eigenbasis coordinates residual above tolerance", residual)
        x.setflags(write=False)
        return x


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target, a length at which real FFTs run
    fast; the value ``scipy.fft.next_fast_len(target, real=True)`` returns."""
    if target < 1:
        raise ValueError(f"target must be at least 1, got {target}")
    best = 1 << (target - 1).bit_length()  # the power of two >= target
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)  # ceil(target / p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Bytes per torus sample for each float64 sample array a run holds at its
# peak, as the commands count them: 8, and one for fixed costs.  Traced
# peaks (N = 16, 2e5 and 1e6 samples, checksums included) per sample:
# solve-torus 16.2-16.8 at one time (2 arrays), 32.1-32.7 at three (4), with
# --method both 24.1-24.7 (3) and 56.1-56.7 (7); compare 16.1-16.6 (2).
TORUS_SAMPLE_BYTES = 9


def synthesize_torus(hardy: np.ndarray, n_samples: int) -> np.ndarray:
    """Samples of ``p + conj(p) - Re c_0`` on the uniform grid of [0, 2pi),
    where ``p`` has the Hardy coefficients ``hardy`` = (c_0, ..., c_N): the
    real field whose mean is Re c_0.

    One real inverse FFT of the Hardy half, which reads only Re c_0; the
    result is a fresh float64 array.
    """
    n_modes = len(hardy) - 1
    if n_samples < 2 * n_modes + 1:
        raise ValueError(
            f"need at least {2 * n_modes + 1} samples to resolve {n_modes} modes"
        )
    return np.fft.irfft(hardy, n_samples, norm="forward")


def uniform_spacing(x: np.ndarray) -> float:
    """The spacing of sample positions ``x``, which must be finite, strictly
    increasing and uniform to 1e-9 of the spacing; otherwise
    :class:`IngestionError`."""
    dx = np.diff(np.asarray(x, dtype=float))
    if not (dx.size and np.all(np.isfinite(dx)) and np.all(dx > 0)):
        raise IngestionError("x column must be finite and increase strictly")
    if np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0]:
        raise IngestionError("x grid must be uniform")
    return float(dx[0])


def field_from_samples(samples: np.ndarray, max_mode: int | None = None) -> TorusField:
    """Discrete Fourier coefficients of real samples on a uniform [0, 2pi) grid.

    Uses ``c_k = (1/2pi) int u e^{-ikx} dx`` realized as a real FFT, one
    value per Hardy coefficient c_0, ..., c_K.
    """
    s = np.asarray(samples)
    if not np.all(np.isfinite(s)):
        raise IngestionError("samples contain non-finite values")
    s = s.astype(np.float64)
    n = s.size
    if max_mode is None:
        max_mode = (n - 2) // 2
    if max_mode < 1:
        raise IngestionError("too few samples for a single mode")
    if n < 2 * max_mode + 2:
        raise IngestionError(
            f"need at least {2 * max_mode + 2} samples for max_mode {max_mode}"
        )
    return TorusField.from_hardy(np.fft.rfft(s)[:max_mode + 1] / n)


def eigen_system(a: np.ndarray) -> EigenSystem:
    """Read-only eigendecomposition of an exactly Hermitian array, checked
    by its reconstruction residual and by the unitarity of V.

    An array with ``A != A*`` in any bit raises :class:`ValueError`.  The
    eigenvectors of a localized operator such as L_{u0} hold many entries
    far below ``FLUSH_BELOW``; they are flushed to zero before the residual
    and unitarity checks, so the checks see the factor that is used later.
    """
    if not np.array_equal(a, a.conj().T):
        raise ValueError("eigen_system requires an exactly Hermitian matrix")
    w, v = np.linalg.eigh(a)
    _flush_tiny(v)
    scale = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    defect = (v * w) @ v.conj().T
    defect -= a
    residual = float(np.max(np.abs(defect)))
    if not residual <= EIG_TOL * scale:  # NaN fails too
        raise LinearAlgebraError("eigendecomposition residual above tolerance", residual)
    w.setflags(write=False)
    return EigenSystem(w, _checked_unitary(v, "eigenvector"))


def hermitian_evolution(a: np.ndarray, tau: float) -> np.ndarray:
    """Read-only unitary ``exp(i tau A) = V exp(i tau Lambda) V*`` of an
    exactly Hermitian array, flushed below ``FLUSH_BELOW``, then checked
    as unitary."""
    system = eigen_system(a)
    v = system.eigenvectors
    u = (v * np.exp(1j * tau * system.eigenvalues)) @ v.conj().T
    return _checked_unitary(_flush_tiny(u), "evolution")
