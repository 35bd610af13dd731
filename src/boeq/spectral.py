"""Discrete representations of fields on the torus and the line.

Conventions used throughout the package:

- Torus inner product ``<f|g> = (1/2pi) int_0^{2pi} f conj(g) dx`` so the
  exponentials ``e^{ikx}`` are orthonormal and coefficients are
  ``c_k = <u|e^{ikx}>``.
- A torus field is real: ``c_{-k} = conj(c_k)`` with real ``c_0``.
  :class:`TorusField` is the one place that knows it: its constructor
  refuses a conjugate-symmetry defect above ``SYMMETRY_TOL``
  (:class:`InvalidFieldError`) and stores the symmetric part, so no
  operator, stepper or check tests or repairs a field's reality again.
- The Hardy part of a field, the projection ``Pu``, is the plain array
  ``TorusField.hardy`` = ``(c_0, ..., c_N)``; the mean is ``c_0``.
  :meth:`TorusField.from_hardy` builds the field back from it, and
  :func:`synthesize_torus` and the propagator take it as it is.
- On the line, spectra are sampled on the half-line frequency grid
  ``xi_j = j*h``, ``j = 0..M`` (``line_operators.HalfLineSpectrum``).
- The dense torus factors, the eigenvectors V of ``eigen_system`` and the
  evolution U of ``EigenSystem.evolution``, have entries below
  ``FLUSH_BELOW`` set to exact zero before they are checked, so n^3
  products with them never meet subnormal numbers.
- :func:`check_memory` refuses, before it allocates, a job whose estimated
  peak exceeds half the physical memory (a configuration error, exit 2).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
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
    """Real periodic field stored as two-sided coefficients c_k, k = -N..N.

    Real by construction: the constructor refuses, by
    :class:`InvalidFieldError`, coefficients whose conjugate-symmetry defect
    ``max |c_{-k} - conj(c_k)|`` (which includes ``2 |Im c_0|``) exceeds
    ``SYMMETRY_TOL`` or is NaN, and stores the symmetric part
    ``(c + conj(c[::-1])) / 2``, which is the input bit for bit when the
    input is exactly symmetric.  No other module checks or repairs it.
    """

    max_mode: int
    coeffs: np.ndarray  # complex128, length 2*max_mode + 1, index k + max_mode

    def __post_init__(self):
        if self.max_mode < 1:
            raise ValueError("max_mode must be >= 1")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (2 * self.max_mode + 1,):
            raise ValueError("coeffs must have length 2*max_mode + 1")
        mirror = np.conj(c[::-1])
        defect = float(np.max(np.abs(c - mirror)))
        if not defect <= SYMMETRY_TOL:  # NaN fails too
            raise InvalidFieldError(
                f"conjugate-symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL:g}; "
                "a torus field is real"
            )
        half = c + mirror
        half.real *= 0.5  # part by part, not times a complex 0.5, which would
        half.imag *= 0.5  # flip the sign of some zero parts
        half.setflags(write=False)
        object.__setattr__(self, "coeffs", half)

    @classmethod
    def zero(cls, max_mode: int) -> "TorusField":
        return cls(max_mode, np.zeros(2 * max_mode + 1, dtype=np.complex128))

    @classmethod
    def from_hardy(cls, hardy: np.ndarray, max_mode: int | None = None) -> "TorusField":
        """The real field whose modes 0..K are ``hardy`` = (c_0, ..., c_K),
        at truncation ``max_mode`` (default K); modes above K are zero and
        the negative ones are the conjugates."""
        h = np.asarray(hardy, dtype=np.complex128)
        n = h.size - 1 if max_mode is None else max_mode
        if h.ndim != 1 or not 1 <= h.size <= n + 1:
            raise ValueError(f"need 1 to {n + 1} Hardy coefficients for max_mode {n}")
        c = np.zeros(2 * n + 1, dtype=np.complex128)
        c[n:n + h.size] = h
        c[n - h.size + 1:n] = np.conj(h[:0:-1])
        return cls(n, c)

    @classmethod
    def from_modes(cls, max_mode: int, modes: Mapping[int, complex]) -> "TorusField":
        """Build a real field from coefficients on modes k >= 0; each given
        mode's negative is its conjugate, and the others are zero."""
        c = np.zeros(2 * max_mode + 1, dtype=np.complex128)
        for k, val in modes.items():
            if k < 0:
                raise ValueError("specify modes k >= 0; negatives are implied")
            if k > max_mode:
                raise ValueError(f"mode {k} exceeds max_mode {max_mode}")
            c[max_mode + k] = val
            c[max_mode - k] = np.conj(val) if k else val
        return cls(max_mode, c)

    @property
    def hardy(self) -> np.ndarray:
        """Read-only view of the Hardy half (c_0, ..., c_N), the projection Pu."""
        return self.coeffs[self.max_mode:]

    @property
    def mean(self) -> float:
        """The zeroth coefficient c_0, real."""
        return float(self.coeffs[self.max_mode].real)

    def truncated(self, n: int) -> "TorusField":
        """This field at truncation n: modes above n cut, missing ones zero;
        the field itself when n is its own ``max_mode``."""
        if n == self.max_mode:
            return self
        c = np.zeros(2 * n + 1, dtype=np.complex128)
        m = min(n, self.max_mode)
        c[n - m:n + m + 1] = self.coeffs[self.max_mode - m:self.max_mode + m + 1]
        return TorusField(n, c)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.max_mode:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.max_mode + k])

    def effective_band(self, rel_tol: float = 1e-12) -> int:
        """Largest |k| whose coefficient exceeds rel_tol * max |c|."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0.0:
            return 0
        ks = np.abs(np.arange(-self.max_mode, self.max_mode + 1))
        live = mags > rel_tol * top
        return int(ks[live].max()) if live.any() else 0


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

_TAGS = ("hermitian", "antihermitian", "unitary", "general")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense truncated operator with a structural tag.

    Tags ``hermitian``/``antihermitian`` assert the symmetry *exactly*;
    constructors must therefore produce symmetric entries by construction
    (coefficient symmetrization, symmetric products), not by patching the
    matrix afterwards.  ``unitary`` is checked to ``UNITARY_TOL``.
    """

    entries: np.ndarray
    tag: str = "general"

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if self.tag not in _TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.tag == "hermitian" and not np.array_equal(a, a.conj().T):
            raise ValueError("hermitian tag requires exact A == A^dagger")
        if self.tag == "antihermitian" and not np.array_equal(a, -a.conj().T):
            raise ValueError("antihermitian tag requires exact A == -A^dagger")
        if self.tag == "unitary":
            defect = np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0])))
            if not defect <= UNITARY_TOL:  # NaN fails too
                raise ValueError(f"unitary defect {defect:.3e} above {UNITARY_TOL:g}")
        object.__setattr__(self, "entries", _readonly(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian OperatorMatrix."""

    eigenvalues: np.ndarray
    eigenvectors: OperatorMatrix

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(np.asarray(self.eigenvalues, float)))

    def evolution(self, tau: float) -> OperatorMatrix:
        """Unitary ``exp(i tau A) = V exp(i tau Lambda) V*``, checked as unitary.

        Entries below ``FLUSH_BELOW`` are flushed to zero before the check,
        so later products with the factor stay out of subnormal arithmetic.
        """
        v = self.eigenvectors.entries
        u = _flush_tiny((v * np.exp(1j * tau * self.eigenvalues)) @ v.conj().T)
        return OperatorMatrix(u, tag="unitary")


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


def synthesize_torus(hardy: np.ndarray, mean: float, n_samples: int) -> np.ndarray:
    """Samples of ``p + conj(p) - mean`` on the uniform grid of [0, 2pi),
    where ``p`` has the Hardy coefficients ``hardy`` = (c_0, ..., c_N).

    ``mean`` is the conserved zeroth coefficient of the underlying real field.
    """
    p = np.asarray(hardy, dtype=np.complex128)
    n_modes = p.size - 1
    if n_samples < 2 * n_modes + 1:
        raise ValueError(
            f"need at least {2 * n_modes + 1} samples to resolve {n_modes} modes"
        )
    spec = np.zeros(n_samples, dtype=np.complex128)
    spec[0] = p[0] + np.conj(p[0]) - mean
    if n_modes >= 1:
        spec[1:n_modes + 1] = p[1:]
        spec[-n_modes:] = np.conj(p[1:][::-1])
    samples = np.fft.ifft(spec) * n_samples
    residue = float(np.max(np.abs(samples.imag)))
    scale = max(1.0, float(np.max(np.abs(samples.real))))
    if residue > 1e-12 * scale:
        raise LinearAlgebraError("synthesis produced a non-real field", residue)
    return samples.real


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

    Uses ``c_k = (1/2pi) int u e^{-ikx} dx`` realized as an FFT, whose
    rounding leaves ``c_k`` and ``conj(c_{-k})`` a few ulps apart; each
    Hardy coefficient is their average.
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
    spec = np.fft.fft(s) / n
    ks = np.arange(max_mode + 1)
    return TorusField.from_hardy(0.5 * (spec[ks] + np.conj(spec[(-ks) % n])))


def eigen_system(a: OperatorMatrix) -> EigenSystem:
    """Hermitian eigendecomposition with a reconstruction residual check.

    The eigenvectors of a localized operator such as L_{u0} hold many entries
    far below ``FLUSH_BELOW``; they are flushed to zero before the residual
    and unitarity checks, so the checks see the factor that is used later.
    """
    if a.tag != "hermitian":
        raise ValueError("eigen_system requires a hermitian-tagged matrix")
    w, v = np.linalg.eigh(a.entries)
    _flush_tiny(v)
    scale = max(float(np.max(np.abs(a.entries))), np.finfo(float).tiny)
    residual = float(np.max(np.abs((v * w) @ v.conj().T - a.entries)))
    if not residual <= EIG_TOL * scale:  # NaN fails too
        raise LinearAlgebraError("eigendecomposition residual above tolerance", residual)
    return EigenSystem(w, OperatorMatrix(v, tag="unitary"))


def hermitian_evolution(a: OperatorMatrix, tau: float) -> OperatorMatrix:
    """Unitary ``exp(i tau A)`` of a Hermitian matrix via eigendecomposition."""
    return eigen_system(a).evolution(tau)
