"""Solution of the torus flow at time t from one eigendecomposition per datum.

Time enters the formula only through ``exp(2it L_{u0})``, so the checked
eigensystem ``L_{u0} = V Lambda V*`` is computed once per (u0, N) and
reused by every later propagator of the same datum.  A propagator stores
one step operator, ``M = exp(it) exp(2it L_{u0}) S*`` with the unitary
factor ``exp(2it L_{u0}) = V exp(2it Lambda) V*`` checked before M is
formed, and the initial Hardy vector.  Fourier coefficients of the solution
come from the power recurrence ``uhat(t, k) = < M^k Pu0 | 1 >``.  Values on
the disc, ``Pu(t, z) = < (I - z M)^{-1} Pu0 | 1 >``, are the power series
``sum_k z^k uhat(t, k)`` of the same recurrence: ``||M||_2 <= 1`` bounds
every ``|uhat(t, k)|`` by ``||Pu0||``, so the terms after K err by at most
``|z|^(K+1) ||Pu0|| / (1 - |z|)``.

The eigenvectors of ``L_{u0}`` are localized in mode space, so V and U hold
many entries far below ``spectral.FLUSH_BELOW`` (sqrt of the smallest normal
double).  ``spectral`` sets those entries to zero where V and U are formed,
before their checks: every product with V, U or M (the unitarity checks,
the recurrence) then stays out of subnormal arithmetic, which is several
times slower, while each dropped entry moves a result by less than 1e-150.
The recurrence keeps its iterate out of it too, by exact power-of-two
rescaling once the iterate's norm falls below 2^-400.
"""
from __future__ import annotations

import cmath
import math
import threading
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import spectral
from .errors import ConditioningError, DomainError, TruncationWarning
from .spectral import (
    EigenSystem,
    TorusField,
    hermitian_evolution,  # noqa: F401  (traced here by perfbench/spans.py)
    synthesize_torus,
)
from .torus_operators import lax_matrix
from .torus_operators import shift_adjoint  # noqa: F401  (traced here by perfbench/spans.py)

__all__ = [
    "TorusPropagator",
    "propagator",
    "evolve_coefficients",
    "evaluate_disc",
    "reconstruct_torus",
]

TAIL_WARN = 1e-8
# Most power-series terms one disc point may take: r^(K+1) / (1 - r) <= eps
# holds at K = 2^14 for r up to 0.9975, so |z| <= 0.997 is served.
DISC_MAX_TERMS = 2 ** 14
RESCALE_BELOW = 2.0 ** -400
_EPS = float(np.finfo(float).eps)


def _iterates(matrix: np.ndarray, v: np.ndarray):
    """(w, e) with M^k v = 2^e w for k = 1, 2, ...: the power recurrence, one
    product per iterate.

    Whenever ||w|| falls below ``RESCALE_BELOW`` = 2^-400, w is scaled by
    the exact power of two that brings max|w| into [1/2, 1), and the
    exponent is carried in e.  A decaying iterate's leading entries and
    their products with M's entries (zero or above
    ``spectral.FLUSH_BELOW`` = 2^-511) thus stay normal numbers, where the
    plain recurrence runs in subnormal arithmetic, several times slower,
    and loses bits; the scaling itself rounds nothing.  The test is one dot
    product per step, whose square may underflow to zero, which still takes
    the branch.  Iterates are not scaled down: a propagator has norm at
    most 1.
    """
    e = 0
    low = RESCALE_BELOW ** 2
    while True:
        v = matrix @ v
        parts = v.view(np.float64)
        if not parts.dot(parts) >= low:
            peak = abs(parts).max()
            if 0.0 < peak < math.inf:  # a zero or NaN iterate stays
                shift = -math.frexp(peak)[1]  # 2^shift peak lies in [1/2, 1)
                np.ldexp(parts, shift, out=parts)
                e -= shift
        yield v, e


def _unscaled(c: complex, e: int) -> complex:
    """2^e c, rounded once."""
    return complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))


class _PowerSequence:
    """uhat(t, k) = < M^k Pu0 | 1 > for the k computed so far.

    The recurrence resumes from its last iterate when a longer head is
    asked for, under a lock, so every head holds the same bits however the
    sequence was extended.
    """

    def __init__(self, matrix: np.ndarray, p0: np.ndarray):
        self._lock = threading.Lock()
        self._coeffs = [complex(p0[0])]
        self._iterates = _iterates(matrix, p0)

    def head(self, k: int) -> list[complex]:
        """uhat(t, 0..k), stepping the recurrence as far as k if needed."""
        with self._lock:
            missing = k + 1 - len(self._coeffs)
            if missing > 0:
                self._coeffs.extend(_unscaled(complex(v[0]), e)
                                    for v, e in islice(self._iterates, missing))
            return self._coeffs[:k + 1]


@dataclass(frozen=True)
class TorusPropagator:
    """Frozen data of the time-t solution operator for one initial field.

    ``matrix`` is rebuilt per time from the eigensystem shared by every
    propagator of the same (u0, N).  Each propagator also keeps the part of
    its power sequence ``uhat(t, k)`` that :func:`evaluate_disc` has
    computed, with the last iterate, so the points of a ring run one
    recurrence between them.
    """

    t: float
    p0: np.ndarray  # the Hardy half (c_0, ..., c_N) of u0 at truncation N
    mean: float
    matrix: np.ndarray  # M = exp(it) exp(2it L_{u0}) S*

    def __post_init__(self):
        object.__setattr__(self, "_series", _PowerSequence(self.matrix, self.p0))

    @property
    def max_mode(self) -> int:
        return self.p0.size - 1


# The eigensystem of the last datum seen: (key, EigenSystem).  One entry is
# enough for the callers that repeat a datum (several times of one run), and
# it never holds more than one n x n matrix.
_eigen_memo: tuple[tuple[bytes, int], EigenSystem] | None = None
_eigen_lock = threading.Lock()


def _lax_eigensystem(u0: TorusField, n: int) -> EigenSystem:
    """Checked eigensystem of L_{u0} at truncation n, reused for a repeated datum."""
    global _eigen_memo
    key = (u0.coeffs.tobytes(), n)
    with _eigen_lock:
        if _eigen_memo is None or _eigen_memo[0] != key:
            # looked up at call time, so a wrapper installed on the module sees it
            _eigen_memo = (key, spectral.eigen_system(lax_matrix(u0, n)))
        return _eigen_memo[1]


def propagator(u0: TorusField, t: float, n: int) -> TorusPropagator:
    """Assemble the propagator for initial field u0 at time t, truncation n.

    The eigensystem of L_{u0} is computed and checked on the first call for
    a datum; calls at other times reuse it and build only
    ``exp(2it L_{u0})``, whose unitarity is checked on every call.
    """
    evolution = _lax_eigensystem(u0, n).evolution(2.0 * t)
    phase = complex(np.exp(1j * t))
    # M = phase * evolution * S*, where S* moves column j - 1 to column j.
    # Scaled in place: numpy rounds ``X *= phase`` and ``phase * X``
    # differently, and the in-place form equals the dense phase * (U @ S*)
    # bit for bit.
    matrix = np.zeros((n + 1, n + 1), dtype=np.complex128)
    matrix[:, 1:] = evolution.entries[:, :-1]
    matrix *= phase
    return TorusPropagator(
        t=t,
        p0=u0.truncated(n).hardy,
        mean=u0.mean,
        matrix=matrix,
    )


def evolve_coefficients(prop: TorusPropagator, n_coeffs: int | None = None) -> np.ndarray:
    """Hardy coefficients uhat(t, k), k = 0..K, via the power recurrence.

    K defaults to N/2; each application of the shift consumes one mode of
    headroom, and a truncation warning fires if the iterate keeps mass beyond
    mode N - K/4.
    """
    n = prop.max_mode
    k_max = n // 2 if n_coeffs is None else int(n_coeffs)
    if k_max < 0 or k_max > n:
        raise ValueError("coefficient count must lie in [0, N]")
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = prop.p0[0]
    guard = n - k_max // 4
    worst_tail = 0.0
    for k, (v, e) in enumerate(islice(_iterates(prop.matrix, prop.p0), k_max), 1):
        out[k] = _unscaled(complex(v[0]), e)
        if guard + 1 <= n:
            tail = math.ldexp(float(np.linalg.norm(v[guard + 1:])), e)
            worst_tail = max(worst_tail, tail)
    if worst_tail > TAIL_WARN:
        warnings.warn(
            f"iterate mass {worst_tail:.2e} beyond mode {guard}; "
            "increase N or lower K",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def _last_term(r: float) -> int:
    """Smallest K with r^(K+1) / (1 - r) <= eps, or DISC_MAX_TERMS + 1 when
    that K would be larger."""
    k = 0
    while k <= DISC_MAX_TERMS and r ** (k + 1) / (1.0 - r) > _EPS:
        k += 1
    return k


def evaluate_disc(prop: TorusPropagator, z: complex) -> complex:
    """Hardy extension Pu(t, z) for |z| < 1, as the power series of uhat(t, k).

    Sums ``z^k uhat(t, k)`` for k = 0..K by Horner's rule, K the smallest
    with ``|z|^(K+1) / (1 - |z|) <= eps``; every ``|uhat(t, k)|`` is at
    most ``||Pu0||``, so the dropped tail is at most ``eps ||Pu0||``
    (K = 52 at |z| = 0.5).  The recurrence runs past N when K does.  A point
    that needs more than ``DISC_MAX_TERMS`` = 2^14 terms (|z| above about
    0.997) raises ConditioningError before any product is taken, as does a
    non-finite sum.  At N = 512 a point near the cap costs 2 s of products;
    decaying iterates are rescaled (:func:`_iterates`), which keeps most of
    those products out of subnormal arithmetic.
    The terms come from the propagator's kept sequence, so a point after
    others of larger |z| takes no product, and the value does not depend on
    what was evaluated before.
    """
    z = complex(z)
    r = abs(z)
    if not r < 1.0:  # NaN fails too
        raise DomainError(f"|z| = {r:.6g} is outside the open unit disc")
    k = _last_term(r)
    if k > DISC_MAX_TERMS:
        raise ConditioningError(
            f"|z| = {r:.6g} needs more than {DISC_MAX_TERMS} power-series terms",
            r ** (DISC_MAX_TERMS + 1) / (1.0 - r),
        )
    value = 0j
    for c in reversed(prop._series.head(k)):
        value = value * z + c
    if not cmath.isfinite(value):
        raise ConditioningError("disc power series is not finite", abs(value))
    return value


def reconstruct_torus(
    prop: TorusPropagator,
    n_coeffs: int | None = None,
    n_samples: int = 512,
) -> np.ndarray:
    """Real samples of u(t, .) on the uniform grid of [0, 2pi).

    Synthesizes ``Pu + conj(Pu) - mean`` from the recurrence coefficients;
    the imaginary residue of the synthesis is checked below 1e-10 internally.
    """
    coeffs = evolve_coefficients(prop, n_coeffs)
    return synthesize_torus(coeffs, prop.mean, n_samples)
