"""Solution of the torus flow at time t, in the eigenbasis of L_{u0}.

Time enters the formula only through ``exp(2it L_{u0})``.  The checked
eigensystem ``L_{u0} = V Lambda V*`` is computed once per (u0, N), and with
it the two time-free parts of the recurrence in that basis: the shift
``W = V* S* V`` and the start vector ``w0 = V* Pu0``, each checked by its
residual.  Every later propagator of the same datum reuses them, and builds
its step operator ``exp(it) exp(2it Lambda) W`` elementwise, with no n^3
product: it is ``V* M V`` for the standard-basis step operator
``M = exp(it) exp(2it L_{u0}) S*``.  Fourier coefficients of the solution
come from the power recurrence ``uhat(t, k) = < M^k Pu0 | 1 >``, run on
``w = V* M^k Pu0`` and read out as ``uhat(t, k) = (V w)_0``.  Values on the
disc, ``Pu(t, z) = < (I - z M)^{-1} Pu0 | 1 >``, are the power series
``sum_k z^k uhat(t, k)`` of the same recurrence: ``||M||_2 <= 1`` bounds
every ``|uhat(t, k)|`` by ``||Pu0||``, so the terms after K err by at most
``|z|^(K+1) ||Pu0|| / (1 - |z|)``.

The eigenvectors of ``L_{u0}`` are localized in mode space, so V and W hold
many entries far below ``spectral.FLUSH_BELOW`` (sqrt of the smallest normal
double).  Those entries are set to zero where V, W, w0 and each step
operator are formed, before their checks: every product with them (the
checks, the recurrence) then stays out of subnormal arithmetic, which is
several times slower, while each dropped entry moves a result by less than
1e-150.  The recurrence keeps its iterate out of it too, by exact
power-of-two rescaling once the iterate's norm falls below 2^-400.
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
    synthesize_torus,  # noqa: F401  (traced here by perfbench/spans.py)
)
from .torus_operators import lax_matrix, warn_beyond_reach
from .torus_operators import shift_adjoint  # noqa: F401  (traced here by perfbench/spans.py)

__all__ = [
    "TorusPropagator",
    "propagator",
    "evolve_coefficients",
    "evaluate_disc",
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

    def __init__(self, prop: "TorusPropagator"):
        self._lock = threading.Lock()
        self._coeffs = [complex(prop.p0[0])]
        self._row = prop.eigenvectors[0]
        self._iterates = _iterates(prop.matrix, prop.w0)

    def head(self, k: int) -> list[complex]:
        """uhat(t, 0..k), stepping the recurrence as far as k if needed."""
        with self._lock:
            missing = k + 1 - len(self._coeffs)
            if missing > 0:
                self._coeffs.extend(_unscaled(complex(self._row @ w), e)
                                    for w, e in islice(self._iterates, missing))
            return self._coeffs[:k + 1]


@dataclass(frozen=True)
class TorusPropagator:
    """Frozen data of the time-t solution operator for one initial field.

    ``matrix`` is the step operator in the eigenbasis of L_{u0}, rebuilt per
    time from the parts shared by every propagator of the same (u0, N):
    the eigenvectors V and the start vector w0 = V* Pu0, both read-only.
    Each propagator also keeps the part of its power sequence ``uhat(t, k)``
    that :func:`evaluate_disc` has computed, with the last iterate, so the
    points of a ring run one recurrence between them.
    """

    t: float
    p0: np.ndarray  # the Hardy half (c_0, ..., c_N) of u0 at truncation N; c_0 is the mean
    matrix: np.ndarray  # V* M V = exp(it) exp(2it Lambda) W
    eigenvectors: np.ndarray  # V, with L_{u0} = V Lambda V*
    w0: np.ndarray  # V* Pu0

    def __post_init__(self):
        object.__setattr__(self, "_series", _PowerSequence(self))

    @property
    def max_mode(self) -> int:
        return self.p0.size - 1


@dataclass(frozen=True)
class _LaxBasis:
    """The time-free parts of every propagator of one (u0, N)."""

    system: EigenSystem  # L_{u0} = V Lambda V*
    step: np.ndarray  # W = V* S* V
    start: np.ndarray  # w0 = V* Pu0


# The eigenbasis of the last datum seen: (key, _LaxBasis).  One entry is
# enough for the callers that repeat a datum (several times of one run), and
# it never holds more than two n x n matrices, V and W.
_eigen_memo: tuple[tuple[bytes, int], _LaxBasis] | None = None
_eigen_lock = threading.Lock()


def _lax_eigensystem(u0: TorusField, n: int) -> _LaxBasis:
    """Checked eigensystem of L_{u0} at truncation n, with W and w0, reused
    for a repeated L_{u0}: the key is n and the Hardy half of u0 at n.
    Every call warns of modes beyond +-2n, as ``lax_matrix(u0, n)`` does."""
    global _eigen_memo
    truncated = u0.truncated(n)
    key = (truncated.hardy.tobytes(), n)
    warn_beyond_reach(u0, n)
    with _eigen_lock:
        if _eigen_memo is None or _eigen_memo[0] != key:
            _eigen_memo = None  # never two datums' factors at once
            # looked up at call time, so a wrapper installed on the module sees it
            system = spectral.eigen_system(lax_matrix(truncated, n))
            v = system.eigenvectors
            shifted = np.zeros_like(v)  # S* V: the rows of V moved up by one
            shifted[:-1] = v[1:]
            step = system.coordinates(shifted)
            del shifted
            start = system.coordinates(truncated.hardy, refine=True)
            _eigen_memo = (key, _LaxBasis(system, step, start))
        return _eigen_memo[1]


def propagator(u0: TorusField, t: float, n: int) -> TorusPropagator:
    """Assemble the propagator for initial field u0 at time t, truncation n.

    The eigensystem of L_{u0}, W and w0 are computed and checked on the
    first call for a datum; calls at other times reuse them.  Each call
    scales the rows of W by the phases ``exp(it) exp(2it lambda)``, which
    must be finite: a time so large that ``2t lambda`` overflows raises
    :class:`ConditioningError` before the step operator is formed.
    """
    basis = _lax_eigensystem(u0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(1j * t) * np.exp(2j * t * basis.system.eigenvalues)
    if not np.all(np.isfinite(phases)):
        raise ConditioningError(f"the phases exp(it) exp(2it lambda) are not finite at t = {t:g}",
                                math.inf)
    return TorusPropagator(
        t=t,
        p0=u0.truncated(n).hardy,
        matrix=spectral._flush_tiny(phases[:, None] * basis.step),
        eigenvectors=basis.system.eigenvectors,
        w0=basis.start,
    )


def evolve_coefficients(prop: TorusPropagator, n_coeffs: int | None = None) -> np.ndarray:
    """Hardy coefficients uhat(t, k), k = 0..K, via the power recurrence;
    uhat(t, 0) is c_0 of u0, the conserved mean, bit for bit.

    K defaults to N/2; each application of the shift consumes one mode of
    headroom, and a truncation warning fires if the iterate ``V w`` keeps
    mass beyond mode N - K/4.
    """
    n = prop.max_mode
    k_max = n // 2 if n_coeffs is None else int(n_coeffs)
    if k_max < 0 or k_max > n:
        raise ValueError("coefficient count must lie in [0, N]")
    # the iterates w_k = 2^-e_k V* M^k Pu0, read out after the recurrence by
    # one product for the coefficients and one for the tails
    iterates = np.empty((k_max, n + 1), dtype=np.complex128)
    exponents = np.empty(k_max, dtype=np.int64)
    for k, (w, e) in enumerate(islice(_iterates(prop.matrix, prop.w0), k_max)):
        iterates[k] = w
        exponents[k] = e
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = prop.p0[0]
    heads = iterates @ prop.eigenvectors[0]
    out.real[1:] = np.ldexp(heads.real, exponents)
    out.imag[1:] = np.ldexp(heads.imag, exponents)
    guard = n - k_max // 4
    tails = np.linalg.norm(iterates @ prop.eigenvectors[guard + 1:].T, axis=1)
    worst_tail = float(np.max(np.ldexp(tails, exponents), initial=0.0))
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
