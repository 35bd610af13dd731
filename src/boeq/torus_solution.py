"""Solution of the torus flow at time t from one eigendecomposition per datum.

Time enters the formula only through ``exp(2it L_{u0})``, so the checked
eigensystem ``L_{u0} = V Lambda V*`` is computed once per (u0, N) and
reused by every later propagator of the same datum.  A propagator stores
one step operator, ``M = exp(it) exp(2it L_{u0}) S*`` with the unitary
factor ``exp(2it L_{u0}) = V exp(2it Lambda) V*`` checked before M is
formed, and the initial Hardy vector.  Fourier coefficients of the solution
come from the power recurrence ``uhat(t, k) = < M^k Pu0 | 1 >``, and values
on the disc from the resolvent ``Pu(t, z) = < (I - z M)^{-1} Pu0 | 1 >``,
solved densely; both read M.

The eigenvectors of ``L_{u0}`` are localized in mode space, so V and U hold
many entries far below ``spectral.FLUSH_BELOW`` (sqrt of the smallest normal
double).  ``spectral`` sets those entries to zero where V and U are formed,
before their checks: every product with V, U or M (the unitarity checks,
the recurrence, the disc LU) then stays out of subnormal arithmetic, which
is several times slower, while each dropped entry moves a result by less
than 1e-150.
"""
from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConditioningError, DomainError, TruncationWarning
from .spectral import (
    EigenSystem,
    HardyTorusVector,
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

RESOLVENT_TOL = 1e-8
TAIL_WARN = 1e-8


@dataclass(frozen=True)
class TorusPropagator:
    """Frozen data of the time-t solution operator for one initial field.

    ``matrix`` is rebuilt per time from the eigensystem shared by every
    propagator of the same (u0, N).
    """

    t: float
    p0: HardyTorusVector
    mean: float
    matrix: np.ndarray  # M = exp(it) exp(2it L_{u0}) S*

    @property
    def max_mode(self) -> int:
        return self.p0.max_mode


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
    hardy = np.array([u0.coeff(k) for k in range(n + 1)])
    return TorusPropagator(
        t=t,
        p0=HardyTorusVector(hardy),
        mean=float(u0.coeff(0).real),
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
    v = prop.p0.coeffs.copy()
    out[0] = v[0]
    guard = n - k_max // 4
    worst_tail = 0.0
    for k in range(1, k_max + 1):
        v = prop.matrix @ v
        out[k] = v[0]
        if guard + 1 <= n:
            worst_tail = max(worst_tail, float(np.linalg.norm(v[guard + 1:])))
    if worst_tail > TAIL_WARN:
        warnings.warn(
            f"iterate mass {worst_tail:.2e} beyond mode {guard}; "
            "increase N or lower K",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def evaluate_disc(prop: TorusPropagator, z: complex) -> complex:
    """Hardy extension Pu(t, z) for |z| < 1 via a dense resolvent solve."""
    z = complex(z)
    if not abs(z) < 1.0:  # NaN fails too
        raise DomainError(f"|z| = {abs(z):.6g} is outside the open unit disc")
    n1 = prop.max_mode + 1
    a = np.eye(n1, dtype=np.complex128) - z * prop.matrix
    rhs = prop.p0.coeffs
    w = np.linalg.solve(a, rhs)
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    residual = float(np.linalg.norm(a @ w - rhs)) / scale
    if not residual <= RESOLVENT_TOL:
        raise ConditioningError("disc resolvent solve is ill-conditioned", residual)
    return complex(w[0])


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
    return synthesize_torus(HardyTorusVector(coeffs), prop.mean, n_samples)
