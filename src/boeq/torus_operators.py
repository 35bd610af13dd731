"""Truncated shift and Lax-pair operators on the torus Hardy space.

All matrices act on coefficient vectors (v_0, ..., v_N) of span{e^{ikx},
0 <= k <= N}.  Identities among banded operators hold exactly on columns at
distance >= 2m from the truncation edge, where m is the symbol band; the
validation module asserts them there.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import TruncationWarning
from .spectral import OperatorMatrix, TorusField, check_memory

__all__ = [
    "toeplitz_matrix",
    "lax_matrix",
    "b_matrix",
    "shift_adjoint",
    "abs_derivative_field",
]

# (n + 1) x (n + 1) complex arrays live at once at the peak of a solve-torus
# run (peak RSS above the imported interpreter's, two times, n = 1024 and
# 2048: 6.30 and 6.20, LAPACK's eigh workspace included).
DENSE_PEAK_ARRAYS = 6.4


def check_dense_budget(n: int):
    """Refuse a truncation n whose dense operators would not fit in memory."""
    check_memory(DENSE_PEAK_ARRAYS * np.dtype(np.complex128).itemsize * (n + 1) ** 2,
                 f"dense torus operators at n = {n}", "lower the truncation n")


def _diagonal_values(b: TorusField, n: int) -> np.ndarray:
    """Coefficients b_hat(d) for d = -n..n, indexed by d + n.

    The negative diagonals are the conjugates of the Hardy half, so the
    Toeplitz matrix of the (real) symbol is exactly Hermitian.
    """
    vals = np.zeros(2 * n + 1, dtype=np.complex128)
    top = min(n, b.max_mode)
    pos = b.hardy[:top + 1]
    vals[n:n + top + 1] = pos
    vals[n - top:n] = np.conj(pos[1:][::-1])
    return vals


def toeplitz_matrix(b: TorusField, n: int) -> OperatorMatrix:
    """Truncated Toeplitz operator f -> P(b f): entries b_hat(j - k);
    exactly Hermitian, as every symbol is real.

    Modes of ``b`` beyond +-2n cannot reach the truncation and are ignored
    (with a warning when nonzero).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b.max_mode > 2 * n:
        beyond = b.coeffs[np.abs(np.arange(-b.max_mode, b.max_mode + 1)) > 2 * n]
        if np.any(np.abs(beyond) > 0):
            warnings.warn(
                f"symbol has nonzero modes beyond +-{2 * n}; they are ignored",
                TruncationWarning,
                stacklevel=2,
            )
    vals = _diagonal_values(b, n)
    j = np.arange(n + 1)
    return OperatorMatrix(vals[j[:, None] - j[None, :] + n], tag="hermitian")


def lax_matrix(u: TorusField, n: int) -> OperatorMatrix:
    """Truncated L_u = D - T_u with D = diag(0..n); exactly Hermitian."""
    t = toeplitz_matrix(u, n)
    entries = np.diag(np.arange(n + 1).astype(np.complex128)) - t.entries
    return OperatorMatrix(entries, tag="hermitian")


def abs_derivative_field(u: TorusField) -> TorusField:
    """Coefficient map c_k -> |k| c_k, the field |D|u."""
    ks = np.abs(np.arange(-u.max_mode, u.max_mode + 1))
    return TorusField(u.max_mode, u.coeffs * ks)


def b_matrix(u: TorusField, n: int) -> OperatorMatrix:
    """Truncated B_u = i (T_{|D|u} - T_u^2); exactly anti-Hermitian.

    The square uses the truncated T_u, so both inner matrices are exactly
    Hermitian and the result is anti-Hermitian by construction.  The product
    is evaluated as its own symmetric part to remove matmul reassociation
    roundoff.
    """
    t_disp = toeplitz_matrix(abs_derivative_field(u), n)
    t = toeplitz_matrix(u, n).entries
    sq = t @ t
    sq = 0.5 * (sq + sq.conj().T)
    return OperatorMatrix(1j * (t_disp.entries - sq), tag="antihermitian")


def shift_adjoint(n: int) -> OperatorMatrix:
    """Adjoint shift (v_0, ..., v_n) -> (v_1, ..., v_n, 0): superdiagonal ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = np.zeros((n + 1, n + 1), dtype=np.complex128)
    s[np.arange(n), np.arange(1, n + 1)] = 1.0
    return OperatorMatrix(s, tag="general")
