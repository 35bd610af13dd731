"""Truncated shift and Lax-pair operators on the torus Hardy space.

All matrices act on coefficient vectors (v_0, ..., v_N) of span{e^{ikx},
0 <= k <= N}.  Identities among banded operators hold exactly on columns at
distance >= 2m from the truncation edge, where m is the symbol band; the
validation module asserts them there.
"""
from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TruncationWarning
from .spectral import TorusField, check_memory

__all__ = [
    "toeplitz_matrix",
    "lax_matrix",
    "b_matrix",
    "shift_adjoint",
    "abs_derivative_field",
]

# (n + 1) x (n + 1) complex arrays live at once at the peak of a solve-torus
# run (peak RSS above the imported interpreter's, two times, n = 1024 and
# 2048: 5.37 and 5.20, and 5.37 at n = 1024 with k = n coefficients;
# LAPACK's eigh workspace, the eigenbasis shift W with its residual check
# and the recurrence's stored iterates included).
DENSE_PEAK_ARRAYS = 5.4


def check_dense_budget(n: int, arrays: float = DENSE_PEAK_ARRAYS):
    """Refuse a truncation n whose dense operators, a peak of ``arrays``
    (n + 1) x (n + 1) complex arrays, would not fit in memory."""
    check_memory(arrays * np.dtype(np.complex128).itemsize * (n + 1) ** 2,
                 f"dense torus operators at n = {n}", "lower the truncation n")


def warn_beyond_reach(b: TorusField, n: int):
    """Warn, by :class:`TruncationWarning`, when ``b`` has nonzero modes
    beyond +-2n: they cannot reach the truncation n and are ignored."""
    if np.any(b.hardy[2 * n + 1:] != 0):
        warnings.warn(
            f"symbol has nonzero modes beyond +-{2 * n}; they are ignored",
            TruncationWarning,
            stacklevel=4,
        )


def _toeplitz_view(b: TorusField, n: int) -> np.ndarray:
    """Read-only view of the Toeplitz matrix of ``b`` at truncation n, with
    no index array or matrix allocated: its diagonal values b_hat(d),
    d = -n..n, are the two-sided coefficients of ``b`` at truncation n, and
    window i of them, reversed, holds b_hat(n - i - k) at k, which is row
    n - i.  The negative diagonals are the conjugates of the Hardy half, so
    the Toeplitz matrix of the (real) symbol is exactly Hermitian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    warn_beyond_reach(b, n)
    return sliding_window_view(b.truncated(n).coeffs[::-1], n + 1)[::-1]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def toeplitz_matrix(b: TorusField, n: int) -> np.ndarray:
    """Read-only truncated Toeplitz operator f -> P(b f): entries
    b_hat(j - k); exactly Hermitian, as every symbol is real.

    Modes of ``b`` beyond +-2n cannot reach the truncation and are ignored
    (with a warning when nonzero).
    """
    return _frozen(np.array(_toeplitz_view(b, n), order="C"))


def lax_matrix(u: TorusField, n: int) -> np.ndarray:
    """Read-only truncated L_u = D - T_u with D = diag(0..n); exactly
    Hermitian.  Off the diagonal it is 0 - T_u, not -T_u, whose -0.0 would
    change the bytes of the ``--dump-operators`` CSV."""
    t = _toeplitz_view(u, n)
    lax = np.zeros((n + 1, n + 1), dtype=np.complex128)
    lax -= t
    lax.flat[::n + 2] = np.arange(n + 1) - t.diagonal()
    return _frozen(lax)


def abs_derivative_field(u: TorusField) -> TorusField:
    """Coefficient map c_k -> |k| c_k, the field |D|u."""
    return TorusField(u.hardy * np.arange(u.max_mode + 1))


def b_matrix(u: TorusField, n: int) -> np.ndarray:
    """Read-only truncated B_u = i (T_{|D|u} - T_u^2); exactly anti-Hermitian.

    The square uses the truncated T_u, so both inner matrices are exactly
    Hermitian and the result is anti-Hermitian by construction.  The product
    is evaluated as its own symmetric part to remove matmul reassociation
    roundoff.
    """
    t_disp = toeplitz_matrix(abs_derivative_field(u), n)
    t = toeplitz_matrix(u, n)
    sq = t @ t
    sq = 0.5 * (sq + sq.conj().T)
    return _frozen(1j * (t_disp - sq))


def shift_adjoint(n: int) -> np.ndarray:
    """Read-only adjoint shift (v_0, ..., v_n) -> (v_1, ..., v_n, 0):
    superdiagonal ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _frozen(np.eye(n + 1, k=1, dtype=np.complex128))
