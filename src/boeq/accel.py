"""A shifted upper-Hessenberg solve, which no boeq solver calls any more.

The line resolvent used to reduce its dense operator once, A = Q H Q*, and
to solve (H - z I) per point; it is now matrix-free GMRES
(``line_operators.ResolventEvaluator``).  The kernel stays only because
the benchmark harness in ``perfbench/`` wraps the name
``line_operators.hessenberg_solve_shifted``, and the two stubs because its
run record reads them.  An upper-Hessenberg matrix is a band matrix with
(kl, ku) = (1, n - 1), so the solve is one LAPACK ``zgbsv`` call on a band
buffer written by :func:`hessenberg_band`.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import ConditioningError

__all__ = [
    "hessenberg_band",
    "hessenberg_of_band",
    "hessenberg_solve_shifted",
    "numba_enabled",
    "worker_count",
]


def worker_count() -> int:
    """Always 1: many-point scans solve their points one after another.

    Kept because run records report the worker count through this name.
    """
    return 1


def numba_enabled() -> bool:
    """Always False: no kernel is JIT-compiled any more.

    Kept because run records report the backend through this name.
    """
    return False


def hessenberg_of_band(band: np.ndarray) -> np.ndarray:
    """The n x n upper-Hessenberg H stored in ``band``, as a view.

    LAPACK band storage with kl = 1, ku = n - 1 is column-major with leading
    dimension n + 2 and keeps H[i, j] in row n + i - j of column j, i.e. at
    flat offset n + i + j (n + 1).  Those offsets never collide for
    0 <= i, j < n, so all of H, zeros below the subdiagonal included, is one
    strided view; the zeros land in the fill-in row and in the unused
    corner of the band, which ``zgbsv`` does not read.
    """
    n = band.shape[1]
    flat = band.reshape(-1, order="F")
    return np.lib.stride_tricks.as_strided(
        flat[n:], shape=(n, n), strides=(band.itemsize, (n + 1) * band.itemsize),
        writeable=band.flags.writeable,
    )


def hessenberg_band(hess: np.ndarray) -> np.ndarray:
    """Upper-Hessenberg H (zero below the subdiagonal) written once into the
    ``zgbsv`` band layout."""
    n = hess.shape[0]
    band = np.zeros((n + 2, n), dtype=np.complex128, order="F")
    hessenberg_of_band(band)[...] = hess
    return band


def hessenberg_solve_shifted(
    band: np.ndarray, shift: complex, rhs: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Solve (H - shift*I) x = rhs for H stored by :func:`hessenberg_band`.

    ``band`` is left intact, so it serves every shift; the solve overwrites
    ``work``, a Fortran-ordered array shaped like ``band``.  Callers reuse
    ``work`` across shifts: faulting in a fresh n^2 buffer per call costs
    about a fifth of the solve at n = 2000.  A singular shifted system
    (LAPACK ``info`` > 0) raises :class:`ConditioningError`.
    """
    n = band.shape[1]
    np.copyto(work, band)
    work[n] -= shift  # row kl + ku holds the diagonal
    _, _, x, info = lapack.zgbsv(1, n - 1, work, rhs, overwrite_ab=1)
    if info != 0:
        raise ConditioningError(
            f"shifted Hessenberg system is singular (zgbsv info {info})", np.inf)
    return x
