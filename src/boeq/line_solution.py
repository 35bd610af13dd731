"""Evaluation of the line solution on the upper half-plane.

``Pu(t, z) = (1/2i pi) I+[(G - 2t L_{u0} - z)^-1 Pu0]`` for ``Im z > 0``;
the real field is ``u = Pu + conj(Pu)``, sampled just above the axis at
height eps with a documented O(eps) smoothing bias.

Every value comes from :class:`ResolventEvaluator`, built from the datum's
samples on one grid (``u0.hardy(grid)``).  The base discretization is
second order in the grid step h.  For point evaluations that need more,
:func:`evaluate_uhp` performs Richardson extrapolation over sub-grids h,
h/2, ..., anchored at the grid passed in (eliminated orders 2 then 3,
matching the one-sided boundary stencils), with one sampling and one
evaluator per sub-grid.  :func:`reconstruct_line` and :func:`uhp_grid_scan`
run on the single grid instead, one point after another through an
evaluator that the caller builds: ``solve-line`` samples its datum once and
builds one evaluator per time from those samples.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoeqError, DomainError
from .line_operators import (
    SPECTRAL_TAIL_TOL,
    LineField,
    LineGrid,
    ResolventEvaluator,
    check_uhp,
)

__all__ = [
    "evaluate_uhp",
    "reconstruct_line",
    "uhp_grid_scan",
    "ScanRow",
]

DEFAULT_EPS = 1e-3
DEFAULT_REFINEMENTS = 2


def evaluate_uhp(
    u0: LineField,
    t: float,
    z: complex,
    grid: LineGrid | None = None,
    refinements: int = DEFAULT_REFINEMENTS,
    tail_tol: float = SPECTRAL_TAIL_TOL,
) -> complex:
    """Pu(t, z) for Im z > 0.

    ``refinements`` extra solves on grids h/2, h/4, ... feed a Richardson
    table (orders 2, 3, ...); 0 evaluates on the given grid only.  Each
    level samples u0 on its grid, builds one :class:`ResolventEvaluator`
    from the samples and drops it, so a level costs one point solve at
    doubled size: O(M) at t = 0, one GMRES of O(M log M) products otherwise,
    in O(M) memory (the default levels reach M = 8001 from the default
    grid).  Scans pass one evaluator to :func:`reconstruct_line` /
    :func:`uhp_grid_scan` instead.
    """
    z = check_uhp(z)
    grids = [grid or LineGrid()]
    for _ in range(max(0, refinements)):
        grids.append(grids[-1].refined(2))
    return _richardson([ResolventEvaluator(u0.hardy(g), t, tail_tol=tail_tol).value(z)
                        for g in grids])


def _richardson(levels: list[complex]) -> complex:
    """Eliminate h^2, then h^3, ... from values on grids h, h/2, h/4, ..."""
    row = list(levels)
    order = 2
    while len(row) > 1:
        factor = 2.0 ** order
        row = [
            (factor * row[i + 1] - row[i]) / (factor - 1.0)
            for i in range(len(row) - 1)
        ]
        order += 1
    return complex(row[0])


def reconstruct_line(
    evaluator: ResolventEvaluator,
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
    eps_refine: bool = False,
) -> np.ndarray:
    """Samples ``2 Re Pu(t, x_j + i eps)`` of the real solution at the
    evaluator's (u0, t).

    The height shift biases the values by O(eps)*|du/dx|;
    ``eps_refine=True`` evaluates at eps and 2*eps and extrapolates
    linearly, reducing the bias to O(eps^2).  The points run one after
    another through the one evaluator.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def one(xj: float) -> float:
        v1 = evaluator.value(xj + 1j * eps)
        if eps_refine:
            v2 = evaluator.value(xj + 2j * eps)
            return float(2.0 * np.real(2.0 * v1 - v2))
        return float(2.0 * np.real(v1))

    return np.asarray([one(xj) for xj in x], dtype=float)


@dataclass(frozen=True)
class ScanRow:
    z: complex
    value: complex | None
    error: str | None = None


def uhp_grid_scan(
    evaluator: ResolventEvaluator,
    re_axis: np.ndarray,
    im_axis: np.ndarray,
) -> list[ScanRow]:
    """Pu(t, z) at the evaluator's (u0, t) on a rectangle, row-major over
    (im, re).

    Node failures are recorded per row and the scan continues; a scan
    with failed nodes warns once, with their count and the first error.
    """
    re_axis = np.atleast_1d(np.asarray(re_axis, dtype=float))
    im_axis = np.atleast_1d(np.asarray(im_axis, dtype=float))
    rows: list[ScanRow] = []
    for im in im_axis:
        for re in re_axis:
            z = complex(re, im)
            try:
                rows.append(ScanRow(z=z, value=evaluator.value(z)))
            except BoeqError as exc:
                rows.append(ScanRow(z=z, value=None, error=str(exc)))
    failed = [row for row in rows if row.error is not None]
    if failed:
        warnings.warn(f"{len(failed)} of {len(rows)} scan points failed (nan in the scan CSV); "
                      f"the first, at z = {failed[0].z}: {failed[0].error}", stacklevel=2)
    return rows
