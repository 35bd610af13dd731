"""Line reference solutions from the torus stepper on a rescaled periodic box.

If u solves ``u_t = d/dx (|D| u - u^2)`` on the line, then
``v(s, y) = lam * u(lam^2 s, lam (y - pi))`` with ``lam = X / pi`` is
2pi-periodic on a box of half-width X and solves the same equation on the
torus.  Decaying line data is insensitive to the box for X much larger than
the support width, so a torus run of v is an independent oracle for the
line formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from boeq.spectral import TWO_PI, field_from_samples
from boeq.timestepper import evolve


@dataclass(frozen=True)
class BoxLineRun:
    """Result of a periodized line run mapped back to line variables."""

    x: np.ndarray          # uniform grid in [-X, X)
    u: np.ndarray          # u(t, x) samples
    half_width: float
    n_modes: int
    dt_box: float
    steps: int


def evolve_line_on_box(
    u0_of_x: Callable[[np.ndarray], np.ndarray],
    t: float,
    half_width: float,
    n_modes: int,
    cfl: float = 0.5,
) -> BoxLineRun:
    """Evolve decaying line data to time t on a periodic box of half-width X.

    The box field ``v(y) = lam u(lam (y - pi))`` with ``lam = X/pi`` runs on
    the standard torus to the rescaled time ``t / lam^2``; samples map back to
    ``u(t, x) = v(s, x/lam + pi)/lam`` on the uniform x grid.
    """
    lam = half_width / np.pi
    n_grid = 2 * n_modes + 2
    y = TWO_PI * np.arange(n_grid) / n_grid
    x = lam * (y - np.pi)
    v0 = lam * u0_of_x(x)
    field0 = field_from_samples(v0, max_mode=n_modes)

    s_final = t / lam ** 2
    amp = float(np.max(np.abs(v0)))
    dt_box = cfl / (n_modes * max(amp, 1e-12))
    steps = max(1, int(np.ceil(abs(s_final) / dt_box)))
    dt_box = abs(s_final) / steps if s_final != 0 else dt_box

    if s_final == 0:
        v_t = v0
    else:
        final = evolve(field0, s_final, dt_box).final()
        v_t = np.fft.irfft(final.coeffs[final.max_mode:], n_grid, norm="forward")
    order = np.argsort(x)
    return BoxLineRun(
        x=x[order],
        u=(v_t / lam)[order],
        half_width=half_width,
        n_modes=n_modes,
        dt_box=dt_box,
        steps=steps,
    )
