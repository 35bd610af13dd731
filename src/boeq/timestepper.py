"""Pseudo-spectral time stepper for ``u_t = d/dx (|D| u - u^2)`` on the torus.

The linear part ``d/dx |D|`` has symbol ``i k |k|`` and is integrated exactly
through an integrating factor; the quadratic term is advanced with classical
RK4 on the transformed variable (integrating-factor RK4, cf. Kassam &
Trefethen, SISC 26 (2005) for the family of exponential steppers).  The
field is real, so the stepper carries only the half spectrum c_0..c_N and
forms products with real FFTs (``irfft``/``rfft``): the result is conjugate
symmetric by construction, and the negative modes are filled in only when a
field is handed back.  Products are formed on a zero-padded grid large
enough that every retained mode of the quadratic is alias-free, then cut
with the 2/3 rule, so the dealiasing property "cut changes nothing for
band-limited data" holds to the bit.  Complex (non-real) data are refused.

Callers that need several times (``solve-torus --method spectral``, the
checks of ``boeq validate``) march once through them in order in whole-step
:func:`evolve` segments (``boeq.checks.march_times``); each time gets the
bits of one ``evolve`` from t = 0 (:func:`split_steps`).

Every march is one loop over a stack of rows (:func:`_march`), one row
per truncation: :func:`evolve` is a one-row stack, and several truncations
of one datum (``boeq compare --n-list``) march together through
:func:`evolve_stack`.  Every row is transformed on the largest row's padded
grid.  A row differentiates only its own retained modes, so it evolves as
its own N does, to rounding: bit for bit for the largest N, within a few
ulps for the others (their padded grid is longer).  Up to N = 512 the fixed
cost of each FFT call dominates, and a stack of rows is cheaper than
separate marches; with a row at N = 1024 the small rows' long padded
transforms make it dearer.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUpError, InvalidFieldError, StabilityWarning
from .spectral import SYMMETRY_TOL, TorusField, next_fast_len

__all__ = [
    "Trajectory",
    "evolve",
    "evolve_stack",
    "split_steps",
    "conserved_quantities",
]

# Stability guard: the exact integrating factor removes the dispersive
# constraint entirely, leaving the nonlinear CFL number dt * N * max|u|
# (RK4 tolerates a few units of it).  A StabilityWarning fires beyond
# CFL_MARGIN; blow-up detection is the hard guard.
CFL_MARGIN = 1.0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    fields: list[TorusField]

    def final(self) -> TorusField:
        return self.fields[-1]


class _Stepper:
    """Precomputed tables and padded FFT buffer for repeated steps at fixed
    dt, acting on the retained half spectra c_0..c_cut of real fields.

    Modes above the cut carry nothing into a step (the nonlinear term reads
    only modes 0..cut and the step output is cut), so the state is just the
    cut + 1 retained modes; the negative ones are their conjugates.  The
    state is a stack with one row per truncation in ``ns``: ``cut`` is the
    largest row's, and a row's -ik table is zero above its own cut, so its
    modes there stay zero.
    """

    def __init__(self, ns: Sequence[int], dt: float, dealias: bool = True):
        self.dt = dt
        ns = np.asarray(ns)
        self.cuts = (2 * ns) // 3 if dealias else ns
        self.cut = int(np.max(self.cuts))
        k = np.arange(self.cut + 1)
        self.minus_ik = np.where(k <= self.cuts[:, None], -1j * k, 0.0)
        # u^2 reaches mode 2 * cut, which folds onto a kept mode only on
        # grids of at most 3 * cut points; sizing by the largest n keeps
        # one grid for both cuts, so they round alike
        self.pad = next_fast_len(3 * int(np.max(ns)) + 1)
        self.buf = np.zeros((len(ns), self.pad // 2 + 1), dtype=np.complex128)
        sym = 1j * k * k
        self.e_half = np.exp(sym * dt / 2.0)
        self.e_full = self.e_half * self.e_half

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        """-ik * (u^2)_k, k = 0..cut, from modes 0..cut of each row of c
        (exact padded product)."""
        m = self.cut + 1
        self.buf[:, :m] = c[:, :m]
        u = np.fft.irfft(self.buf, self.pad, norm="forward")
        w = np.fft.rfft(u * u, norm="forward")
        return self.minus_ik * w[:, :m]

    def step(self, c: np.ndarray) -> np.ndarray:
        """One IF-RK4 step of the cut + 1 retained modes of each row."""
        dt, eh, ef = self.dt, self.e_half, self.e_full
        k1 = self.nonlinear(c)
        k2 = self.nonlinear(eh * (c + 0.5 * dt * k1))
        k3 = self.nonlinear(eh * c + 0.5 * dt * k2)
        k4 = self.nonlinear(ef * c + dt * eh * k3)
        return ef * c + (dt / 6.0) * (ef * k1 + 2.0 * eh * (k2 + k3) + k4)


def _check_real(u: TorusField):
    defect = u.symmetry_defect()
    if defect > SYMMETRY_TOL:
        raise InvalidFieldError(
            f"conjugate-symmetry defect {defect:.3e} exceeds {SYMMETRY_TOL:g}; "
            "the stepper evolves real fields only"
        )


def _check_cfl(dt: float, n: int, field: TorusField):
    amp = float(np.sum(np.abs(field.coeffs)))  # bounds max|u|
    number = abs(dt) * n * amp
    if number > CFL_MARGIN:
        warnings.warn(
            f"nonlinear CFL number dt*N*max|u| ~ {number:.3g} at N = {n} exceeds "
            f"{CFL_MARGIN:g}; watch for blow-up",
            StabilityWarning,
            stacklevel=4,
        )


def _check_finite(c: np.ndarray, ns: Sequence[int], t: float):
    """Raise :class:`BlowUpError` naming the first row of c, one per
    truncation in ``ns``, that holds a non-finite mode."""
    finite = np.isfinite(c).all(axis=-1)
    if not finite.all():
        raise BlowUpError(t, ns[int(np.argmin(finite))])


def _restore(c: np.ndarray, n: int) -> TorusField:
    """The real field at truncation n whose modes 0..len(c)-1 are c."""
    m = c.size
    coeffs = np.zeros(2 * n + 1, dtype=np.complex128)
    coeffs[n:n + m] = c
    coeffs[n] = c[0].real  # the input's c_0 may carry an imaginary part within SYMMETRY_TOL
    coeffs[n - m + 1:n] = np.conj(c[:0:-1])
    return TorusField(n, coeffs)


def split_steps(total: float, dt: float) -> tuple[int, float]:
    """Whole steps of size dt that :func:`evolve` takes to cover ``total``
    (= |t_final|), and the exact partial step after them (0.0 when none)."""
    n_full = int(np.floor(total / dt + 1e-12))
    remainder = total - n_full * dt
    return n_full, (remainder if remainder > 1e-14 * max(1.0, total) else 0.0)


def _march(fields: Sequence[TorusField], t_final: float, dt: float,
           snapshot_every: int = 0) -> tuple[list[float], list[list[TorusField]]]:
    """The one stepping loop: every field marched to t_final at its own
    truncation (its ``max_mode``) as one row of a stacked state.

    Returns the snapshot times, from 0.0 to t_final, and for each time the
    fields of every row, in order.  ``snapshot_every`` is in steps; 0 keeps
    only the endpoints.  The final partial step, when t_final is not a
    multiple of dt, is taken exactly.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ns = [u.max_mode for u in fields]
    for u in fields:
        _check_real(u)
        _check_cfl(dt, u.max_mode, u)
    direction = 1.0 if t_final >= 0 else -1.0
    n_full, remainder = split_steps(abs(t_final), dt)
    times, snapshots = [0.0], [list(fields)]
    if not fields:
        return times, snapshots

    eng = _Stepper(ns, direction * dt)
    c = np.zeros((len(ns), eng.cut + 1), dtype=np.complex128)
    for row, u, n, cut in zip(c, fields, ns, eng.cuts):
        row[:cut + 1] = u.coeffs[n:n + cut + 1]

    def restore():
        return [_restore(row[:cut + 1], n) for row, n, cut in zip(c, ns, eng.cuts)]

    t = 0.0
    for i in range(1, n_full + 1):
        c = eng.step(c)
        t = direction * i * dt
        _check_finite(c, ns, t)
        if snapshot_every and i % snapshot_every == 0 and i != n_full:
            times.append(t)
            snapshots.append(restore())
    if remainder:
        c = _Stepper(ns, direction * remainder).step(c)
        t = t_final
        _check_finite(c, ns, t)
    if times[-1] != t:
        times.append(t)
        snapshots.append(restore())
    return times, snapshots


def evolve(
    u0: TorusField,
    t_final: float,
    dt: float,
    n: int | None = None,
    snapshot_every: int = 0,
) -> Trajectory:
    """March u0, at truncation n (default its own), to t_final (negative
    runs backward), collecting snapshots: a one-row :func:`_march`.

    ``snapshot_every`` is in steps; 0 keeps only the endpoints.  The final
    partial step, when t_final is not a multiple of dt, is taken exactly.
    Raises :class:`InvalidFieldError` when u0 is not real (conjugate-symmetry
    defect above ``SYMMETRY_TOL``).
    """
    n = u0.max_mode if n is None else n
    if n != u0.max_mode:
        c = np.zeros(2 * n + 1, dtype=np.complex128)
        m = min(n, u0.max_mode)
        c[n - m:n + m + 1] = u0.coeffs[u0.max_mode - m:u0.max_mode + m + 1]
        u0 = TorusField(n, c)
    times, snapshots = _march([u0], t_final, dt, snapshot_every)
    return Trajectory(np.asarray(times, float), [rows[0] for rows in snapshots])


def evolve_stack(fields: Sequence[TorusField], t_final: float, dt: float) -> list[TorusField]:
    """Each field marched to t_final at its own truncation (its ``max_mode``),
    all of them in one stacked :func:`_march`; the final fields, in order.

    Every row takes the steps of ``evolve(u, t_final, dt).final()``, with
    the same partial step, and matches it bit for bit when it is the largest
    truncation, to rounding otherwise.  The reality, CFL and blow-up checks
    run per row, and their warning or error names the row's N.
    """
    return _march(fields, t_final, dt)[1][-1]


def conserved_quantities(u: TorusField) -> dict[str, float]:
    """Mean, normalized L^2 mass, and the standard energy functional.

    energy = 1/2 sum |k| |c_k|^2 - 1/3 (1/2pi) int u^3 dx, the cubic term
    evaluated exactly on a padded grid.
    """
    n = u.max_mode
    ks = np.abs(np.arange(-n, n + 1))
    mean = float(u.coeff(0).real)
    l2sq = float(np.sum(np.abs(u.coeffs) ** 2))
    grid = np.fft.irfft(u.coeffs[n:], next_fast_len(3 * n + 1), norm="forward")
    cubic = float(np.mean(grid ** 3))
    energy = 0.5 * float(np.sum(ks * np.abs(u.coeffs) ** 2)) - cubic / 3.0
    return {"mean": mean, "l2sq": l2sq, "energy": energy}
