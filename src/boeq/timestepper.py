"""Pseudo-spectral time stepper for ``u_t = d/dx (|D| u - u^2)`` on the torus.

The linear part ``d/dx |D|`` has symbol ``i k |k|`` and is integrated exactly
through an integrating factor; the quadratic term is advanced with classical
RK4 on the transformed variable (integrating-factor RK4, cf. Kassam &
Trefethen, SISC 26 (2005) for the family of exponential steppers).  The
field is real, so the stepper carries only the half spectrum c_0..c_N and
forms products with real FFTs (``irfft``/``rfft``): the result is conjugate
symmetric by construction, and the negative modes are filled in only when a
field is handed back (``TorusField.from_hardy``).  Products are formed on a
zero-padded grid large enough that every retained mode of the quadratic is
alias-free, then cut with the 2/3 rule (:func:`dealias_cut`), so the
dealiasing property "cut changes nothing for band-limited data" holds to
the bit, and a field handed back is zero above the cut.

Every march is one loop over a stack of rows (:func:`_march`), one row
per truncation, that stops at a sorted list of step counts and returns
every row at every stop.  :func:`evolve` is a one-row march with its
snapshot stops; :func:`march` lands several fields on several times, each
side of t = 0 marched once, and every caller that needs more than one time
or more than one truncation goes through it (``solve-torus --method
spectral``, the checks of ``boeq validate``, ``boeq compare --n-list``).
Each time gets the whole steps and partial step of one ``evolve`` from
t = 0 (:func:`split_steps`); a partial step is taken on a copy that the
march does not continue from.

Every row is transformed on the largest row's padded grid.  A row
differentiates only its own retained modes, so it evolves as its own N
does, to rounding: bit for bit for the largest N, within a few ulps for
the others (their padded grid is longer).  Up to N = 512 the fixed cost of
each FFT call dominates, and a stack of rows is cheaper than separate
marches; with a row at N = 1024 the small rows' long padded transforms
make it dearer.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUpError, StabilityWarning
from .spectral import TorusField, next_fast_len

__all__ = [
    "Trajectory",
    "evolve",
    "march",
    "split_steps",
    "dealias_cut",
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


def dealias_cut(n):
    """Highest mode the stepper keeps at truncation n (the 2/3 rule); the
    modes above it of every field it hands back are zero."""
    return (2 * n) // 3


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
        self.cuts = dealias_cut(ns) if dealias else ns
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


def split_steps(total: float, dt: float) -> tuple[int, float]:
    """Whole steps of size dt that :func:`evolve` takes to cover ``total``
    (= |t_final|), and the exact partial step after them (0.0 when none)."""
    n_full = int(np.floor(total / dt + 1e-12))
    remainder = total - n_full * dt
    return n_full, (remainder if remainder > 1e-14 * max(1.0, total) else 0.0)


def _march(fields: Sequence[TorusField], stops: Sequence[tuple[int, float]],
           dt: float) -> list[list[TorusField]]:
    """The one stepping loop: every field, at its own truncation (its
    ``max_mode``), as one row of a stacked state, stepped by the signed dt.

    Each stop is a (whole steps, partial step) pair, the whole steps
    non-decreasing from one stop to the next; the result holds, for each
    stop, every row after that many steps and then the partial step (its
    length, taken in the direction of dt; 0.0 for none).  A partial step is
    taken on a copy that the march does not continue from, so each stop has
    the bits of one march straight to it.  The stop (0, 0.0) hands back the
    fields themselves.  The CFL check runs once per row, and a blow-up
    names its row's N.
    """
    for u in fields:
        _check_cfl(dt, u.max_mode, u)
    if not fields:
        return [[] for _ in stops]
    ns = [u.max_mode for u in fields]
    eng = _Stepper(ns, dt)
    c = np.zeros((len(ns), eng.cut + 1), dtype=np.complex128)
    for row, u, cut in zip(c, fields, eng.cuts):
        row[:cut + 1] = u.hardy[:cut + 1]

    out, done = [], 0
    for whole, partial in stops:
        for i in range(done + 1, whole + 1):
            c = eng.step(c)
            _check_finite(c, ns, i * dt)
        done = whole
        if not (whole or partial):
            out.append(list(fields))
            continue
        end = c
        if partial:
            partial = math.copysign(partial, dt)
            end = _Stepper(ns, partial).step(c)
            _check_finite(end, ns, whole * dt + partial)
        out.append([TorusField.from_hardy(row[:cut + 1], n)
                    for row, n, cut in zip(end, ns, eng.cuts)])
    return out


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
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u0 = u0.truncated(u0.max_mode if n is None else n)
    direction = 1.0 if t_final >= 0 else -1.0
    n_full, remainder = split_steps(abs(t_final), dt)
    # snapshot stops by step count: times rebuilt from floats would round
    # differently from the march's own count
    every = range(snapshot_every, n_full, snapshot_every) if snapshot_every > 0 else []
    stops = [(0, 0.0)] + [(i, 0.0) for i in every]
    times = [0.0] + [direction * i * dt for i in every]
    if n_full or remainder:
        stops.append((n_full, remainder))
        times.append(t_final if remainder else direction * n_full * dt)
    fields = _march([u0], stops, direction * dt)
    return Trajectory(np.asarray(times, float), [rows[0] for rows in fields])


def march(fields: Sequence[TorusField], times: Sequence[float],
          dt: float) -> list[dict[float, TorusField]]:
    """Each field, at its own truncation (its ``max_mode``), at every
    distinct time of ``times``, all of them rows of one stacked march; one
    dict per field, keyed by time.

    Each side of t = 0 is marched once, outward in |t|, and a side with no
    times runs nothing.  Every time takes its whole steps and its partial
    step from itself (:func:`split_steps`), so the largest truncation's
    fields have the bits of ``evolve(u, t, dt).final()`` and the others
    agree with theirs to rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    by_time: dict[float, list[TorusField]] = {}
    forward = sorted({float(t) for t in times if t >= 0})
    backward = sorted({float(t) for t in times if t < 0}, reverse=True)
    for sign, side in ((1.0, forward), (-1.0, backward)):
        if side:
            stops = [split_steps(abs(t), dt) for t in side]
            by_time.update(zip(side, _march(fields, stops, sign * dt)))
    return [{t: rows[i] for t, rows in by_time.items()} for i in range(len(fields))]


def conserved_quantities(u: TorusField) -> dict[str, float]:
    """Mean, normalized L^2 mass, and the standard energy functional.

    energy = 1/2 sum |k| |c_k|^2 - 1/3 (1/2pi) int u^3 dx, the cubic term
    evaluated exactly on a padded grid.
    """
    n = u.max_mode
    ks = np.abs(np.arange(-n, n + 1))
    mean = u.mean
    l2sq = float(np.sum(np.abs(u.coeffs) ** 2))
    grid = np.fft.irfft(u.hardy, next_fast_len(3 * n + 1), norm="forward")
    cubic = float(np.mean(grid ** 3))
    energy = 0.5 * float(np.sum(ks * np.abs(u.coeffs) ** 2)) - cubic / 3.0
    return {"mean": mean, "l2sq": l2sq, "energy": energy}
