"""Pseudo-spectral time stepper for ``u_t = d/dx (|D| u - u^2)`` on the torus.

The linear part ``d/dx |D|`` has symbol ``i k |k|`` and is integrated exactly
through an integrating factor; the quadratic term is advanced with classical
RK4 on the transformed variable (integrating-factor RK4, cf. Kassam &
Trefethen, SISC 26 (2005) for the family of exponential steppers).  The
field is real, so the stepper carries only the half spectrum and forms
products with real FFTs (``irfft``/``rfft``): the result is conjugate
symmetric by construction, and the negative modes are filled in only when a
field is handed back (``TorusField.from_hardy``).

At truncation N the stepper keeps the modes 0..cut of the 2/3 rule
(:func:`dealias_cut`, cut = floor(2N/3)); the modes above it of every field
it hands back are zero.  Products are formed on ``next_fast_len(3 cut + 1)``
points, about 2N, the smallest fast grid on which the square of the kept
band is alias-free: u^2 reaches mode 2 cut, and on P points mode j folds
onto j - P, which misses 0..cut once P > 3 cut.  The stepper at N is
therefore the plain alias-free stepper of the band 0..cut.

Every march is one loop over a stack of rows (:func:`_march`), each row
a field at its own truncation stepped by its own signed dt, that stops each
row at its own sorted list of step counts.  :func:`march_runs` lands
several runs, each a field with its times and its dt, on their times as the
rows of one lockstep march: each side of t = 0 of each run is one row, and
each time gets the whole steps and partial step of one ``evolve`` from
t = 0 (:func:`split_steps`); a partial step is taken on a copy that the
march does not continue from.  Every command that marches calls
:func:`march_runs`: ``solve-torus --method spectral`` with one run,
``boeq compare --n-list`` with one run per truncation and ``boeq validate``
with its five stepper runs as one march.  :func:`evolve` (one field, its
snapshot stops) is the loop's one other caller.

Rows are stacked in order of their last step, the longest first, so the
rows still stepping are a leading block; a row leaves the stack at its last
stop.  Every row is transformed on the grid of the largest row still
stepping.  A row differentiates only its own retained modes, so it evolves
as its own N does, to rounding: bit for bit for the row whose cut sets the
grid, within a few ulps for the others (their grid is longer).  Up to
N = 512 the fixed cost of each FFT call dominates, and a stack of rows is
cheaper than separate marches; with a row at N = 1024 the small rows' long
transforms cost about what the stack saves.  For the same reason a step
reuses its transform and stage buffers from step to step, makes exactly 8
real transforms, and tests the whole stack for a blow-up with one sum.
"""
from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BlowUpError, StabilityWarning
from .spectral import TorusField, next_fast_len, synthesize_torus

__all__ = [
    "Trajectory",
    "Run",
    "evolve",
    "march_runs",
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


class Run(NamedTuple):
    """One field to march, at its own truncation (its ``max_mode``), to
    every distinct time of ``times`` with steps of length dt > 0."""

    field: TorusField
    times: Sequence[float]
    dt: float


def dealias_cut(n):
    """Highest mode the stepper keeps at truncation n (the 2/3 rule); the
    modes above it of every field it hands back are zero."""
    return (2 * n) // 3


class _Stepper:
    """Precomputed tables for repeated steps, one signed dt per row, acting
    on the retained half spectra c_0..c_cut of real fields.

    Modes above the cut carry nothing into a step (the nonlinear term reads
    only modes 0..cut and the step output is cut), so the state is just the
    cut + 1 retained modes; the negative ones are their conjugates.  The
    state is a stack with one row per truncation in ``ns`` and one dt per
    row in ``dts`` (or one dt for all): ``cut`` is the largest row's, and a
    row's -ik table is zero above its own cut, so its modes there stay zero.
    ``dt`` (a column) and the integrating factors hold one row per row.

    The transform and stage buffers, and the tables derived from those
    above, are made once and reused by every step.
    """

    def __init__(self, ns: Sequence[int], dts: Sequence[float] | float):
        self.dt = np.full(len(ns), dts, dtype=float)[:, None]
        self.cuts = dealias_cut(np.asarray(ns))
        self.cut = int(np.max(self.cuts))
        k = np.arange(self.cut + 1)
        self.minus_ik = np.where(k <= self.cuts[:, None], -1j * k, 0.0)
        # u^2 of modes |k| <= cut reaches mode 2 * cut, which folds onto a
        # kept mode only on grids of at most 3 * cut points
        self.pad = next_fast_len(3 * self.cut + 1)
        sym = 1j * k * k
        self.e_half = np.exp(sym * self.dt / 2.0)
        self.e_full = self.e_half * self.e_half
        rows, m = self.e_half.shape
        self._grid = np.empty((rows, self.pad))
        self._spectrum = np.empty((rows, self.pad // 2 + 1), dtype=np.complex128)
        # neither transform below scales its output: (u^2)_k comes back
        # times pad, taken out here (exactly when pad is a power of two)
        self._minus_ik = self.minus_ik / self.pad
        # the per-row scalars as complex tables: no cast or broadcast per
        # product, and 2 e_half is exact
        self._half_dt, self._dt, self._sixth_dt = (
            np.broadcast_to(a, (rows, m)).astype(np.complex128)
            for a in (0.5 * self.dt, self.dt, self.dt / 6.0))
        self._twice_e_half = 2.0 * self.e_half
        self._stages = np.empty((7, rows, m), dtype=np.complex128)

    def nonlinear(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-ik * (u^2)_k, k = 0..cut, from modes 0..cut of each row of c
        (exact padded product; modes of c above the cut are not read),
        written into ``out`` when given."""
        m, grid, spectrum = self.cut + 1, self._grid, self._spectrum
        np.fft.irfft(c[:, :m], self.pad, norm="forward", out=grid)  # zero-pads
        np.multiply(grid, grid, out=grid)
        np.fft.rfft(grid, out=spectrum)
        return np.multiply(spectrum[:, :m], self._minus_ik, out=out)

    def step(self, c: np.ndarray) -> np.ndarray:
        """One IF-RK4 step of the cut + 1 retained modes of each row, as a
        new array; c itself is left as it is."""
        eh, ef, half_dt = self.e_half, self.e_full, self._half_dt
        ehc, efc, s, k1, k2, k3, k4 = self._stages
        np.multiply(eh, c, out=ehc)
        np.multiply(ef, c, out=efc)
        k1 = self.nonlinear(c, k1)
        np.multiply(k1, half_dt, out=s)
        s += c
        s *= eh
        k2 = self.nonlinear(s, k2)
        np.multiply(k2, half_dt, out=s)
        s += ehc
        k3 = self.nonlinear(s, k3)
        np.multiply(k3, eh, out=s)
        s *= self._dt
        s += efc
        k4 = self.nonlinear(s, k4)
        # ef c + dt/6 (ef k1 + 2 eh (k2 + k3) + k4), accumulated in k1
        k2 += k3
        k2 *= self._twice_e_half
        k1 *= ef
        k1 += k2
        k1 += k4
        k1 *= self._sixth_dt
        return np.add(k1, efc)


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


def _check_finite(c: np.ndarray, rows: Sequence[int], ns: Sequence[int],
                  time_of: Callable[[int], float]):
    """Raise :class:`BlowUpError` naming the first of ``rows`` (the march's
    index of each row of c) that holds a non-finite mode, with its N from
    ``ns`` (indexed by the march's rows) and its time ``time_of(row)``.

    One sum tests the whole stack; the rows are searched only when it is
    not finite, which a finite stack whose sum overflows also gives.
    """
    if np.isfinite(c.sum()):
        return
    finite = np.isfinite(c).all(axis=-1)
    bad = [i for i, ok in zip(rows, finite) if not ok]
    if bad:
        raise BlowUpError(time_of(min(bad)), ns[min(bad)])


def split_steps(total: float, dt: float) -> tuple[int, float]:
    """Whole steps of size dt that :func:`evolve` takes to cover ``total``
    (= |t_final|), and the exact partial step after them (0.0 when none)."""
    n_full = int(np.floor(total / dt + 1e-12))
    remainder = total - n_full * dt
    return n_full, (remainder if remainder > 1e-14 * max(1.0, total) else 0.0)


def _march(fields: Sequence[TorusField], dts: Sequence[float],
           stops: Sequence[Sequence[tuple[int, float]]]) -> list[list[TorusField]]:
    """The one stepping loop: each field, at its own truncation (its
    ``max_mode``), as one row of a stacked state, stepped by its own signed
    dt in ``dts``.

    ``stops[i]`` lists row i's stops, each a (whole steps, partial step)
    pair, the whole steps non-decreasing from one stop to the next; the
    result holds, for each row, its field after each of its stops: that many
    steps and then the partial step (its length, taken in the direction of
    the row's dt; 0.0 for none).  A partial step is taken on a copy that the
    march does not continue from, so each stop has the bits of one march
    straight to it.  The stop (0, 0.0) hands back the field itself.  The
    CFL check runs once per row, and a blow-up names its row's N and time.
    """
    for u, dt in zip(fields, dts):
        _check_cfl(dt, u.max_mode, u)
    ns = [u.max_mode for u in fields]
    last = [max((whole for whole, _ in row), default=0) for row in stops]
    # the rows still stepping are a leading block of the stack
    order = sorted(range(len(fields)), key=lambda i: -last[i])
    due = defaultdict(list)  # whole steps -> (row, its stop index, partial step)
    for i in order:
        for j, (whole, partial) in enumerate(stops[i]):
            due[whole].append((i, j, partial))
    out = [[None] * len(row) for row in stops]
    kept = [dealias_cut(n) + 1 for n in ns]  # modes 0..cut of each row
    position = {i: p for p, i in enumerate(order)}  # a row's place in the stack

    def hand_back(i, row):
        return TorusField.from_hardy(row[:kept[i]], ns[i])

    c = np.zeros((len(order), max(kept, default=1)), dtype=np.complex128)
    for row, i in zip(c, order):
        row[:kept[i]] = fields[i].hardy[:kept[i]]
    live, count, eng = len(order), 0, None
    while live:
        if count:
            if eng is None or len(eng.dt) != live:  # rows left: the grid of those left
                eng = _Stepper([ns[i] for i in order[:live]], [dts[i] for i in order[:live]])
                c = c[:live, :eng.cut + 1]
            c = eng.step(c)
            _check_finite(c, order[:live], ns, lambda i: count * dts[i])
        ends = []
        for i, j, partial in due.pop(count, ()):
            if partial:
                ends.append((i, j, math.copysign(partial, dts[i])))
            else:
                out[i][j] = hand_back(i, c[position[i]]) if count else fields[i]
        if ends:
            rows = [i for i, _, _ in ends]
            part = _Stepper([ns[i] for i in rows], [p for _, _, p in ends])
            end = part.step(c[[position[i] for i in rows], :part.cut + 1])
            _check_finite(end, rows, ns, {i: count * dts[i] + p for i, _, p in ends}.get)
            for (i, j, _), row in zip(ends, end):
                out[i][j] = hand_back(i, row)
        while live and last[order[live - 1]] <= count:
            live -= 1
        count += 1
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
    (fields,) = _march([u0], [direction * dt], [stops])
    return Trajectory(np.asarray(times, float), fields)


def march_runs(runs: Sequence[Run]) -> list[dict[float, TorusField]]:
    """Each run's field at every distinct time of its times, all of them
    rows of one lockstep march; one dict per run, keyed by time.

    Each side of t = 0 of a run is one row, stepped outward in |t|, and a
    side with no times runs nothing.  Every time takes its whole steps and
    its partial step from itself (:func:`split_steps`), so the row whose
    truncation sets the grid has the bits of ``evolve(u, t, dt).final()``
    and the others agree with theirs to rounding.
    """
    fields, dts, stops, sides = [], [], [], []
    for u, times, dt in runs:
        if dt <= 0:
            raise ValueError("dt must be positive")
        forward = sorted({float(t) for t in times if t >= 0})
        backward = sorted({float(t) for t in times if t < 0}, reverse=True)
        sides.append([side for side in (forward, backward) if side])
        for sign, side in ((1.0, forward), (-1.0, backward)):
            if side:
                fields.append(u)
                dts.append(sign * dt)
                stops.append([split_steps(abs(t), dt) for t in side])
    rows = iter(_march(fields, dts, stops))
    return [{t: f for side in run_sides for t, f in zip(side, next(rows))}
            for run_sides in sides]


def conserved_quantities(u: TorusField) -> dict[str, float]:
    """Mean, normalized L^2 mass, and the standard energy functional.

    energy = 1/2 sum |k| |c_k|^2 - 1/3 (1/2pi) int u^3 dx, the cubic term
    evaluated exactly on a padded grid.
    """
    n = u.max_mode
    ks = np.abs(np.arange(-n, n + 1))
    l2sq = float(np.sum(np.abs(u.coeffs) ** 2))
    grid = synthesize_torus(u.hardy, next_fast_len(3 * n + 1))
    cubic = float(np.mean(grid ** 3))
    energy = 0.5 * float(np.sum(ks * np.abs(u.coeffs) ** 2)) - cubic / 3.0
    return {"mean": u.mean, "l2sq": l2sq, "energy": energy}
