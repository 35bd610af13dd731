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

Callers that need several times (``boeq compare``, ``solve-torus --method
spectral``, the invariant checks of ``boeq validate``) march once through
them in order in whole-step :func:`evolve` segments
(``boeq.checks.march_times``); each time gets the bits of one ``evolve``
from t = 0 (:func:`split_steps`).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np
from scipy.fft import next_fast_len

from .errors import BlowUpError, InvalidFieldError, StabilityWarning
from .spectral import SYMMETRY_TOL, TorusField

__all__ = [
    "Trajectory",
    "evolve",
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
    (N, dt), acting on the retained half spectrum c_0..c_cut of a real field.

    Modes above the cut carry nothing into a step (the nonlinear term reads
    only modes 0..cut and the step output is cut), so the state is just the
    cut + 1 retained modes; the negative ones are their conjugates.
    """

    def __init__(self, n: int, dt: float, dealias: bool = True):
        self.dt = dt
        self.cut = (2 * n) // 3 if dealias else n
        k = np.arange(self.cut + 1)
        self.minus_ik = -1j * k
        # u^2 reaches mode 2 * cut, which folds onto a kept mode only on
        # grids of at most 3 * cut points; sizing by n keeps one grid for
        # both cuts, so they round alike
        self.pad = next_fast_len(3 * n + 1, real=True)
        self.buf = np.zeros(self.pad // 2 + 1, dtype=np.complex128)
        sym = 1j * k * k
        self.e_half = np.exp(sym * dt / 2.0)
        self.e_full = self.e_half * self.e_half

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        """-ik * (u^2)_k, k = 0..cut, from modes 0..cut of c (exact padded product)."""
        m = self.cut + 1
        self.buf[:m] = c[:m]
        u = np.fft.irfft(self.buf, self.pad, norm="forward")
        w = np.fft.rfft(u * u, norm="forward")
        return self.minus_ik * w[:m]

    def step(self, c: np.ndarray) -> np.ndarray:
        """One IF-RK4 step of the cut + 1 retained modes."""
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
            f"nonlinear CFL number dt*N*max|u| ~ {number:.3g} exceeds "
            f"{CFL_MARGIN:g}; watch for blow-up",
            StabilityWarning,
            stacklevel=3,
        )


def _restore(c: np.ndarray, n: int, t: float) -> TorusField:
    """The real field at truncation n whose modes 0..len(c)-1 are c."""
    if not np.all(np.isfinite(c)):
        raise BlowUpError(t)
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


def evolve(
    u0: TorusField,
    t_final: float,
    dt: float,
    n: int | None = None,
    snapshot_every: int = 0,
) -> Trajectory:
    """March to t_final (negative runs backward), collecting snapshots.

    ``snapshot_every`` is in steps; 0 keeps only the endpoints.  The final
    partial step, when t_final is not a multiple of dt, is taken exactly.
    Raises :class:`InvalidFieldError` when u0 is not real (conjugate-symmetry
    defect above ``SYMMETRY_TOL``).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_real(u0)
    n = u0.max_mode if n is None else n
    if n != u0.max_mode:
        c = np.zeros(2 * n + 1, dtype=np.complex128)
        m = min(n, u0.max_mode)
        c[n - m:n + m + 1] = u0.coeffs[u0.max_mode - m:u0.max_mode + m + 1]
        u0 = TorusField(n, c)
    _check_cfl(dt, n, u0)

    direction = 1.0 if t_final >= 0 else -1.0
    n_full, remainder = split_steps(abs(t_final), dt)

    times = [0.0]
    fields = [u0]
    eng = _Stepper(n, direction * dt)
    c = u0.coeffs[n:n + eng.cut + 1]
    t = 0.0
    for i in range(1, n_full + 1):
        c = eng.step(c)
        t = direction * i * dt
        if not np.all(np.isfinite(c)):
            raise BlowUpError(t)
        if snapshot_every and i % snapshot_every == 0 and i != n_full:
            times.append(t)
            fields.append(_restore(c, n, t))
    if remainder:
        c = _Stepper(n, direction * remainder).step(c)
        t = t_final
    if times[-1] != t:
        times.append(t)
        fields.append(_restore(c, n, t))
    return Trajectory(np.asarray(times, float), fields)


def conserved_quantities(u: TorusField) -> dict[str, float]:
    """Mean, normalized L^2 mass, and the standard energy functional.

    energy = 1/2 sum |k| |c_k|^2 - 1/3 (1/2pi) int u^3 dx, the cubic term
    evaluated exactly on a padded grid.
    """
    n = u.max_mode
    ks = np.abs(np.arange(-n, n + 1))
    mean = float(u.coeff(0).real)
    l2sq = float(np.sum(np.abs(u.coeffs) ** 2))
    grid = np.fft.irfft(u.coeffs[n:], next_fast_len(3 * n + 1, real=True), norm="forward")
    cubic = float(np.mean(grid ** 3))
    energy = 0.5 * float(np.sum(ks * np.abs(u.coeffs) ** 2)) - cubic / 3.0
    return {"mean": mean, "l2sq": l2sq, "energy": energy}
