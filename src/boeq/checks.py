"""Executable operator-identity checks and convergence studies.

Torus identities are *finite-section exact*: for symbols band-limited to
|k| <= m, both sides of each identity agree to machine precision on columns
at distance >= 2m from the truncation edge, so tolerances sit at 1e-12.
Line identities hold only in the h -> 0 limit of the grid; their residuals
are asserted against calibrated C*h^2 envelopes and their convergence
order is measured by refinement ladders.  Their operator products are formed
matrix-free (the generator from its stencil in O(M), the Toeplitz operator by
circulant FFT in O(M log M)), so no M x M array is allocated.

Each stepper-based check is two parts: the runs it asks of the stepper
(a :class:`_Request`: field, times and dt per run) and a report computed
from the marched fields.  A public check runs its own request; the default
suite gathers the requests of all its stepper checks and answers them with
one lockstep march (``timestepper.march_runs``), one row per run with its
own dt.  The Lax ladder reads all three difference steps from one run at
the finest step (:func:`check_lax_ladder`), the flow invariants read every
time from one run (:func:`check_invariants`), :func:`formula_vs_solver`
runs each of its truncations as one row, and the stepper's temporal order
is measured against the explicit formula rather than a fine stepper run.
Benjamin's periodic travelling wave checks the formula alone against its
closed form (:func:`check_periodic_wave`).

Reports are plain records (name, residual, tolerance, passed, parameters)
that serialize to JSON; the default suite is deterministic, fixed seeds
included, so repeated runs produce byte-identical reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .line_operators import (
    LineField,
    LineGrid,
    generator_apply,
    iplus,
    toeplitz_apply,
)
from .presets import line_preset, torus_preset
from .spectral import TWO_PI, TorusField, synthesize_torus
from .timestepper import Run, conserved_quantities, march_runs, split_steps
from .timestepper import evolve  # noqa: F401  (traced here by perfbench/spans.py)
from .torus_operators import b_matrix, lax_matrix, shift_adjoint, toeplitz_matrix
from .torus_solution import evolve_coefficients, propagator, reconstruct_torus

__all__ = [
    "CheckReport",
    "check_torus_commutators",
    "check_lax_ladder",
    "check_invariants",
    "check_formula_isospectrality",
    "check_periodic_wave",
    "check_line_identities",
    "formula_vs_solver",
    "convergence_study",
    "StudyRow",
    "default_suite",
    "SUITE_NAMES",
]

FINITE_SECTION_TOL = 1e-12
LAX_EVOLUTION_TOL = 1e-4
ISOSPECTRAL_TOL = 1e-6
FORMULA_ISOSPECTRAL_TOL = 1e-10
PERIODIC_WAVE_TOL = 1e-13
# absolute for the mean, relative to the datum's value for mass and energy
CONSERVATION_MEAN_TOL = 1e-12
CONSERVATION_L2_TOL = 1e-9
CONSERVATION_ENERGY_TOL = 1e-8

# calibrated residual/h^2 envelopes for the line checks (default test pair)
LINE_C = {
    "line_gd": 6.0,
    "line_toeplitz_bracket": 8.0,
    "line_flow_bracket": 40.0,
    "line_dissipativity": 2.0,
}


@dataclass(frozen=True)
class CheckReport:
    name: str
    residual: float
    tolerance: float
    passed: bool
    parameters: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_residual(cls, name: str, residual: float, tolerance: float, **params: Any) -> "CheckReport":
        return cls(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            parameters=params,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "parameters": self.parameters,
        }


class _Request(NamedTuple):
    """A stepper-based check's runs, and its report computed from their
    marched fields (one dict of times per run, in the order of ``runs``)."""

    runs: list[Run]
    report: Callable[[list[dict[float, TorusField]]], Any]

    def run(self) -> Any:
        """The report, from a march of this request's runs alone."""
        return self.report(march_runs(self.runs))


def _answer(requests: Sequence[_Request]) -> list:
    """Every request's report, from one lockstep march of all their runs."""
    marched = iter(march_runs([run for r in requests for run in r.runs]))
    return [r.report([next(marched) for _ in r.runs]) for r in requests]


# ---------------------------------------------------------------------------
# torus finite-section identities
# ---------------------------------------------------------------------------

def _margin_columns(n: int, m: int) -> slice:
    if m == 0:
        return slice(0, n + 1)
    return slice(2 * m, n - 2 * m + 1)


def check_torus_commutators(u: TorusField, n: int, label: str = "") -> list[CheckReport]:
    """Adjoint Leibniz rule, shift commutator of a Toeplitz operator, and
    the bracket identity behind the flow conjugation, on margin columns.

    Requires the symbol band m to satisfy n >= 8m.
    """
    m = u.effective_band(rel_tol=1e-14)
    if n < 8 * m:
        raise ConfigurationError(f"band {m} needs n >= {8 * m} (got {n})")
    suffix = f"[{label}]" if label else ""
    cols = _margin_columns(n, m)

    s = shift_adjoint(n).entries
    d = np.diag(np.arange(n + 1).astype(np.complex128))
    t = toeplitz_matrix(u, n).entries
    lm = lax_matrix(u, n).entries
    bm = b_matrix(u, n).entries
    eye = np.eye(n + 1)

    # S* D = D S* + S*, exact at every column of every truncation
    leibniz = np.max(np.abs(s @ d - (d @ s + s)))

    # [S*, T_u] = <.|1> S* Pu : zero on columns with no e_0 component,
    # and exactly S* Pu against e_0 (checked as column 0 of the residual)
    hardy = u.truncated(n).hardy
    rhs = np.zeros((n + 1, n + 1), dtype=np.complex128)
    rhs[:, 0] = np.append(hardy[1:], 0.0)
    comm_ts = s @ t - t @ s - rhs
    res_ts = max(
        float(np.max(np.abs(comm_ts[:, cols]))),
        float(np.max(np.abs(comm_ts[:, 0]))),
    )

    # [S*, B_u] = i((L_u + I)^2 S* - S* L_u^2) on margin columns
    lhs = s @ bm - bm @ s
    lp = lm + eye
    rhs_b = 1j * (lp @ (lp @ s) - s @ (lm @ lm))
    res_bracket = float(np.max(np.abs((lhs - rhs_b)[:, cols])))

    params = {"n": n, "band": m, "margin_lo": cols.start, "margin_hi": cols.stop - 1}
    return [
        CheckReport.from_residual(f"torus_leibniz{suffix}", leibniz, FINITE_SECTION_TOL, **params),
        CheckReport.from_residual(f"torus_toeplitz_shift{suffix}", res_ts, FINITE_SECTION_TOL, **params),
        CheckReport.from_residual(f"torus_lax_bracket{suffix}", res_bracket, FINITE_SECTION_TOL, **params),
    ]


def check_lax_ladder(
    u0: TorusField,
    t: float,
    levels: Sequence[float],
    n: int,
    tolerance: float = LAX_EVOLUTION_TOL,
) -> list[CheckReport]:
    """One ``lax_evolution`` report per difference step dt in ``levels``.

    Each compares the central difference of t -> L_{u(t)} with step dt about
    t_mid = round(t / dt) dt against [B_{u(t_mid)}, L_{u(t_mid)}] on margin
    columns of the effective band, so its residual is dominated by the
    O(dt^2) differencing error.  The solver marches u0 at truncation n
    once, at the finest dt, through the stencil times of every level; each
    stencil time must be a whole number of those steps, so every field has
    the bits of one ``evolve`` from t = 0 at the finest dt.
    """
    return _lax_ladder(u0, t, levels, n, tolerance).run()


def _lax_ladder(u0: TorusField, t: float, levels: Sequence[float], n: int,
                tolerance: float = LAX_EVOLUTION_TOL) -> _Request:
    """:func:`check_lax_ladder` as a request: its one run and its reports."""
    step = min(levels)
    stencils = []
    for dt in levels:
        steps_mid = int(round(t / dt))
        if steps_mid < 1:
            raise ConfigurationError("t must be at least one time step")
        t_mid = steps_mid * dt
        stencil = (t_mid - dt, t_mid, t_mid + dt)
        if any(split_steps(s, step)[1] for s in stencil):
            raise ConfigurationError(
                f"the stencil of difference step {dt:g} is not on the grid of march step {step:g}"
            )
        stencils.append((dt, stencil))

    def report(marched: list[dict[float, TorusField]]) -> list[CheckReport]:
        (fields,) = marched
        reports = []
        for dt, stencil in stencils:
            u_minus, u_mid, u_plus = (fields[s] for s in stencil)
            m = max(u_mid.effective_band(rel_tol=1e-9), 1)
            if n <= 6 * m:
                raise ConfigurationError(
                    f"effective band {m} at t = {stencil[1]:g} leaves no margin columns at "
                    f"n = {n}; need n > {6 * m}"
                )
            cols = slice(3 * m, n - 3 * m + 1)

            fd = (lax_matrix(u_plus, n).entries - lax_matrix(u_minus, n).entries) / (2.0 * dt)
            lm = lax_matrix(u_mid, n).entries
            bm = b_matrix(u_mid, n).entries
            comm = bm @ lm - lm @ bm
            residual = float(np.max(np.abs((fd - comm)[:, cols])))
            reports.append(CheckReport.from_residual(
                "lax_evolution",
                residual,
                tolerance,
                n=n, dt=dt, t=stencil[1], band=m, march_dt=step,
            ))
        return reports

    times = [s for _, stencil in stencils for s in stencil]
    return _Request([Run(u0.truncated(n), times, step)], report)


def _lowest_lax_eigenvalues(u: TorusField, n: int, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of L_u at truncation n, ascending."""
    return np.linalg.eigvalsh(lax_matrix(u, n).entries)[:count]


def _relative_drift(now: float, start: float) -> float:
    return abs(now - start) / max(abs(start), np.finfo(float).tiny)


def check_invariants(
    u0: TorusField,
    times: Sequence[float],
    n: int,
    n_eigs: int = 10,
    dt: float = 1e-3,
) -> list[CheckReport]:
    """Invariants of the flow along one stepper march through ``times``.

    The flow is isospectral, so the lowest eigenvalues of L_{u(t)} keep
    those of L_{u0}; the mean, the L^2 mass and the energy, its first
    spectral invariants, are read from the same fields.  Each residual is
    the largest drift over the march times, relative to the datum's value
    for the mass and the energy.
    """
    return _invariants(u0, times, n, n_eigs, dt).run()


def _invariants(u0: TorusField, times: Sequence[float], n: int, n_eigs: int = 10,
                dt: float = 1e-3) -> _Request:
    """:func:`check_invariants` as a request: its one run and its reports."""

    def report(marched: list[dict[float, TorusField]]) -> list[CheckReport]:
        base = _lowest_lax_eigenvalues(u0, n, n_eigs)
        q0 = conserved_quantities(u0)
        drifts = []
        for current in marched[0].values():
            eigs = _lowest_lax_eigenvalues(current, n, n_eigs)
            q = conserved_quantities(current)
            drifts.append([np.max(np.abs(eigs - base)), abs(q["mean"] - q0["mean"]),
                           _relative_drift(q["l2sq"], q0["l2sq"]),
                           _relative_drift(q["energy"], q0["energy"])])
        # np.max keeps a NaN drift, where the builtin max would drop it
        spectrum, mean, l2, energy = np.max(np.reshape(drifts, (-1, 4)), axis=0, initial=0.0)
        params = {"n": n, "dt": dt, "times": list(map(float, times))}
        return [
            CheckReport.from_residual("isospectrality", spectrum, ISOSPECTRAL_TOL,
                                      n_eigs=n_eigs, **params),
            CheckReport.from_residual("conservation_mean", mean, CONSERVATION_MEAN_TOL, **params),
            CheckReport.from_residual("conservation_l2", l2, CONSERVATION_L2_TOL, **params),
            CheckReport.from_residual("conservation_energy", energy, CONSERVATION_ENERGY_TOL,
                                      **params),
        ]

    return _Request([Run(u0.truncated(n), times, dt)], report)


def check_formula_isospectrality(
    u0: TorusField,
    coeffs: np.ndarray,
    n: int,
    n_eigs: int = 10,
    tolerance: float = FORMULA_ISOSPECTRAL_TOL,
) -> CheckReport:
    """Lowest eigenvalues of L_{u(t)} for the explicit formula's u(t)
    against those of L_{u0}.

    ``coeffs`` are the Hardy coefficients uhat(t, k), k = 0..K, returned by
    :func:`evolve_coefficients`; the mean is their k = 0 entry.  The flow
    is isospectral, so the two spectra agree to rounding, and a wrong
    coefficient, the mean included, moves them apart.
    """
    u_t = TorusField.from_hardy(coeffs)
    base = _lowest_lax_eigenvalues(u0, n, n_eigs)
    eigs = _lowest_lax_eigenvalues(u_t, n, n_eigs)
    return CheckReport.from_residual(
        "formula_isospectrality",
        float(np.max(np.abs(eigs - base))),
        tolerance,
        n=n, n_eigs=n_eigs, modes=len(coeffs) - 1,
    )


def check_periodic_wave(
    u0: TorusField,
    q: float,
    b: float,
    times: Sequence[float] = (0.5, 2.0),
    tolerance: float = PERIODIC_WAVE_TOL,
) -> CheckReport:
    """The explicit formula against Benjamin's periodic travelling wave
    (J. Fluid Mech. 29, 1967), with no stepper.

    The wave of the ``wave:q=...,b=...`` preset has Hardy coefficients
    (b, q, q^2, ...) and moves at speed c = 2b - 1 + 2q^2/(1 - q^2), so
    uhat(t, k) = q^k e^{-ikct}.  The formula's coefficients 0..n/2 of u0 at
    its truncation n are compared with that closed form at each time; the
    residual is the largest relative l2 error.  A datum whose amplitude or
    mean is not the wave's of (q, b) misses it.
    """
    n = u0.max_mode
    c = 2.0 * b - 1.0 + 2.0 * q * q / (1.0 - q * q)
    k = np.arange(n // 2 + 1)
    errors = []
    for t in times:
        exact = np.where(k == 0, b, q ** k * np.exp(-1j * k * c * t))
        got = evolve_coefficients(propagator(u0, t, n))
        errors.append(np.linalg.norm(got - exact) / np.linalg.norm(exact))
    return CheckReport.from_residual("periodic_wave", np.max(errors), tolerance,
                                     n=n, q=q, b=b, c=c, times=list(map(float, times)))


# ---------------------------------------------------------------------------
# line grid identities
# ---------------------------------------------------------------------------

def _line_test_vectors(grid: LineGrid) -> list[tuple[str, np.ndarray]]:
    """Raw-frame spectra: an interior bump and a boundary-touching decay."""
    xi = grid.xi
    bump = np.exp(-(xi - 10.0) ** 2).astype(np.complex128)
    decay = np.exp(-xi).astype(np.complex128)
    return [("bump", bump), ("decay", decay)]


def check_line_identities(
    u0: LineField,
    grid: LineGrid | None = None,
    t: float = 0.7,
) -> list[CheckReport]:
    """Four grid-limit identities of the line operators.

    - commutator of the generator with multiplication by xi equals i*Id,
    - commutator of the generator with a Toeplitz operator equals the
      rank-one boundary term (i/2pi) fhat(0+) * Pb,
    - the flow-generator bracket identity, with its u-independent part
      subtracted so the zero field gives an exactly zero residual,
    - dissipativity of -i(G - 2t L_0): the quadratic form converges to
      -|fhat(0+)|^2 / 4pi from below.

    Residuals are max norms over interior nodes for smooth test spectra
    supported inside (0, Xi); tolerances are C * h^2 with per-check C.
    G_w and T_w act through :func:`generator_apply` and
    :func:`toeplitz_apply`, the same products as the dense weighted
    matrices up to rounding, in O(M) memory.  The datum is sampled once on
    the grid; the kernel of T_{|D|u} is those samples times xi.
    """
    grid = grid or LineGrid()
    h = grid.step
    n = grid.count
    xi = grid.xi
    sw = grid.sqrt_weights
    interior = slice(2, n - 2)

    gw = generator_apply(grid)
    samples = u0.hardy(grid)
    hardy = samples.values
    tw = toeplitz_apply(samples)
    t_disp = toeplitz_apply(grid.spectrum(xi * hardy))

    vectors = _line_test_vectors(grid)
    for name, raw in vectors:
        tail = np.max(np.abs(raw[-3:])) / np.max(np.abs(raw))
        if tail > 1e-8:
            raise ConfigurationError(f"test vector {name} has tail {tail:.1e} at the cutoff")

    def flow_residual(g: np.ndarray, conv: Callable, conv_disp: Callable) -> np.ndarray:
        """([G, B_u] + 2 L_u - i [L_u^2, G]) g through the convolutions
        ``conv`` (T_u) and ``conv_disp`` (T_{|D|u}), given as products.

        The u = 0 baseline runs through the same expressions with zero
        convolutions, so subtracting it is exact for the zero field.
        """
        lax_apply = lambda v: xi * v - conv(v)
        b_apply = lambda v: 1j * (conv_disp(v) - conv(conv(v)))
        l2_of = lambda v: lax_apply(lax_apply(v))
        comm_gb = gw(b_apply(g)) - b_apply(gw(g))
        comm_l2g = l2_of(gw(g)) - gw(l2_of(g))
        return comm_gb + 2.0 * lax_apply(g) - 1j * comm_l2g

    res_gd = 0.0
    res_32 = 0.0
    res_31 = 0.0
    res_diss = 0.0
    quad_max = -np.inf
    for name, raw in vectors:
        g = sw * raw
        # [G, D] = i Id
        r = gw(xi * g) - xi * gw(g) - 1j * g
        res_gd = max(res_gd, float(np.max(np.abs(r[interior]))))
        # [G, T_b] f = (i/2pi) I+(f) Pb
        f0 = iplus(grid.spectrum(raw))
        rhs = (1j / TWO_PI) * f0 * (sw * hardy)
        r = gw(tw(g)) - tw(gw(g)) - rhs
        res_32 = max(res_32, float(np.max(np.abs(r[interior]))))
        # flow bracket, u-dependent part
        r = flow_residual(g, tw, t_disp) - flow_residual(g, np.zeros_like, np.zeros_like)
        res_31 = max(res_31, float(np.max(np.abs(r[interior]))))
        # dissipativity: Re<A_t f | f> -> -|fhat(0+)|^2 / 4pi
        a_g = -1j * (gw(g) - 2.0 * t * (xi * g))
        quad = (h / TWO_PI) * float(np.real(np.vdot(g, a_g)))
        norm_sq = (h / TWO_PI) * float(np.real(np.vdot(g, g)))
        target = -abs(f0) ** 2 / (2.0 * TWO_PI)
        res_diss = max(res_diss, abs(quad - target) / norm_sq)
        quad_max = max(quad_max, quad / norm_sq)

    params = {"h": h, "cutoff": grid.cutoff, "t": t, "vectors": [v[0] for v in vectors]}
    return [
        CheckReport.from_residual("line_gd", res_gd, LINE_C["line_gd"] * h ** 2,
                                  C=LINE_C["line_gd"], **params),
        CheckReport.from_residual("line_toeplitz_bracket", res_32, LINE_C["line_toeplitz_bracket"] * h ** 2,
                                  C=LINE_C["line_toeplitz_bracket"], **params),
        CheckReport.from_residual("line_flow_bracket", res_31, LINE_C["line_flow_bracket"] * h ** 2,
                                  C=LINE_C["line_flow_bracket"], baseline="zero-field subtracted", **params),
        # the deviation bound implies the sign bound: the continuum target is
        # <= 0, so Re<A f|f> <= residual * |f|^2; quad_max is recorded anyway
        CheckReport.from_residual(
            "line_dissipativity", res_diss, LINE_C["line_dissipativity"] * h ** 2,
            C=LINE_C["line_dissipativity"], sign_margin=quad_max, **params,
        ),
    ]


# ---------------------------------------------------------------------------
# cross-oracle and studies
# ---------------------------------------------------------------------------

def formula_vs_solver(fields: Sequence[TorusField], times: Sequence[float], dt: float,
                      n_samples: int = 512) -> list[list[float]]:
    """Relative L^2 distance between the propagator reconstruction and the
    time stepper, for each field at its own truncation, at each of
    ``times``; one list per field, from one stacked march."""
    return _formula_vs_solver(fields, times, dt, n_samples).run()


def _formula_vs_solver(fields: Sequence[TorusField], times: Sequence[float], dt: float,
                       n_samples: int = 512) -> _Request:
    """:func:`formula_vs_solver` as a request: one run per field."""

    def distance(u0: TorusField, t: float, u_ref: TorusField) -> float:
        ref = synthesize_torus(u_ref.hardy, u_ref.mean, n_samples)
        mine = reconstruct_torus(propagator(u0, t, u0.max_mode), n_samples=n_samples)
        scale = float(np.linalg.norm(ref))
        return float(np.linalg.norm(mine - ref)) / max(scale, np.finfo(float).tiny)

    def report(marched: list[dict[float, TorusField]]) -> list[list[float]]:
        return [[distance(u0, t, at[float(t)]) for t in times] for u0, at in zip(fields, marched)]

    return _Request([Run(u, times, dt) for u in fields], report)


@dataclass(frozen=True)
class StudyRow:
    level: float
    residual: float
    observed_order: float | None


def convergence_study(
    residual_fn: Callable[[float], float],
    levels: Sequence[float],
) -> list[StudyRow]:
    """Residuals over a refinement ladder with observed orders log2(r_i/r_{i+1}).

    Levels must halve (dt or h) from one entry to the next for the order
    column to mean anything.
    """
    rows: list[StudyRow] = []
    prev = None
    for lv in levels:
        r = float(residual_fn(lv))
        order = None if prev is None or r == 0.0 else float(np.log2(prev / r))
        rows.append(StudyRow(level=float(lv), residual=r, observed_order=order))
        prev = r
    return rows


def _stepper_temporal_study(u0: TorusField, t: float, n: int,
                            levels: Sequence[float]) -> _Request:
    """The stepper's temporal ladder as a request: one run per dt of
    ``levels``, and the study of their distances on Hardy modes 0..n/2 from
    the explicit formula's u(t), the one reference shared by every level.

    The formula carries no time-step error, so the residual falls at the
    stepper's order until it meets the formula's own error; a formula that
    drifts from the stepper flattens the ladder and fails the order check.
    """
    ref = evolve_coefficients(propagator(u0, t, n))

    def report(marched: list[dict[float, TorusField]]) -> list[StudyRow]:
        residual = {dt: float(np.linalg.norm(at[float(t)].hardy[:ref.size] - ref))
                    for dt, at in zip(levels, marched)}
        return convergence_study(residual.__getitem__, levels)

    return _Request([Run(u0.truncated(n), [t], dt) for dt in levels], report)


LINE_CHECK_NAMES = tuple(LINE_C)


def _order_report(name: str, rows: list[StudyRow], expected: float, window: float) -> CheckReport:
    orders = [r.observed_order for r in rows if r.observed_order is not None]
    deviation = max(abs(o - expected) for o in orders) if orders else np.inf
    return CheckReport.from_residual(
        name,
        deviation,
        window,
        expected_order=expected,
        levels=[r.level for r in rows],
        residuals=[r.residual for r in rows],
        orders=orders,
    )


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------

def _random_band_field(max_mode: int, band: int, seed: int, amplitude: float = 0.3) -> TorusField:
    rng = np.random.default_rng(seed)
    modes = {
        k: amplitude * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
        for k in range(1, band + 1)
    }
    return TorusField.from_modes(max_mode, modes)


SUITE_NAMES = (
    *(f"{name}[{label}]" for label in ("zero", "cos", "random")
      for name in ("torus_leibniz", "torus_toeplitz_shift", "torus_lax_bracket")),
    "lax_evolution",
    "lax_evolution_order",
    "isospectrality",
    "conservation_mean",
    "conservation_l2",
    "conservation_energy",
    *LINE_CHECK_NAMES,
    *(f"{name}_order" for name in LINE_CHECK_NAMES),
    "stepper_temporal_order",
    "formula_isospectrality",
    "periodic_wave",
    "formula_vs_solver",
)
"""The report names of :func:`default_suite`, in order, known before it runs."""


def default_suite(torus_n: int = 64) -> list[CheckReport]:
    """The deterministic validation battery behind ``boeq validate``.

    ``torus_n`` overrides the truncation of the finite-section checks; too
    small a value trips their margin precondition (a configuration error).
    The five stepper runs (the Lax ladder's, the invariants', the two of the
    temporal ladder and the cross-oracle's) are one lockstep march.
    """
    reports: list[CheckReport] = []

    # finite-section identities
    reports += check_torus_commutators(TorusField.zero(32), 32, label="zero")
    reports += check_torus_commutators(torus_preset("cos", 4, a=2.0), torus_n, label="cos")
    reports += check_torus_commutators(_random_band_field(8, 4, seed=7), torus_n, label="random")

    cos1 = torus_preset("cos", 2)
    # the explicit formula's u(t) keeps the spectrum of L_{u0}; formed next
    # to the temporal ladder's reference, which reuses its eigensystem
    coeffs = evolve_coefficients(propagator(cos1, 1.0, 64))
    lax_levels = [1e-3, 5e-4, 2.5e-4]
    rk_levels = [4e-3, 2e-3]
    lax_ladder, invariants, rk_rows, [[cross]] = _answer([
        _lax_ladder(cos1, t=0.2, levels=lax_levels, n=128),
        _invariants(cos1, times=[0.5, 1.0], n=256, n_eigs=10, dt=1e-3),
        _stepper_temporal_study(cos1, 0.5, 64, rk_levels),
        _formula_vs_solver([cos1.truncated(64)], [0.3], 5e-4),
    ])

    # Lax dynamics
    lax = dict(zip(lax_levels, lax_ladder))
    reports.append(lax[1e-3])  # also the first level of the order ladder
    lax_rows = convergence_study(lambda dt: lax[dt].residual, lax_levels)
    reports.append(_order_report("lax_evolution_order", lax_rows, expected=2.0, window=0.3))
    # isospectrality and conservation, read from one run
    reports += invariants

    # line identities at the default grid, plus their h-orders
    lorentz = line_preset("lorentzian", c=1.0).field
    levels = [0.08, 0.04, 0.02]
    per_level = {h: check_line_identities(lorentz, LineGrid(40.0, h), t=0.7) for h in levels}
    reports += per_level[0.02]
    for idx, name in enumerate(LINE_CHECK_NAMES):
        rows = convergence_study(lambda h: per_level[h][idx].residual, levels)
        reports.append(_order_report(f"{name}_order", rows, expected=2.0, window=0.3))

    # stepper temporal order against the explicit formula (RK4: expect ~4)
    reports.append(_order_report("stepper_temporal_order", rk_rows, expected=4.0, window=0.3))

    reports.append(check_formula_isospectrality(cos1, coeffs, n=64))
    # the formula moves Benjamin's periodic wave as its closed form does
    reports.append(check_periodic_wave(torus_preset("wave", 64, q=0.5, b=0.2), q=0.5, b=0.2))

    # cross-oracle
    reports.append(CheckReport.from_residual(
        "formula_vs_solver", cross, 1e-6, n=64, dt=5e-4, t=0.3))

    return reports
