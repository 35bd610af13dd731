"""Executable operator-identity checks and convergence studies.

Torus identities are *finite-section exact*: for symbols band-limited to
|k| <= m, both sides of each identity agree to machine precision on columns
at distance >= 2m from the truncation edge, so tolerances sit at 1e-12.
Line identities hold only in the h -> 0 limit of the grid; their residuals
are asserted against calibrated C*h^2 envelopes and their convergence
order is measured by refinement ladders.

Reports are plain records (name, residual, tolerance, passed, parameters)
that serialize to JSON; the default suite is deterministic, fixed seeds
included, so repeated runs produce byte-identical reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .line_operators import (
    LineField,
    LineGrid,
    abs_frequency_field,
    g_matrix,
    iplus,
    to_weighted,
    toeplitz_line,
)
from .presets import line_preset, torus_preset
from .spectral import TWO_PI, TorusField, project_hardy, synthesize_torus
from .timestepper import conserved_quantities, evolve
from .torus_operators import b_matrix, lax_matrix, shift_adjoint, toeplitz_matrix
from .torus_solution import evolve_coefficients, propagator, reconstruct_torus

__all__ = [
    "CheckReport",
    "check_torus_commutators",
    "check_lax_evolution",
    "check_isospectrality",
    "check_formula_isospectrality",
    "check_line_identities",
    "march_times",
    "formula_vs_solver",
    "formula_vs_solver_times",
    "convergence_study",
    "run_study",
    "StudyRow",
    "STUDY_CHECKS",
    "default_suite",
]

FINITE_SECTION_TOL = 1e-12
LAX_EVOLUTION_TOL = 1e-4
ISOSPECTRAL_TOL = 1e-6
FORMULA_ISOSPECTRAL_TOL = 1e-10

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
    hardy = np.array([u.coeff(k) for k in range(n + 1)], dtype=np.complex128)
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


def check_lax_evolution(
    u0: TorusField,
    t: float,
    dt: float,
    n: int,
    tolerance: float = LAX_EVOLUTION_TOL,
) -> CheckReport:
    """Central difference of t -> L_{u(t)} against [B_{u(t)}, L_{u(t)}].

    The solver marches with the same dt used for the difference, so the
    residual is dominated by the O(dt^2) differencing error on margin
    columns of the effective band.
    """
    steps_mid = int(round(t / dt))
    if steps_mid < 1:
        raise ConfigurationError("t must be at least one time step")
    t_mid = steps_mid * dt
    traj = evolve(u0, t_mid + dt, dt, n, snapshot_every=1)
    u_minus = traj.fields[steps_mid - 1]
    u_mid = traj.fields[steps_mid]
    u_plus = traj.fields[steps_mid + 1]

    m = max(u_mid.effective_band(rel_tol=1e-9), 1)
    if n <= 6 * m:
        raise ConfigurationError(
            f"effective band {m} at t = {t_mid:g} leaves no margin columns at n = {n}; "
            f"need n > {6 * m}"
        )
    cols = slice(3 * m, n - 3 * m + 1)

    fd = (lax_matrix(u_plus, n).entries - lax_matrix(u_minus, n).entries) / (2.0 * dt)
    lm = lax_matrix(u_mid, n).entries
    bm = b_matrix(u_mid, n).entries
    comm = bm @ lm - lm @ bm
    residual = float(np.max(np.abs((fd - comm)[:, cols])))
    return CheckReport.from_residual(
        "lax_evolution",
        residual,
        tolerance,
        n=n, dt=dt, t=t_mid, band=m,
    )


def check_isospectrality(
    u0: TorusField,
    times: Sequence[float],
    n: int,
    n_eigs: int = 10,
    dt: float = 1e-3,
    tolerance: float = ISOSPECTRAL_TOL,
) -> CheckReport:
    """Drift of the lowest eigenvalues of L_{u(t)} along the solver flow."""
    base = np.sort(np.linalg.eigvalsh(lax_matrix(u0, n).entries))[:n_eigs]
    drift = 0.0
    for current in march_times(u0, times, dt, n).values():
        eigs = np.sort(np.linalg.eigvalsh(lax_matrix(current, n).entries))[:n_eigs]
        drift = max(drift, float(np.max(np.abs(eigs - base))))
    return CheckReport.from_residual(
        "isospectrality",
        drift,
        tolerance,
        n=n, dt=dt, n_eigs=n_eigs, times=list(map(float, times)),
    )


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
    :func:`evolve_coefficients`; the mean is their real k = 0 entry.  The
    flow is isospectral, so the two spectra agree to rounding, and a wrong
    coefficient, the mean included, moves them apart.
    """
    modes = dict(enumerate(coeffs))
    modes[0] = complex(coeffs[0]).real
    u_t = TorusField.from_modes(len(coeffs) - 1, modes)
    base = np.linalg.eigvalsh(lax_matrix(u0, n).entries)[:n_eigs]
    eigs = np.linalg.eigvalsh(lax_matrix(u_t, n).entries)[:n_eigs]
    return CheckReport.from_residual(
        "formula_isospectrality",
        float(np.max(np.abs(eigs - base))),
        tolerance,
        n=n, n_eigs=n_eigs, modes=len(coeffs) - 1,
    )


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
    constants: dict[str, float] | None = None,
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
    """
    grid = grid or LineGrid()
    cs = dict(LINE_C)
    if constants:
        cs.update(constants)
    h = grid.step
    n = grid.count
    xi = grid.xi
    sw = grid.sqrt_weights
    interior = slice(2, n - 2)

    gw = to_weighted(g_matrix(grid), grid)
    tw = toeplitz_line(u0, grid)
    t_disp = toeplitz_line(abs_frequency_field(u0), grid)
    hardy = u0.hardy(grid).values

    vectors = _line_test_vectors(grid)
    for name, raw in vectors:
        tail = np.max(np.abs(raw[-3:])) / np.max(np.abs(raw))
        if tail > 1e-8:
            raise ConfigurationError(f"test vector {name} has tail {tail:.1e} at the cutoff")

    zero_conv = np.zeros_like(tw)

    def flow_residual(g: np.ndarray, conv: np.ndarray, conv_disp: np.ndarray) -> np.ndarray:
        """([G, B_u] + 2 L_u - i [L_u^2, G]) g through matvecs.

        The u = 0 baseline runs through the same expressions with zero
        convolution matrices, so subtracting it is exact for the zero field.
        """
        lax_apply = lambda v: xi * v - conv @ v
        b_apply = lambda v: 1j * (conv_disp @ v - conv @ (conv @ v))
        l2_of = lambda v: lax_apply(lax_apply(v))
        comm_gb = gw @ b_apply(g) - b_apply(gw @ g)
        comm_l2g = l2_of(gw @ g) - gw @ l2_of(g)
        return comm_gb + 2.0 * lax_apply(g) - 1j * comm_l2g

    res_gd = 0.0
    res_32 = 0.0
    res_31 = 0.0
    res_diss = 0.0
    quad_max = -np.inf
    for name, raw in vectors:
        g = sw * raw
        # [G, D] = i Id
        r = gw @ (xi * g) - xi * (gw @ g) - 1j * g
        res_gd = max(res_gd, float(np.max(np.abs(r[interior]))))
        # [G, T_b] f = (i/2pi) I+(f) Pb
        f0 = iplus(grid.spectrum(raw))
        rhs = (1j / TWO_PI) * f0 * (sw * hardy)
        r = gw @ (tw @ g) - tw @ (gw @ g) - rhs
        res_32 = max(res_32, float(np.max(np.abs(r[interior]))))
        # flow bracket, u-dependent part
        r = flow_residual(g, tw, t_disp) - flow_residual(g, zero_conv, zero_conv)
        res_31 = max(res_31, float(np.max(np.abs(r[interior]))))
        # dissipativity: Re<A_t f | f> -> -|fhat(0+)|^2 / 4pi
        a_g = -1j * (gw @ g - 2.0 * t * (xi * g))
        quad = (h / TWO_PI) * float(np.real(np.vdot(g, a_g)))
        norm_sq = (h / TWO_PI) * float(np.real(np.vdot(g, g)))
        target = -abs(f0) ** 2 / (2.0 * TWO_PI)
        res_diss = max(res_diss, abs(quad - target) / norm_sq)
        quad_max = max(quad_max, quad / norm_sq)

    params = {"h": h, "cutoff": grid.cutoff, "t": t, "vectors": [v[0] for v in vectors]}
    return [
        CheckReport.from_residual("line_gd", res_gd, cs["line_gd"] * h ** 2,
                                  C=cs["line_gd"], **params),
        CheckReport.from_residual("line_toeplitz_bracket", res_32, cs["line_toeplitz_bracket"] * h ** 2,
                                  C=cs["line_toeplitz_bracket"], **params),
        CheckReport.from_residual("line_flow_bracket", res_31, cs["line_flow_bracket"] * h ** 2,
                                  C=cs["line_flow_bracket"], baseline="zero-field subtracted", **params),
        # the deviation bound implies the sign bound: the continuum target is
        # <= 0, so Re<A f|f> <= residual * |f|^2; quad_max is recorded anyway
        CheckReport.from_residual(
            "line_dissipativity", res_diss, cs["line_dissipativity"] * h ** 2,
            C=cs["line_dissipativity"], sign_margin=quad_max, **params,
        ),
    ]


# ---------------------------------------------------------------------------
# cross-oracle and studies
# ---------------------------------------------------------------------------

def march_times(u0: TorusField, times: Sequence[float], dt: float, n: int) -> dict[float, TorusField]:
    """Stepper solutions at every distinct time, keyed by time.

    Each side of t = 0 is marched once, outward in |t|: one ``evolve``
    segment per time, starting from the previous time's field.  A segment
    ends with an exact partial step, so every time is landed on exactly, and
    no stretch is stepped twice.  The stepper state between segments is the
    field itself, so times on the dt grid get the same bits as one ``evolve``
    from t = 0.
    """
    fields: dict[float, TorusField] = {}
    forward = sorted({float(t) for t in times if t >= 0})
    backward = sorted({float(t) for t in times if t < 0}, reverse=True)
    for side in (forward, backward):
        current, t_prev = u0, 0.0
        for t in side:
            current = evolve(current, t - t_prev, dt, n).final()
            fields[t], t_prev = current, t
    return fields


def formula_vs_solver_times(u0: TorusField, times: Sequence[float], n: int, dt: float,
                            n_samples: int = 512) -> list[float]:
    """Relative L^2 distance between the propagator reconstruction and the
    time stepper at each of ``times``, from one march (:func:`march_times`)."""
    fields = march_times(u0, times, dt, n)
    out = []
    for t in times:
        u_ref = fields[float(t)]
        ref = synthesize_torus(project_hardy(u_ref), float(u_ref.coeff(0).real), n_samples)
        mine = reconstruct_torus(propagator(u0, t, n), n_samples=n_samples)
        scale = float(np.linalg.norm(ref))
        out.append(float(np.linalg.norm(mine - ref)) / max(scale, np.finfo(float).tiny))
    return out


def formula_vs_solver(u0: TorusField, t: float, n: int, dt: float, n_samples: int = 512) -> float:
    """Relative L^2 distance between the propagator reconstruction and the
    time stepper at time t."""
    return formula_vs_solver_times(u0, [t], n, dt, n_samples)[0]


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


def _stepper_temporal_residual(u0: TorusField, t: float, n: int, dt: float,
                               dt_ref_factor: int = 8) -> float:
    """Coefficient-space distance of a dt run from a dt/factor reference."""
    ref = evolve(u0, t, dt / dt_ref_factor, n).final().coeffs
    run = evolve(u0, t, dt, n).final().coeffs
    return float(np.linalg.norm(run - ref))


LINE_CHECK_NAMES = (
    "line_gd", "line_toeplitz_bracket", "line_flow_bracket", "line_dissipativity",
)

STUDY_CHECKS = ("lax_evolution", "stepper_order", "formula_vs_solver") + LINE_CHECK_NAMES


def run_study(check: str, levels: Sequence[float], **fixed) -> list[StudyRow]:
    """Descriptor-style convergence study.

    ``check`` names the residual, ``levels`` the refinement ladder of its
    natural parameter (dt for the time checks, h for the line identities,
    n for the truncation sweep); remaining keywords pin the fixed ones.
    """
    if check == "lax_evolution":
        u0 = fixed.get("u0") or torus_preset("cos", 2)
        t, n = float(fixed.get("t", 0.2)), int(fixed.get("n", 128))
        fn = lambda dt: check_lax_evolution(u0, t=t, dt=dt, n=n, tolerance=np.inf).residual
    elif check == "stepper_order":
        u0 = fixed.get("u0") or torus_preset("cos", 2)
        t, n = float(fixed.get("t", 0.5)), int(fixed.get("n", 64))
        fn = lambda dt: _stepper_temporal_residual(u0, t, n, dt)
    elif check == "formula_vs_solver":
        u0 = fixed.get("u0") or torus_preset("cos", 2)
        t, dt = float(fixed.get("t", 0.3)), float(fixed.get("dt", 5e-4))
        fn = lambda n: formula_vs_solver(u0, t, int(n), dt)
    elif check in LINE_CHECK_NAMES:
        u0 = fixed.get("u0") or line_preset("lorentzian", c=1.0).field
        cutoff, t = float(fixed.get("cutoff", 40.0)), float(fixed.get("t", 0.7))

        def fn(h):
            reps = {r.name: r for r in check_line_identities(u0, LineGrid(cutoff, h), t=t)}
            return reps[check].residual
    else:
        raise ConfigurationError(
            f"unknown study check {check!r}; choose from {sorted(STUDY_CHECKS)}")
    return convergence_study(fn, levels)


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


def default_suite(torus_n: int = 64) -> list[CheckReport]:
    """The deterministic validation battery behind ``boeq validate``.

    ``torus_n`` overrides the truncation of the finite-section checks; too
    small a value trips their margin precondition (a configuration error).
    """
    reports: list[CheckReport] = []

    # finite-section identities
    reports += check_torus_commutators(TorusField.zero(32), 32, label="zero")
    reports += check_torus_commutators(torus_preset("cos", 4, a=2.0), torus_n, label="cos")
    reports += check_torus_commutators(_random_band_field(8, 4, seed=7), torus_n, label="random")

    # Lax dynamics
    cos1 = torus_preset("cos", 2)
    reports.append(check_lax_evolution(cos1, t=0.2, dt=1e-3, n=128))
    lax_rows = convergence_study(
        lambda dt: check_lax_evolution(cos1, t=0.2, dt=dt, n=128, tolerance=np.inf).residual,
        levels=[1e-3, 5e-4, 2.5e-4],
    )
    reports.append(_order_report("lax_evolution_order", lax_rows, expected=2.0, window=0.3))
    reports.append(check_isospectrality(cos1, times=[0.5, 1.0], n=256, n_eigs=10, dt=1e-3))

    # line identities at the default grid, plus their h-orders
    lorentz = line_preset("lorentzian", c=1.0).field
    levels = [0.08, 0.04, 0.02]
    per_level = {h: check_line_identities(lorentz, LineGrid(40.0, h), t=0.7) for h in levels}
    reports += per_level[0.02]
    for idx, name in enumerate(LINE_CHECK_NAMES):
        rows = convergence_study(lambda h: per_level[h][idx].residual, levels)
        reports.append(_order_report(f"{name}_order", rows, expected=2.0, window=0.3))

    # stepper temporal order (RK4: expect ~4)
    rk_rows = run_study("stepper_order", levels=[4e-3, 2e-3], t=0.5, n=64)
    reports.append(_order_report("stepper_temporal_order", rk_rows, expected=4.0, window=0.3))

    # conservation along the stepper
    traj = evolve(cos1, 1.0, 2e-4, 128)
    q0 = conserved_quantities(traj.fields[0])
    q1 = conserved_quantities(traj.final())
    reports.append(CheckReport.from_residual(
        "conservation_mean", abs(q1["mean"] - q0["mean"]), 1e-12, n=128, dt=2e-4, t=1.0))
    reports.append(CheckReport.from_residual(
        "conservation_l2", abs(q1["l2sq"] - q0["l2sq"]) / abs(q0["l2sq"]), 1e-9,
        n=128, dt=2e-4, t=1.0))
    reports.append(CheckReport.from_residual(
        "conservation_energy", abs(q1["energy"] - q0["energy"]) / abs(q0["energy"]), 1e-8,
        n=128, dt=2e-4, t=1.0))

    # the explicit formula's u(t) keeps the spectrum of L_{u0}
    coeffs = evolve_coefficients(propagator(cos1, 1.0, 64))
    reports.append(check_formula_isospectrality(cos1, coeffs, n=64))

    # cross-oracle
    reports.append(CheckReport.from_residual(
        "formula_vs_solver", formula_vs_solver(cos1, t=0.3, n=64, dt=5e-4), 1e-6,
        n=64, dt=5e-4, t=0.3))

    return reports
