import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

import boeq.line_solution as ls
from boeq.errors import DomainError
from boeq.line_operators import LineGrid, ResolventEvaluator
from boeq.line_solution import evaluate_uhp, reconstruct_line, uhp_grid_scan
from boeq.presets import line_preset

TWO_PI = 2.0 * np.pi


def cauchy_integral(spectrum_fn, z, upper=60.0):
    """Oracle: Pu0(z) = (1/2pi) int_0^inf e^{iz xi} uhat(xi) d xi."""
    val = quad(
        lambda s: np.exp(1j * z * s) * complex(spectrum_fn(np.array([s]))[0]),
        0.0, upper, complex_func=True, limit=400,
    )[0]
    return val / TWO_PI


class TestEvaluateUHP:
    def test_zero_datum(self):
        zero = line_preset("zero").field
        assert evaluate_uhp(zero, 0.4, 0.3 + 0.8j, LineGrid(20.0, 0.05), refinements=0) == 0.0

    def test_lorentzian_point_value(self):
        # Pu0(z) = i/(z+i) for u0 = 2/(1+x^2); at z = i the value is 1/2
        field = line_preset("lorentzian", c=1.0).field
        val = evaluate_uhp(field, 0.0, 1j)
        assert abs(val - 0.5) < 1e-6

    @pytest.mark.parametrize("z", [1j, 0.7 + 0.5j, -1.3 + 2.0j])
    def test_t0_matches_cauchy_quadrature_lorentzian(self, z):
        preset = line_preset("lorentzian", c=1.0)
        oracle = cauchy_integral(preset.field.spectrum_fn, z)
        val = evaluate_uhp(preset.field, 0.0, z)
        assert abs(val - oracle) < 1e-6

    @pytest.mark.parametrize("z", [1j, 0.4 + 1.1j])
    def test_t0_matches_cauchy_quadrature_gaussian(self, z):
        preset = line_preset("gaussian", a=1.0, w=1.0)
        oracle = cauchy_integral(preset.field.spectrum_fn, z)
        val = evaluate_uhp(preset.field, 0.0, z)
        assert abs(val - oracle) < 1e-6

    def test_gaussian_against_faddeeva_closed_form(self):
        # Pu0(z) = (a/2) w(z/w_width) with w the Faddeeva function
        preset = line_preset("gaussian", a=0.8, w=1.3)
        z = 0.5 + 0.9j
        val = evaluate_uhp(preset.field, 0.0, z)
        assert abs(val - 0.4 * wofz(z / 1.3)) < 1e-6

    def test_lower_half_plane_rejected(self):
        field = line_preset("lorentzian").field
        with pytest.raises(DomainError):
            evaluate_uhp(field, 0.0, 0.5 - 0.1j)
        with pytest.raises(DomainError):
            evaluate_uhp(field, 0.0, 0.5)

    def test_refinement_ladder_tightens(self):
        field = line_preset("lorentzian", c=1.0).field
        errs = [
            abs(evaluate_uhp(field, 0.0, 1j, refinements=r) - 0.5)
            for r in (0, 1, 2)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-7


class TestReconstructLine:
    def test_zero(self):
        zero = line_preset("zero").field
        x = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(
            reconstruct_line(ResolventEvaluator(zero, 0.2, LineGrid(20.0, 0.05)), x),
            np.zeros(11)
        )

    def test_t0_matches_datum(self):
        preset = line_preset("lorentzian", c=1.0)
        x = np.linspace(-6, 6, 49)
        u = reconstruct_line(ResolventEvaluator(preset.field, 0.0), x, eps=1e-3)
        assert np.max(np.abs(u - preset.u_of_x(x))) < 5e-3

    def test_eps_refine_reduces_bias(self):
        preset = line_preset("lorentzian", c=1.0)
        x = np.linspace(-4, 4, 17)
        exact = preset.u_of_x(x)
        ev = ResolventEvaluator(preset.field, 0.0)
        raw = reconstruct_line(ev, x, eps=4e-3)
        refined = reconstruct_line(ev, x, eps=4e-3, eps_refine=True)
        assert np.max(np.abs(refined - exact)) < 0.5 * np.max(np.abs(raw - exact))

    def test_soliton_translates_right(self):
        # coarse, fast version of the rigid-translation regression
        preset = line_preset("lorentzian", c=1.0)
        t = 0.25
        x = np.linspace(-5, 5, 41)
        u = reconstruct_line(ResolventEvaluator(preset.field, t, LineGrid(40.0, 0.08)), x,
                             eps=1e-3, eps_refine=True)
        assert np.max(np.abs(u - preset.u_of_x(x - t))) < 8e-3
        assert np.max(np.abs(u - preset.u_of_x(x + t))) > 0.1

    def test_gaussian_dynamics_beyond_rigid_translation(self):
        # a gaussian is not a solitary wave: by t = 0.3 the profile has
        # deformed ~40% from any rigid shift, and the resolvent formula
        # still tracks the box-periodized stepper
        from box_oracle import evolve_line_on_box

        preset = line_preset("gaussian", a=1.0, w=1.0)
        t = 0.3
        box = evolve_line_on_box(preset.u_of_x, t, half_width=60.0, n_modes=384)
        window = np.abs(box.x) <= 10.0
        x_cmp, u_box = box.x[window], box.u[window]
        u_line = reconstruct_line(ResolventEvaluator(preset.field, t, LineGrid(40.0, 0.04)),
                                  x_cmp, eps=1e-3, eps_refine=True)
        rel = np.linalg.norm(u_line - u_box) / np.linalg.norm(u_box)
        assert rel < 2e-3
        shift_rel = np.linalg.norm(u_box - preset.u_of_x(x_cmp - t)) / np.linalg.norm(u_box)
        assert shift_rel > 0.2  # the comparison is not a translation test


class TestHolomorphy:
    def test_cauchy_riemann_residual_second_order(self):
        field = line_preset("lorentzian", c=1.0).field
        z0 = 0.4 + 1.1j
        grid = LineGrid(40.0, 0.02)

        def cr_residual(delta):
            pts = {
                "c": z0, "e": z0 + delta, "w": z0 - delta,
                "n": z0 + 1j * delta, "s": z0 - 1j * delta,
            }
            vals = {k: evaluate_uhp(field, 0.0, z, grid, refinements=0)
                    for k, z in pts.items()}
            dx = (vals["e"] - vals["w"]) / (2 * delta)
            dy = (vals["n"] - vals["s"]) / (2 * delta)
            return abs(0.5 * (dx + 1j * dy))

        r1, r2 = cr_residual(0.1), cr_residual(0.05)
        assert r1 / r2 == pytest.approx(4.0, rel=0.5)
        assert r2 < 1e-3

    def test_height_consistency_with_poisson_smoothing(self):
        # harmonic extension: values at eps1+eps2 equal the Poisson smoothing
        # of the slice at height eps1
        field = line_preset("lorentzian", c=1.0).field
        eps1, eps2 = 0.3, 0.4
        xs = np.linspace(-30, 30, 1201)
        slice1 = np.array([
            evaluate_uhp(field, 0.0, x + 1j * eps1, refinements=0) for x in xs
        ])
        dx = xs[1] - xs[0]
        x_eval = np.linspace(-2, 2, 9)
        upper = np.array([
            evaluate_uhp(field, 0.0, x + 1j * (eps1 + eps2), refinements=0)
            for x in x_eval
        ])
        for xe, ue in zip(x_eval, upper):
            kernel = (eps2 / np.pi) / ((xe - xs) ** 2 + eps2 ** 2)
            smoothed = np.sum(kernel * slice1) * dx
            assert abs(smoothed - ue) < 1e-4

    def test_large_height_decay_bounded(self):
        # Y * |Pu(t, iY)| stays bounded as Y grows (resolvent decay)
        field = line_preset("lorentzian", c=1.0).field
        grid = LineGrid(40.0, 0.04)
        vals = [
            y * abs(evaluate_uhp(field, 0.3, 1j * y, grid, refinements=0))
            for y in (10.0, 30.0, 100.0)
        ]
        assert max(vals) < 5.0


class TestDetailedEvaluation:
    def test_diagnostics_carry_ladder(self, monkeypatch):
        # refinements=1 builds one evaluator on h and one on h/2 and returns
        # their Richardson value
        grids = []

        class Recording(ResolventEvaluator):
            def __init__(self, u0, t, grid, **kwargs):
                grids.append(grid)
                super().__init__(u0, t, grid, **kwargs)

        monkeypatch.setattr(ls, "ResolventEvaluator", Recording)
        field = line_preset("lorentzian", c=1.0).field
        value = evaluate_uhp(field, 0.0, 1j, refinements=1)
        assert grids == [LineGrid(), LineGrid(LineGrid().cutoff, LineGrid().step / 2)]
        assert abs(value - 0.5) < 1e-5

    def test_invariant_rejects_lower_half_plane(self, monkeypatch):
        # at t != 0 the lower half-plane is refused before any operator product
        def no_product(*args, **kwargs):
            raise AssertionError("operator applied for a lower-half-plane z")

        monkeypatch.setattr(ResolventEvaluator, "_apply", no_product)
        with pytest.raises(DomainError):
            evaluate_uhp(line_preset("lorentzian").field, 0.3, 1.0 - 0.2j)


class TestSampledIngestion:
    def test_gaussian_samples_reproduce_spectrum(self):
        from boeq.line_operators import LineField
        from scipy.special import wofz

        x = np.linspace(-20.0, 20.0, 2048)
        field = LineField.from_samples(x, np.exp(-x ** 2))
        grid = LineGrid(40.0, 0.04)
        exact = np.sqrt(np.pi) * np.exp(-grid.xi ** 2 / 4.0)
        got = field.hardy(grid).values
        assert np.max(np.abs(got - exact)) < 1e-8
        val = evaluate_uhp(field, 0.0, 1j, grid, refinements=1)
        assert abs(val - 0.5 * wofz(1j)) < 1e-5

    def test_fat_tailed_samples_need_looser_tail_tolerance(self):
        # sampled lorentzian data carries a 1/x spatial tail: the spectrum
        # floor sits near 1e-6, so the default tolerance refuses it and an
        # explicit tail_tol accepts it
        from boeq.errors import ConfigurationError
        from boeq.line_operators import LineField

        x = np.linspace(-80.0, 80.0, 4096)
        field = LineField.from_samples(x, 2.0 / (1.0 + x ** 2))
        grid = LineGrid(40.0, 0.04)
        with pytest.raises(ConfigurationError):
            evaluate_uhp(field, 0.0, 1j, grid, refinements=0)
        val = evaluate_uhp(field, 0.0, 1j, grid, refinements=1, tail_tol=1e-4)
        assert abs(val - 0.5) < 5e-3


class TestScan:
    def test_single_node_reduces_to_evaluate(self):
        field = line_preset("lorentzian", c=1.0).field
        grid = LineGrid(40.0, 0.05)
        rows = uhp_grid_scan(ResolventEvaluator(field, 0.0, grid), [0.3], [0.9])
        direct = evaluate_uhp(field, 0.0, 0.3 + 0.9j, grid, refinements=0)
        assert rows[0].value == pytest.approx(direct)

    def test_zero_datum_scan(self):
        zero = line_preset("zero").field
        rows = uhp_grid_scan(ResolventEvaluator(zero, 0.1, LineGrid(20.0, 0.05)),
                             np.linspace(-1, 1, 3), [0.5, 1.0])
        assert len(rows) == 6
        assert all(r.value == 0 for r in rows)

    def test_failures_recorded_per_row(self):
        field = line_preset("lorentzian", c=1.0).field
        rows = uhp_grid_scan(ResolventEvaluator(field, 0.0, LineGrid(40.0, 0.05)),
                             [0.0], [-0.5, 0.5])
        assert rows[0].value is None and "Im z" in rows[0].error
        assert rows[1].value is not None and rows[1].error is None


class TestSharedEvaluator:
    # M = 401; the Lorentzian tail e^{-16} passes tail_tol 1e-6
    GRID = LineGrid(16.0, 0.04)
    TAIL_TOL = 1e-6

    @pytest.mark.parametrize("times, evaluators", [("0.5", 1), ("0.5,0.3", 2)])
    def test_solve_line_with_scan_reduces_once_per_time(self, times, evaluators, tmp_path,
                                                        monkeypatch):
        # the operator's set-up (band, gauge phase, Toeplitz kernel FFT) is
        # done once per time by one evaluator, not once per scan point
        from boeq.cli import main

        seen = []

        class Counting(ResolventEvaluator):
            def __init__(self, u0, t, grid, **kwargs):
                seen.append((t, grid.count))
                super().__init__(u0, t, grid, **kwargs)

        monkeypatch.setattr(ls, "ResolventEvaluator", Counting)
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", times,
                     "--cutoff", "16", "--h", "0.04", "--tail-tol", "1e-6", "--nx", "5",
                     "--eps-refine", "--scan=-1,1,3,0.5,1.0,2", "--out", str(tmp_path / "r")])
        assert code == 0
        assert (tmp_path / "r" / "uhp_scan.csv").is_file()
        assert len(seen) == evaluators
        assert seen == [(float(t), 401) for t in times.split(",")]

    def test_solve_line_holds_one_evaluator_at_a_time(self, tmp_path, monkeypatch):
        # each time's operator is released before the next one is built
        from boeq.cli import main

        alive = weakref.WeakSet()
        held = []  # evaluators alive when each one was built

        class Watched(ResolventEvaluator):
            def __init__(self, *args, **kwargs):
                held.append(len(alive))
                super().__init__(*args, **kwargs)
                alive.add(self)

        monkeypatch.setattr(ls, "ResolventEvaluator", Watched)
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5,0.3,0",
                     "--cutoff", "16", "--h", "0.08", "--tail-tol", "1e-6", "--nx", "5",
                     "--scan=-1,1,3,0.5,1.0,2", "--out", str(tmp_path / "r")])
        assert code == 0
        assert held == [0, 0, 0]

    @pytest.mark.parametrize("eps_refine", [False, True])
    def test_reconstruct_equals_per_point_values(self, eps_refine):
        u0 = line_preset("lorentzian", c=1.0).field
        x = np.linspace(-2.0, 2.0, 7)
        eps = 1e-3
        ev = ResolventEvaluator(u0, 0.5, self.GRID, tail_tol=self.TAIL_TOL)
        got = reconstruct_line(ev, x, eps=eps, eps_refine=eps_refine)
        v1 = np.array([ev.value(xj + 1j * eps) for xj in x])
        if eps_refine:
            v2 = np.array([ev.value(xj + 2j * eps) for xj in x])
            want = 2.0 * np.real(2.0 * v1 - v2)
        else:
            want = 2.0 * np.real(v1)
        np.testing.assert_array_equal(got, want)

    def test_threads_sharing_one_evaluator_match_serial(self):
        ev = ResolventEvaluator(line_preset("lorentzian", c=1.0).field, 0.5, self.GRID,
                                tail_tol=self.TAIL_TOL)
        zs = [complex(x, 0.3) for x in np.linspace(-2.0, 2.0, 32)]
        serial = [ev.value(z) for z in zs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(ev.value, z) for z in zs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
