import json

import numpy as np
import pytest

from boeq.cli import main
from boeq.errors import ConfigurationError, IngestionError
from boeq.fileio import (
    read_field_json,
    read_samples_csv,
    sha256_of,
    write_field_json,
    write_samples_csv,
)
from boeq.presets import parse_preset, torus_preset
from boeq.spectral import TorusField


class TestPresets:
    def test_parse_with_params(self):
        name, params = parse_preset("lorentzian:c=2.5")
        assert name == "lorentzian" and params == {"c": 2.5}

    def test_parse_plain(self):
        assert parse_preset("cos") == ("cos", {})

    def test_malformed_param_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_preset("gaussian:a")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            torus_preset("sawtooth", 8)

    def test_twomode_coefficients(self):
        u = torus_preset("twomode", 4, a=1.0, b=4.0)
        assert u.coeff(1) == pytest.approx(0.5)
        assert u.coeff(2) == pytest.approx(-2.0j)


class TestFileFormats:
    def test_field_json_roundtrip(self, tmp_path):
        u = TorusField.from_modes(3, {0: 1.0, 1: 0.5 - 0.25j})
        path = tmp_path / "field.json"
        write_field_json(path, u)
        back = read_field_json(path)
        assert back.max_mode == 3
        np.testing.assert_array_equal(back.coeffs, u.coeffs)

    def test_samples_csv_roundtrip(self, tmp_path):
        x = np.linspace(0, 6, 13)
        u = np.sin(x)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, x, u)
        x2, u2 = read_samples_csv(path)
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(u2, u)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(IngestionError):
            read_samples_csv(path)

    def test_malformed_field_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"max_mode": 2}')
        with pytest.raises(IngestionError):
            read_field_json(path)


class TestSolveTorusCommand:
    def test_zero_preset(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "zero", "--n", "16", "--t", "0.3",
                     "--samples", "64", "--out", str(out)])
        assert code == 0
        x, u = read_samples_csv(out / "solution_t00.csv")
        assert np.all(u == 0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve-torus"
        assert "solution_t00.csv" in manifest["outputs"]

    def test_constant_preset_all_times(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "constant:c=1.5", "--n", "16",
                     "--t", "0.2,0.8", "--samples", "64", "--out", str(out)])
        assert code == 0
        for tag in ("t00", "t01"):
            _, u = read_samples_csv(out / f"solution_{tag}.csv")
            np.testing.assert_allclose(u, 1.5, atol=1e-10)

    def test_method_both_writes_diff_report(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos", "--n", "64", "--dt", "5e-4",
                     "--t", "0.2", "--method", "both", "--samples", "256",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "diff_report.json").read_text())
        assert report["diffs"][0]["rel_l2"] <= 1e-6
        assert (out / "trajectory.json").exists()

    def test_both_with_off_grid_time_stays_accurate(self, tmp_path):
        # 0.1003 is not a multiple of dt; segment marching must still hit it
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos", "--n", "48", "--dt", "1e-3",
                     "--t", "0.1003", "--method", "both", "--samples", "128",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "diff_report.json").read_text())
        assert report["diffs"][0]["rel_l2"] <= 1e-6

    def test_method_spectral_writes_solution_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos", "--n", "32", "--dt", "1e-3",
                     "--t", "0.1", "--method", "spectral", "--samples", "128",
                     "--out", str(out)])
        assert code == 0
        assert (out / "solution_t00.csv").exists()
        assert (out / "coeffs_t00.json").exists()
        assert (out / "trajectory.json").exists()

    def test_dump_operators(self, tmp_path):
        out = tmp_path / "run"
        main(["solve-torus", "--preset", "cos", "--n", "8", "--t", "0.1",
              "--samples", "32", "--dump-operators", "--out", str(out)])
        assert (out / "lax_matrix.csv").exists()
        assert (out / "b_matrix.csv").exists()

    def test_unknown_preset_exits_2(self, tmp_path):
        code = main(["solve-torus", "--preset", "sawtooth", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_each_truncation_warning_recorded_once(self, tmp_path):
        # one recurrence per time: cos:a=3 at n = 16 warns once at each of two times
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos:a=3", "--n", "16", "--samples", "64",
                     "--t", "1.0,2.0", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["warnings"]) == 2

    def test_multi_time_run_matches_single_time_runs(self, tmp_path, monkeypatch):
        import boeq.torus_solution as ts

        args = ["solve-torus", "--preset", "twomode:a=1,b=0.5", "--n", "32", "--samples", "128"]
        times = ["0.1", "0.5", "1.0"]
        assert main(args + ["--t", ",".join(times), "--out", str(tmp_path / "multi")]) == 0
        for i, t in enumerate(times):
            monkeypatch.setattr(ts, "_eigen_memo", None)  # each single run factors afresh
            single = tmp_path / f"single{i}"
            assert main(args + ["--t", t, "--out", str(single)]) == 0
            for stem in ("coeffs", "solution"):
                multi_bytes = (tmp_path / "multi" / f"{stem}_t{i:02d}.csv").read_bytes()
                assert multi_bytes == (single / f"{stem}_t00.csv").read_bytes()


class TestSolveLineCommand:
    def test_zero_preset(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-line", "--preset", "zero", "--t", "0.1",
                     "--cutoff", "20", "--h", "0.05", "--nx", "21", "--out", str(out)])
        assert code == 0
        _, u = read_samples_csv(out / "solution_t00.csv")
        assert np.all(u == 0)

    def test_lorentzian_t0_matches_datum(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0",
                     "--nx", "33", "--xmin", "-4", "--xmax", "4", "--out", str(out)])
        assert code == 0
        x, u = read_samples_csv(out / "solution_t00.csv")
        np.testing.assert_allclose(u, 2 / (1 + x ** 2), atol=5e-3)

    def test_scan_output(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0",
                     "--nx", "3", "--scan", "0,1,3,0.5,1.5,2", "--out", str(out)])
        assert code == 0
        lines = (out / "uhp_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,re_val,im_val"
        assert len(lines) == 1 + 6
        spectrum = (out / "initial_spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "xi,re,im"

    def test_readme_scan_with_negative_start(self, tmp_path):
        out = tmp_path / "scan"
        code = main(["solve-line", "--preset", "gaussian:a=1,w=1", "--t", "0",
                     "--scan=-2,2,21,0.2,2,10", "--out", str(out)])
        assert code == 0
        lines = (out / "uhp_scan.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 21 * 10
        assert lines[1].startswith("-2")

    def test_csv_datum_roundtrip(self, tmp_path):
        x = np.linspace(-80, 80, 2048)
        datum = tmp_path / "datum.csv"
        write_samples_csv(datum, x, 2.0 / (1.0 + x ** 2))
        out = tmp_path / "run"
        code = main(["solve-line", "--preset", "csv", "--datum", str(datum),
                     "--t", "0", "--nx", "17", "--xmin", "-4", "--xmax", "4",
                     "--tail-tol", "1e-4", "--out", str(out)])
        assert code == 0
        xs, u = read_samples_csv(out / "solution_t00.csv")
        np.testing.assert_allclose(u, 2.0 / (1.0 + xs ** 2), atol=2e-2)

    def test_identical_config_reproduces_outputs_bitwise(self, tmp_path):
        args = ["solve-torus", "--preset", "twomode:a=1,b=0.5", "--n", "32",
                "--t", "0.15", "--samples", "128"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["outputs"]  # non-empty

    def test_manifest_names_every_output(self, tmp_path):
        out = tmp_path / "run"
        main(["solve-line", "--preset", "gaussian:a=1,w=1", "--t", "0",
              "--nx", "5", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(manifest["outputs"]) == on_disk

    def test_bad_grid_exits_2(self, tmp_path):
        # lorentzian tail does not fit a tiny cutoff
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0",
                     "--cutoff", "5", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_dense_operator_over_memory_budget_exits_2(self, tmp_path, monkeypatch):
        import boeq.line_operators as lo

        monkeypatch.setattr(lo, "_physical_memory", lambda: 2 ** 20)
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5",
                     "--cutoff", "16", "--tail-tol", "1e-6", "--nx", "3",
                     "--out", str(tmp_path / "r")])
        assert code == 2


class TestValidateCommand:
    def test_only_filter_runs_subset(self, tmp_path):
        out = tmp_path / "run"
        code = main(["validate", "--only", "leibniz", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["reports"]
        assert all("leibniz" in r["name"] for r in report["reports"])

    def test_insufficient_margin_config_exits_2(self, tmp_path):
        # the band-4 finite-section preset needs n >= 32
        code = main(["validate", "--n", "16", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_unmatched_filter_exits_2(self, tmp_path):
        code = main(["validate", "--only", "nonexistent-check", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_reports_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["validate", "--only", "torus", "--out", str(out1)]) == 0
        assert main(["validate", "--only", "torus", "--out", str(out2)]) == 0
        assert sha256_of(out1 / "validation_report.json") == \
            sha256_of(out2 / "validation_report.json")


class TestCompareCommand:
    def test_table_shape_and_values(self, tmp_path):
        out = tmp_path / "run"
        code = main(["compare", "--preset", "cos", "--t", "0.1,0.2", "--n-list", "48",
                     "--dt", "5e-4", "--samples", "128", "--out", str(out)])
        assert code == 0
        lines = (out / "compare.csv").read_text().strip().splitlines()
        assert lines[0] == "t,n,dt,rel_l2"
        assert len(lines) == 3
        rels = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(r <= 1e-6 for r in rels)

    def test_rows_equal_per_time_formula_vs_solver_bitwise(self, tmp_path):
        # one march per truncation gives the same bits as a fresh march from
        # t = 0 per time, for times on the dt grid, in any requested order
        from boeq.checks import formula_vs_solver

        out = tmp_path / "run"
        code = main(["compare", "--preset", "twomode:a=1.0,b=0.5", "--t", "0.3,0.1,0.25",
                     "--n-list", "32,48", "--dt", "5e-4", "--samples", "128", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
        assert [(float(r[0]), int(r[1])) for r in rows] == [
            (t, n) for n in (32, 48) for t in (0.3, 0.1, 0.25)]
        for t, n, dt, rel in rows:
            u0 = torus_preset("twomode", int(n), a=1.0, b=0.5)
            assert float(rel) == formula_vs_solver(u0, float(t), int(n), float(dt), 128)

    def test_off_grid_time_lands_exactly(self, tmp_path):
        # 0.1003 ends with a partial step; the march to 0.2 starts there and
        # ends with another one, so both rows sit at their requested times
        from boeq.checks import formula_vs_solver

        out = tmp_path / "run"
        code = main(["compare", "--preset", "cos", "--t", "0.1003,0.2", "--n-list", "48",
                     "--dt", "5e-4", "--samples", "128", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
        rels = [float(r[3]) for r in rows]
        assert all(r <= 1e-6 for r in rels)
        u0 = torus_preset("cos", 48)
        assert rels[0] == formula_vs_solver(u0, 0.1003, 48, 5e-4, 128)
        assert rels[1] == pytest.approx(formula_vs_solver(u0, 0.2, 48, 5e-4, 128), rel=1e-3)


class TestConfigMerging:
    def test_config_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "constant:c=2.0", "n": 16, "t": [0.1],
                                   "samples": 64}))
        out = tmp_path / "run"
        code = main(["solve-torus", "--config", str(cfg), "--preset", "zero",
                     "--out", str(out)])
        assert code == 0
        _, u = read_samples_csv(out / "solution_t00.csv")
        assert np.all(u == 0)  # flag beat the config file

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["solve-torus", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
