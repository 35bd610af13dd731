import csv
import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import boeq.cli as cli
import boeq.line_solution as line_solution
import boeq.spectral as spectral
import boeq.torus_solution as ts
from boeq.cli import main
from boeq.errors import ConditioningError, ConfigurationError, IngestionError
from boeq.fileio import (
    read_samples_csv,
    sha256_of,
    write_coeff_csv,
    write_field_json,
    write_matrix_csv,
    write_samples_csv,
    write_scan_csv,
    write_spectrum_csv,
)
from boeq.line_operators import LineField
from boeq.line_solution import ScanRow
from boeq.presets import line_preset, parse_preset, torus_preset
from boeq.spectral import TorusField

from conftest import step_counter, wave_datum


class TestPresets:
    def test_parse_with_params(self):
        name, params = parse_preset("lorentzian:c=2.5")
        assert name == "lorentzian" and params == {"c": 2.5}

    def test_parse_plain(self):
        assert parse_preset("cos") == ("cos", {})

    def test_malformed_param_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_preset("gaussian:a")

    @pytest.mark.parametrize("text", ["twomode:a=nan", "gaussian:a=1,w=inf", "cos:a=-inf"])
    def test_non_finite_param_rejected(self, text):
        with pytest.raises(ConfigurationError, match="non-finite"):
            parse_preset(text)

    @pytest.mark.parametrize("text", ["cos:a=1,a=2", "twomode:a=1,b=0.5,b=0.5"])
    def test_repeated_param_rejected(self, text):
        with pytest.raises(ConfigurationError, match="given twice"):
            parse_preset(text)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            torus_preset("sawtooth", 8)

    @pytest.mark.parametrize("name, params, message", [
        ("cos", {"amplitude": 3.0}, "'cos' takes only a; got 'amplitude'"),
        ("twomode", {"a": 1.0, "c": 2.0}, "'twomode' takes only a, b; got 'c'"),
        ("zero", {"c": 5.0}, "'zero' takes no parameters; got 'c'"),
    ])
    def test_torus_preset_refuses_unknown_param(self, name, params, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            torus_preset(name, 8, **params)

    @pytest.mark.parametrize("name, params, message", [
        ("lorentzian", {"speed": 2.0}, "'lorentzian' takes only c; got 'speed'"),
        ("gaussian", {"a": 1.0, "b": 2.0}, "'gaussian' takes only a, w; got 'b'"),
        ("zero", {"c": 5.0}, "'zero' takes no parameters; got 'c'"),
    ])
    def test_line_preset_refuses_unknown_param(self, name, params, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            line_preset(name, **params)

    def test_wave_is_benjamins_datum(self):
        np.testing.assert_array_equal(torus_preset("wave", 16, q=0.5, b=0.2).coeffs,
                                      wave_datum(0.5, 0.2, 16).coeffs)
        np.testing.assert_array_equal(torus_preset("wave", 8).hardy,
                                      np.concatenate([[0.0], 0.5 ** np.arange(1, 9)]))
        with pytest.raises(ConfigurationError, match=r"\|q\| < 1"):
            torus_preset("wave", 8, q=-1.0)

    def test_twomode_coefficients(self):
        u = torus_preset("twomode", 4, a=1.0, b=4.0)
        assert u.hardy[1] == pytest.approx(0.5)
        assert u.hardy[2] == pytest.approx(-2.0j)


def read_field_json(path):
    """The TorusField in a coefficient JSON file written by ``write_field_json``."""
    data = json.loads(Path(path).read_text())
    n = int(data["max_mode"])
    coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
    assert coeffs.shape == (2 * n + 1,)
    return TorusField(coeffs[n:])


class TestFileFormats:
    def test_field_json_roundtrip(self, tmp_path):
        u = TorusField.from_modes(3, {0: 1.0, 1: 0.5 - 0.25j})
        path = tmp_path / "field.json"
        write_field_json(path, u)
        back = read_field_json(path)
        assert back.max_mode == 3
        np.testing.assert_array_equal(back.coeffs, u.coeffs)

    def test_field_json_bytes(self, tmp_path):
        # cos:a=2 at N = 4, every zero part +0.0 on both halves
        path = tmp_path / "field.json"
        write_field_json(path, torus_preset("cos", 4, a=2.0))
        pairs = [("0.0", "0.0")] * 3 + [("1.0", "0.0"), ("0.0", "0.0"), ("1.0", "0.0")] \
            + [("0.0", "0.0")] * 3
        rows = ",\n".join(f"    [\n      {re},\n      {im}\n    ]" for re, im in pairs)
        expected = '{\n  "coeffs": [\n' + rows + '\n  ],\n  "max_mode": 4\n}\n'
        assert path.read_bytes() == expected.encode()

    def test_samples_csv_roundtrip(self, tmp_path):
        x = np.linspace(0, 6, 13)
        u = np.sin(x)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, x, u)
        x2, u2 = read_samples_csv(path)
        np.testing.assert_array_equal(x2, x)
        np.testing.assert_array_equal(u2, u)

    def test_csv_writers_write_the_bytes_of_csv_writer(self, tmp_path):
        # the reference writes one row at a time through csv.writer, with
        # repr fields; the edge values must come out the same
        edge = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
                0.1, 1.0 / 3.0, 2.0 ** 60, 1e-5, 123456789.125]
        # more rows than one block of the writers, so rows cross a block edge
        x = np.asarray(edge + list(np.random.default_rng(3).standard_normal(600)))
        values = np.empty(x.size, complex)
        values.real, values.imag = x[::-1], x

        def reference(header, rows):
            path = tmp_path / "reference.csv"
            with path.open("w", newline="") as fh:
                w = csv.writer(fh)
                if header is not None:
                    w.writerow(header)
                for row in rows:
                    w.writerow([f if isinstance(f, int) else repr(float(f)) for f in row])
            return path.read_bytes()

        # a scan whose every third point failed: its value is written as nan
        scan = [ScanRow(z=complex(a, b), value=None if k % 3 == 0 else complex(b, a),
                        error="failed" if k % 3 == 0 else None)
                for k, (a, b) in enumerate(zip(x, x[::-1]))]
        # a matrix of more rows than one block, a transposed view of it, a
        # real matrix and an empty one, written as rows of re, im pairs
        matrix = values.reshape(-1, 2)
        matrix_rows = [(m, ([f for v in row for f in (v.real, v.imag)]
                            for row in np.asarray(m, complex)))
                       for m in (matrix, matrix.T, matrix.real, np.zeros((0, 4), complex))]
        cases = [
            (write_scan_csv, (scan,), ["re_z", "im_z", "re_val", "im_val"],
             ((r.z.real, r.z.imag, np.nan, np.nan) if r.value is None
              else (r.z.real, r.z.imag, r.value.real, r.value.imag) for r in scan)),
            (write_scan_csv, ([],), ["re_z", "im_z", "re_val", "im_val"], []),
            (write_samples_csv, (x, x[::-1]), ["x", "u"], zip(x, x[::-1])),
            (write_coeff_csv, (values,), ["k", "re", "im"],
             ((k, v.real, v.imag) for k, v in enumerate(values))),
            (write_spectrum_csv, (x, values), ["xi", "re", "im"],
             ((xi, v.real, v.imag) for xi, v in zip(x, values))),
            *((write_matrix_csv, (m,), None, rows) for m, rows in matrix_rows),
        ]
        for k, (writer, args, header, rows) in enumerate(cases):
            path = tmp_path / f"{writer.__name__}{k}.csv"
            writer(path, *args)
            assert path.read_bytes() == reference(header, rows), writer.__name__

    def test_checksum_reads_in_blocks(self, tmp_path):
        # the manifest's checksum of an 8 MiB output holds a block of it,
        # not the whole file
        data = np.random.default_rng(5).bytes(8 * 2 ** 20)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        want = hashlib.sha256(data).hexdigest()
        del data
        tracemalloc.start()
        try:
            got = sha256_of(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * 2 ** 20

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(IngestionError):
            read_samples_csv(path)

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_samples_rejected(self, tmp_path, name):
        with pytest.raises(IngestionError, match="cannot read samples"):
            read_samples_csv(tmp_path / name)


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

    @pytest.mark.parametrize("method", ["explicit", "spectral"])
    @pytest.mark.parametrize("k", [0, 4, None])
    def test_coefficient_count_honoured_by_both_methods(self, tmp_path, method, k):
        out = tmp_path / "run"
        argv = ["solve-torus", "--preset", "cos", "--n", "16", "--dt", "1e-3", "--t", "0.1",
                "--method", method, "--samples", "64", "--out", str(out)]
        code = main(argv + ([] if k is None else ["--k", str(k)]))
        assert code == 0
        rows = (out / "coeffs_t00.csv").read_text().splitlines()[1:]
        assert len(rows) == (16 // 2 if k is None else k) + 1

    def test_method_spectral_writes_solution_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos", "--n", "32", "--dt", "1e-3",
                     "--t", "0.1", "--method", "spectral", "--samples", "128",
                     "--out", str(out)])
        assert code == 0
        assert (out / "solution_t00.csv").exists()
        assert (out / "coeffs_t00.json").exists()
        assert (out / "trajectory.json").exists()

    @pytest.mark.parametrize("extra, code", [
        (["--method", "spectral"], 0),
        (["--method", "spectral", "--dump-operators"], 2),
        (["--method", "explicit"], 2),
    ], ids=["spectral", "spectral-dump-operators", "explicit"])
    def test_dense_budget_only_where_dense_operators_are_formed(self, tmp_path, monkeypatch,
                                                                capsys, extra, code):
        # memory for 0.9 of the dense estimate at n = 1024: the stepper
        # forms no dense operator, so only the explicit formula and
        # --dump-operators are refused
        from boeq.torus_operators import DENSE_PEAK_ARRAYS

        need = DENSE_PEAK_ARRAYS * 16 * 1025 ** 2
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 0.9 * 2 * need)
        out = tmp_path / "run"
        assert main(["solve-torus", "--n", "1024", "--samples", "4096", "--t", "0.01",
                     "--dt", "1e-3", *extra, "--out", str(out)]) == code
        if code:
            assert "dense torus operators at n = 1024" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "solution_t00.csv").exists()

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

    def test_spectral_cfl_warning_recorded_once_per_march(self, tmp_path):
        # the stepper checks the CFL number once, on the datum, as one march
        # to the last time does, not again at each later requested time
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos:a=3", "--n", "64", "--dt", "0.01",
                     "--t", "0.1,0.2,0.3", "--samples", "256", "--method", "spectral",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [
            "nonlinear CFL number dt*N*max|u| ~ 1.92 at N = 64 exceeds 1; watch for blow-up"]

    @pytest.mark.parametrize("k, warned", [(10, False), (16, True)])
    def test_spectral_k_above_dealias_cut_warns(self, tmp_path, k, warned):
        # the stepper keeps modes 0..2N/3 = 10 at N = 16; above them it writes zeros
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "cos", "--n", "16", "--k", str(k),
                     "--t", "0.5", "--method", "spectral", "--out", str(out)])
        assert code == 0
        seen = json.loads((out / "manifest.json").read_text())["warnings"]
        assert seen == (["coefficients k = 11..16 lie above the stepper's dealiasing cut "
                         "2N/3 = 10 and are written as zeros; use k <= 10 or --method "
                         "explicit"] if warned else [])
        rows = (out / "coeffs_t00.csv").read_text().splitlines()[1:]
        assert len(rows) == k + 1
        assert all(row == f"{i},0.0,0.0" for i, row in enumerate(rows) if i > 10)

    def test_periodic_sampled_datum(self, tmp_path):
        x = 2 * np.pi * np.arange(64) / 64
        u = np.exp(np.sin(x))
        datum = tmp_path / "datum.csv"
        write_samples_csv(datum, x, u)
        out = tmp_path / "run"
        code = main(["solve-torus", "--preset", "csv", "--datum", str(datum), "--n", "16",
                     "--t", "0.2", "--out", str(out)])
        assert code == 0
        got = json.loads((out / "initial_field.json").read_text())["coeffs"]
        want = spectral.field_from_samples(read_samples_csv(datum)[1], max_mode=16).coeffs
        np.testing.assert_array_equal([complex(*c) for c in got], want)

    @pytest.mark.parametrize("grid", ["shifted", "short", "long", "line"])
    def test_sampled_x_must_cover_one_period(self, tmp_path, capsys, grid):
        # x_j = 2 pi j / 64 shifted, without its last point, with 2 pi
        # itself, or the line grid [-30, 30]: none samples one period
        x = 2 * np.pi * np.arange(65) / 64
        x = {"shifted": x[:64] + 0.1, "short": x[:63], "long": x,
             "line": np.linspace(-30.0, 30.0, 601)}[grid]
        datum = tmp_path / "datum.csv"
        write_samples_csv(datum, x, 2.0 / (1.0 + x ** 2))
        out = tmp_path / "r"
        code = main(["solve-torus", "--preset", "csv", "--datum", str(datum), "--n", "16",
                     "--out", str(out)])
        assert code == 2
        assert "one period" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_time_exits_3_without_traceback(self, tmp_path, capsys):
        # 2t lambda overflows to a non-finite phase: a numerical failure
        code = main(["solve-torus", "--preset", "cos", "--n", "16", "--t", "1e308",
                     "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "phases" in err and "Traceback" not in err

    @pytest.mark.parametrize("args, message", [
        (["--preset", "cos", "--n", "16", "--t", "1e308"], "phases"),
        (["--preset", "cos:a=40", "--n", "64", "--t", "5", "--dt", "0.05", "--method", "spectral"],
         "blew up"),
    ], ids=["explicit_phases_overflow", "stepper_blows_up"])
    def test_numerical_failure_exits_3_and_writes_nothing(self, tmp_path, capsys, args, message):
        # the run's staging directory is removed: no out, nothing beside it
        out = tmp_path / "r"
        assert main(["solve-torus", *args, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_corrupted_step_operator_exits_3(self, tmp_path, capsys, corrupt_next_step_operator):
        corrupt_next_step_operator(torus_preset("cos", 16), 16)
        code = main(["solve-torus", "--preset", "cos", "--n", "16", "--t", "0.5",
                     "--out", str(tmp_path / "r")])
        assert code == 3
        assert "eigenbasis coordinates residual" in capsys.readouterr().err

    def test_non_unitary_eigenvectors_exit_3(self, tmp_path, monkeypatch, capsys):
        # column k of V scaled by 1 + d and eigenvalue k by (1 + d)^-2 keep
        # V Lambda V* = L_{u0}: only the unitarity check of V objects
        k, d = 8, 1e-8
        real = np.linalg.eigh

        def skewed(a):
            w, v = real(a)
            v[:, k] *= 1.0 + d
            w[k] /= (1.0 + d) ** 2
            return w, v

        monkeypatch.setattr(ts, "_eigen_memo", None)
        monkeypatch.setattr(np.linalg, "eigh", skewed)
        code = main(["solve-torus", "--preset", "cos", "--n", "16", "--t", "0.5",
                     "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "unitary defect" in err and "Traceback" not in err

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

    def test_failed_scan_points_are_named_in_the_manifest(self, tmp_path, monkeypatch):
        class OneFailingNode(line_solution.ResolventEvaluator):
            def value(self, z):
                if z == complex(1.0, 0.5):
                    raise ConditioningError("forced node failure", 1.0)
                return super().value(z)

        monkeypatch.setattr(line_solution, "ResolventEvaluator", OneFailingNode)
        out = tmp_path / "scan"
        assert main(["solve-line", "--t", "0", "--nx", "3", "--cutoff", "16", "--h", "0.05",
                     "--tail-tol", "1e-6", "--scan=-1,1,2,0.5,1,2", "--out", str(out)]) == 0
        (warning,) = json.loads((out / "manifest.json").read_text())["warnings"]
        assert "1 of 4 scan points failed" in warning
        assert "(1+0.5j)" in warning and "forced node failure" in warning

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

    def test_identical_config_reproduces_outputs_bitwise(self, tmp_path, monkeypatch):
        configs = {
            "torus": ["solve-torus", "--preset", "twomode:a=1,b=0.5", "--n", "32",
                      "--t", "0.15", "--samples", "128"],
            # t != 0: a Hessenberg reduction, then the samples and the scan
            "line": ["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5",
                     "--cutoff", "16", "--h", "0.08", "--tail-tol", "1e-6", "--nx", "9",
                     "--scan=-1,1,3,0.5,1.0,2"],
        }
        for name, args in configs.items():
            outputs = []
            for run in ("a", "b"):
                # each run factors afresh, as a new process would
                monkeypatch.setattr(ts, "_eigen_memo", None)
                out = tmp_path / name / run
                assert main(args + ["--out", str(out)]) == 0
                outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
            assert outputs[0] == outputs[1], name
            assert outputs[0]  # non-empty

    def test_manifest_names_every_output(self, tmp_path):
        out = tmp_path / "run"
        main(["solve-line", "--preset", "gaussian:a=1,w=1", "--t", "0",
              "--nx", "5", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(manifest["outputs"]) == on_disk

    @pytest.mark.parametrize("t", ["0", "0.5", "0.5,1"])
    def test_sampled_datum_evaluated_once_per_use(self, tmp_path, monkeypatch, t):
        # each evaluation of a sampled datum is an M x N direct sum; one
        # sampling serves the initial spectrum, the tail check and, at every
        # time, the evaluator's right-hand side and convolution kernel
        real = LineField.from_samples
        calls = []

        def counted(x, u):
            field = real(x, u)

            def fn(xi):
                calls.append(np.size(xi))
                return field.spectrum_fn(xi)

            return LineField(fn)

        monkeypatch.setattr(LineField, "from_samples", staticmethod(counted))
        x = np.linspace(-30.0, 30.0, 601)
        datum = tmp_path / "datum.csv"
        write_samples_csv(datum, x, 2.0 / (1.0 + x ** 2))
        code = main(["solve-line", "--preset", "csv", "--datum", str(datum), "--t", t,
                     "--cutoff", "16", "--h", "0.05", "--tail-tol", "1e-4", "--nx", "5",
                     "--scan=-1,1,3,0.5,1.0,2", "--out", str(tmp_path / "r")])
        assert code == 0
        assert calls == [321]  # one evaluation, on the M + 1 = 321 nodes

    @pytest.mark.parametrize("command", ["solve-line", "solve-torus"])
    @pytest.mark.parametrize("datum", [None, "missing.csv", "."],
                             ids=["absent", "missing", "directory"])
    def test_unreadable_datum_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                         datum):
        out = tmp_path / "r"
        argv = [command, "--preset", "csv", "--out", str(out)]
        if datum is not None:
            argv += ["--datum", str(tmp_path / datum)]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_without_times_exits_2(self, tmp_path):
        code = main(["solve-line", "--preset", "zero", "--t", "", "--scan=0,1,2,0.5,1,2",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_bad_grid_exits_2(self, tmp_path):
        # lorentzian tail does not fit a tiny cutoff
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0",
                     "--cutoff", "5", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_non_finite_spectrum_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # a * w * sqrt(pi) overflows: the samples are inf, and NaN where the
        # Gaussian factor underflows, so no tail fraction is defined
        out = tmp_path / "r"
        code = main(["solve-line", "--preset", "gaussian:a=1.5e308,w=1", "--t", "0.5",
                     "--out", str(out)])
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, size", [("solve-line", ["--tail-tol", "1e-4"]),
                                               ("solve-torus", ["--n", "32"])],
                             ids=["solve-line", "solve-torus"])
    @pytest.mark.parametrize("order, message", [("decreasing", "increase strictly"),
                                                ("nonuniform", "must be uniform")],
                             ids=["decreasing", "nonuniform"])
    def test_sampled_x_must_increase_uniformly(self, tmp_path, capsys, command, size, order,
                                               message):
        # a decreasing x column would negate the line transform, and the
        # torus transform reads u as uniform samples of one period
        x = np.linspace(-30.0, 30.0, 601)
        x = x[::-1] if order == "decreasing" else x + 0.01 * np.sin(x)
        datum = tmp_path / "datum.csv"
        write_samples_csv(datum, x, 2.0 / (1.0 + x ** 2))
        out = tmp_path / "r"
        code = main([command, "--preset", "csv", "--datum", str(datum), "--t", "0", *size,
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_refused_tail_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0",
                     "--cutoff", "5", "--out", str(out)])
        assert code == 2
        assert "spectral tail" in capsys.readouterr().err
        assert not out.exists()

    def test_krylov_basis_over_memory_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        # the t != 0 resolvent at M = 801, its Krylov basis included, does
        # not fit half of a 1 MiB machine
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2 ** 20)
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5",
                     "--cutoff", "16", "--tail-tol", "1e-6", "--nx", "3",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "Krylov basis at M = 801" in capsys.readouterr().err
        # refused after the initial spectrum was staged: nothing is written
        assert list(tmp_path.iterdir()) == []

    def test_unconverged_line_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        import boeq.line_operators as lo

        monkeypatch.setattr(lo, "GMRES_MAX_STEPS", 2)
        code = main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5",
                     "--cutoff", "16", "--tail-tol", "1e-6", "--nx", "3",
                     "--out", str(tmp_path / "r")])
        assert code == 3
        assert "GMRES did not converge" in capsys.readouterr().err


class TestValidateCommand:
    def test_only_filter_runs_subset(self, tmp_path):
        out = tmp_path / "run"
        code = main(["validate", "--only", "leibniz", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["reports"]
        assert all("leibniz" in r["name"] for r in report["reports"])

    def test_lax_bracket_passes_at_n_256(self, tmp_path):
        # its rounding grows like eps n^2, and so does its tolerance
        out = tmp_path / "run"
        assert main(["validate", "--n", "256", "--only", "torus_lax_bracket", "--out", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert [r["name"] for r in report["reports"]] == [
            "torus_lax_bracket[zero]", "torus_lax_bracket[cos]", "torus_lax_bracket[random]"]

    def test_insufficient_margin_config_exits_2(self, tmp_path):
        # the band-4 finite-section preset needs n >= 32
        code = main(["validate", "--n", "16", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_dense_budget_charges_the_suite_peak(self, tmp_path, monkeypatch, capsys):
        # memory between solve-torus' dense estimate at n = 64 and the
        # suite's: refused before the suite runs, and nothing is written
        from boeq.checks import SUITE_PEAK_ARRAYS
        from boeq.torus_operators import DENSE_PEAK_ARRAYS

        arrays = (DENSE_PEAK_ARRAYS + SUITE_PEAK_ARRAYS) / 2
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 2 * arrays * 16 * 65 ** 2)

        def no_suite(**kwargs):
            raise AssertionError("the suite ran before its dense peak was checked")

        monkeypatch.setattr(cli, "default_suite", no_suite)
        assert main(["validate", "--n", "64", "--out", str(tmp_path / "r")]) == 2
        assert "dense torus operators at n = 64" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unmatched_filter_exits_2(self, tmp_path, monkeypatch):
        # refused from the suite's names, before it runs or writes anything
        steps = step_counter(monkeypatch)
        code = main(["validate", "--only", "nonexistent-check", "--out", str(tmp_path / "r")])
        assert code == 2
        assert not (tmp_path / "r").exists()
        assert steps == []

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

    def test_rows_match_per_time_formula_vs_solver(self, tmp_path):
        # one stacked march for all truncations gives, for the largest one,
        # the same bits as a fresh march from t = 0 per time, for times on
        # the dt grid, in any requested order; the smaller truncations run on
        # the largest one's padded grid and agree to rounding
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
            [[alone]] = formula_vs_solver([u0], [float(t)], float(dt), 128)
            if int(n) == 48:
                assert float(rel) == alone
            else:
                assert abs(float(rel) - alone) <= 1e-14

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
        assert rels[0] == formula_vs_solver([u0], [0.1003], 5e-4, 128)[0][0]
        assert rels[1] == pytest.approx(formula_vs_solver([u0], [0.2], 5e-4, 128)[0][0], rel=1e-3)


def _tree(root: Path) -> dict:
    """Every file under root, by relative path, with its bytes, and every
    directory with None."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestOutputCommit:
    """A run's out is all or nothing: staged beside it, committed on exit 0
    or 1 with the manifest last, an earlier run replaced whole."""

    TORUS = ["solve-torus", "--preset", "cos", "--n", "16", "--samples", "64"]

    def test_rerun_with_fewer_times_leaves_no_stale_files(self, tmp_path):
        out = tmp_path / "run"
        assert main([*self.TORUS, "--t", "0.1,0.2,0.3", "--out", str(out)]) == 0
        assert (out / "solution_t02.csv").exists()
        assert main([*self.TORUS, "--t", "0.5", "--out", str(out)]) == 0
        assert not [p.name for p in out.iterdir() if "t01" in p.name or "t02" in p.name]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t"] == [0.5]
        on_disk = {p.name: sha256_of(p) for p in out.iterdir() if p.name != "manifest.json"}
        assert manifest["outputs"] == on_disk
        assert list(tmp_path.iterdir()) == [out]  # the earlier run moved aside is gone

    @pytest.mark.parametrize("argv", [
        TORUS,
        ["solve-line", "--preset", "lorentzian:c=1", "--cutoff", "16", "--tail-tol", "1e-6",
         "--nx", "3"],
    ], ids=["solve-torus", "solve-line"])
    def test_failed_rerun_leaves_the_earlier_run_byte_identical(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert main([*argv, "--t", "0.1,0.2", "--out", str(out)]) == 0
        before = _tree(out)
        # solve-line writes its spectrum and first time before 1e308 fails
        assert main([*argv, "--t", "0.3,1e308", "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert _tree(out) == before
        assert list(tmp_path.iterdir()) == [out]

    def test_compare_blow_up_leaves_no_out(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["compare", "--preset", "cos:a=40", "--n-list", "64", "--t", "5",
                     "--dt", "0.05", "--out", str(out)]) == 3
        assert "blew up" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_solve_line_failure_at_a_later_time_leaves_no_out(self, tmp_path, capsys):
        # the spectrum and the first time are written before 1e308 fails
        out = tmp_path / "r"
        assert main(["solve-line", "--preset", "lorentzian:c=1", "--t", "0.5,1e308",
                     "--cutoff", "16", "--tail-tol", "1e-6", "--nx", "3",
                     "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["directory", "file"])
    def test_existing_out_that_is_no_run_exits_2_untouched(self, tmp_path, capsys, monkeypatch,
                                                           kind):
        steps = step_counter(monkeypatch)
        out = tmp_path / "mine"
        if kind == "directory":
            out.mkdir()
            (out / "notes.txt").write_text("keep me\n")
            (out / "sub").mkdir()
            (out / "sub" / "data.csv").write_text("1,2\n")
        else:
            out.write_text("keep me\n")
        before = _tree(out) if kind == "directory" else out.read_bytes()
        assert main(["compare", "--preset", "cos", "--n-list", "16", "--t", "0.1",
                     "--samples", "64", "--out", str(out)]) == 2
        assert "neither an empty directory nor an earlier boeq run" in capsys.readouterr().err
        assert (_tree(out) if kind == "directory" else out.read_bytes()) == before
        assert list(tmp_path.iterdir()) == [out]
        assert steps == []  # refused before any solve

    @pytest.mark.parametrize("kind", ["foreign manifest", "bare manifest", "run plus a file",
                                      "run plus a directory", "run missing an output"])
    def test_out_that_is_not_exactly_an_earlier_run_exits_2_untouched(self, tmp_path, capsys,
                                                                      kind):
        # a manifest.json alone does not make a run: only boeq's manifest
        # beside exactly the plain files it names may be replaced
        out = tmp_path / "project"
        if kind in ("foreign manifest", "bare manifest"):
            out.mkdir()
            (out / "manifest.json").write_text(
                '{"name": "app", "version": "1.0"}' if kind == "foreign manifest" else "{}")
            (out / "index.html").write_text("<p>keep me</p>\n")
            (out / "assets").mkdir()
            (out / "assets" / "app.js").write_text("keep();\n")
        else:
            assert main([*self.TORUS, "--t", "0.1", "--out", str(out)]) == 0
            if kind == "run plus a file":
                (out / "notes.txt").write_text("keep me\n")
            elif kind == "run plus a directory":
                (out / "sub").mkdir()
            else:
                (out / "coeffs_t00.csv").unlink()
        before = _tree(out)
        assert main([*self.TORUS, "--t", "0.2", "--out", str(out)]) == 2
        assert "neither an empty directory nor an earlier boeq run" in capsys.readouterr().err
        assert _tree(out) == before
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_rename_puts_the_earlier_run_back(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main([*self.TORUS, "--t", "0.1", "--out", str(out)]) == 0
        before = _tree(out)
        rename = Path.rename

        def failing(self, target):
            if ".staging-" in self.name and not self.name.endswith(".old"):
                raise OSError("rename refused")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", failing)
        with pytest.raises(OSError, match="rename refused"):
            main([*self.TORUS, "--t", "0.2", "--out", str(out)])
        assert _tree(out) == before
        assert list(tmp_path.iterdir()) == [out]

    def test_out_changed_during_the_run_exits_2_untouched(self, tmp_path, monkeypatch, capsys):
        # out is checked again at the commit, so a file put there meanwhile is kept
        out = tmp_path / "run"
        assert main([*self.TORUS, "--t", "0.1", "--out", str(out)]) == 0

        def meddling(cfg, outdir):
            (out / "notes.txt").write_text("keep me\n")
            return 0

        text, _, options = cli.OPTIONS["validate"]
        monkeypatch.setitem(cli.OPTIONS, "validate", (text, meddling, options))
        assert main(["validate", "--out", str(out)]) == 2
        assert "neither an empty directory" in capsys.readouterr().err
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert (out / "solution_t00.csv").is_file()
        assert list(tmp_path.iterdir()) == [out]

    def test_empty_out_is_committed_with_umask_permissions(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir(mode=0o700)
        old = os.umask(0o022)
        try:
            assert main([*self.TORUS, "--t", "0.1", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert (out / "manifest.json").is_file()
        assert out.stat().st_mode & 0o777 == 0o755
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_no_staging_directory_left_after_exit(self, tmp_path, monkeypatch, code):
        # exit 2 and 3 are raised inside the commands, after the staging
        # directory was made
        from boeq.checks import CheckReport

        residual = 1.0 if code == 1 else 0.0
        monkeypatch.setattr("boeq.cli.default_suite", lambda torus_n=64: [
            CheckReport.from_residual("forced", residual, 1e-6)])
        argv = {0: ["validate"], 1: ["validate"], 2: ["validate", "--only", "nosuch"],
                3: [*self.TORUS, "--t", "1e308"]}[code]
        # out's missing parents are made with the staging directory and go with it
        out = tmp_path / "a" / "b" / "r"
        assert main([*argv, "--out", str(out)]) == code
        assert list(tmp_path.iterdir()) == ([tmp_path / "a"] if code < 2 else [])
        if code < 2:
            assert list(out.parent.iterdir()) == [out]

    def test_no_staging_directory_left_after_an_exception(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert main([*self.TORUS, "--t", "0.1", "--out", str(out)]) == 0
        before = _tree(out)

        def broken(*args):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("boeq.cli.write_samples_csv", broken)
        with pytest.raises(RuntimeError, match="disk on fire"):
            main([*self.TORUS, "--t", "0.2", "--out", str(out)])
        assert _tree(out) == before
        assert list(tmp_path.iterdir()) == [out]

    def test_sigterm_removes_the_staging_directory(self, tmp_path):
        # a scan of 10^6 points runs for a minute; SIGTERM ends it once the
        # staging directory exists, and the process still dies by signal 15
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "boeq.cli", "solve-line", "--t", "0", "--nx", "3",
                "--scan=0,1,1000,0.5,1,1000", "--out", str(tmp_path / "o")]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob(".o.staging-*")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
        finally:
            proc.kill()
            proc.wait()
        assert list(tmp_path.iterdir()) == []


class _NoSolve(line_solution.ResolventEvaluator):
    def value(self, z):
        raise AssertionError("a line point was solved before the counts were checked")


class TestCountsBoundedBeforeAllocation:
    """--samples, --nx and the --scan point count are checked against the
    memory budget before any solve: exit 2, and no out or staging directory."""

    @pytest.mark.parametrize("argv", [
        ["solve-torus", "--n", "16", "--samples", "1000000", "--t", "0.5"],
        ["solve-torus", "--n", "16", "--samples", "1000000", "--t", "0.5", "--method", "both"],
        ["compare", "--n-list", "16", "--t", "0.1", "--samples", "1000000"],
        ["solve-line", "--t", "0", "--nx", "1000000"],
        ["solve-line", "--t", "0", "--nx", "3", "--scan=0,1,1000,0.5,1,1000"],
    ], ids=["torus-samples", "torus-both-samples", "compare-samples", "line-nx", "line-scan"])
    def test_exits_2_and_leaves_nothing(self, tmp_path, monkeypatch, capsys, argv):
        # a 4 MiB machine: room for the default line grid (0.8 MB), none for
        # 10^6 samples or points
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 4 * 2 ** 20)
        monkeypatch.setattr(line_solution, "ResolventEvaluator", _NoSolve)
        assert main([*argv, "--out", str(tmp_path / "r")]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSampleBudget:
    """The sample budget, TORUS_SAMPLE_BYTES per sample array a command
    counts, covers the traced peak of its run by at most 1.5x."""

    @pytest.mark.parametrize("argv, arrays", [
        (["solve-torus", "--n", "16", "--t", "0.01"], 2),
        (["solve-torus", "--n", "16", "--t", "0.01", "--method", "both", "--dt", "1e-3"], 3),
        (["solve-torus", "--n", "16", "--t", "0.01,0.02,0.03", "--method", "both", "--dt", "1e-3"], 7),
        (["compare", "--n-list", "16", "--t", "0.01", "--dt", "1e-3"], 2),
    ], ids=["torus-one-time", "torus-both", "torus-both-three-times", "compare"])
    def test_estimate_covers_peak(self, tmp_path, argv, arrays):
        n_samples = 200_000
        tracemalloc.start()
        try:
            code = main([*argv, "--samples", str(n_samples), "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        estimate = spectral.TORUS_SAMPLE_BYTES * n_samples * arrays
        assert peak <= estimate <= 1.5 * peak


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

    def test_manifest_goes_to_the_config_file_out(self, tmp_path, monkeypatch):
        # an earlier run's ./boeq-out must neither receive nor lose a manifest
        monkeypatch.chdir(tmp_path)
        stale = tmp_path / "boeq-out"
        stale.mkdir()
        (stale / "manifest.json").write_text("{}")
        out = tmp_path / "from-config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "t": [0.2], "out": str(out)}))
        assert main(["solve-torus", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(manifest["outputs"]) == on_disk and len(on_disk) == 4
        assert (stale / "manifest.json").read_text() == "{}"

    def test_manifest_echoes_the_resolved_configuration(self, tmp_path):
        # defaults, config-file keys and flags, each where it wins
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "t": [0.2], "samples": 64}))
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", str(cfg), "--samples", "128",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {
            "preset": "cos", "datum": "", "n": 16, "dt": 2e-4, "t": [0.2],
            "method": "explicit", "k": None, "samples": 128, "dump_operators": False,
            "out": str(out),
        }

    @pytest.mark.parametrize("command,key,value", [
        ("solve-line", "tail-tol", 1e-4),
        ("compare", "nlist", [32]),
    ])
    def test_misspelt_config_key_exits_2_and_names_it(self, tmp_path, capsys, command, key,
                                                      value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "r"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["solve-torus", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r")])
        assert code == 2


class TestInvalidNumericFlags:
    """Out-of-range numbers are configuration errors (exit 2), caught before any solve."""

    @pytest.mark.parametrize("argv", [
        ["solve-torus", "--n", "0"],
        ["solve-torus", "--n", "16", "--samples", "64", "--k", "40"],
        ["solve-torus", "--n", "16", "--samples", "64", "--k", "-1"],
        ["solve-torus", "--method", "spectral", "--dt", "0"],
        ["solve-line", "--h", "0"],
        ["solve-line", "--h", "100"],
        ["solve-line", "--eps", "0"],
        ["compare", "--dt", "-1"],
        ["compare", "--n-list", "0"],
        ["compare", "--n-list", "16", "--samples", "32"],
        ["solve-torus", "--preset", "twomode:a=nan", "--n", "16", "--samples", "64"],
        ["solve-line", "--nx", "0"],
        ["solve-torus", "--t", "nan"],
        ["solve-torus", "--t", "0.5,inf"],
        ["solve-torus", "--method", "spectral", "--t", "nan"],
        ["solve-torus", "--method", "both", "--t=-inf"],
        ["compare", "--t", "inf"],
        ["solve-line", "--t", "nan"],
        ["solve-line", "--t", "inf"],
        ["solve-line", "--tail-tol", "nan"],
        ["solve-line", "--xmin=-inf"],
        ["solve-line", "--xmax", "nan"],
        ["solve-line", "--scan=-2,2,-3,0.2,2,2"],
        ["solve-line", "--scan=-2,2,21,0.2,2,nan"],
        ["solve-line", "--scan=-2,nan,21,0.2,2,10"],
        ["solve-line", "--scan=-2,2,2.5,0.5,1.5,2"],
        ["solve-line", "--scan=-2,2,21,0.2,2,1.5"],
        ["solve-line", "--t", "0", "--scan=-1,1,2,-0.5,0.5,2"],
        ["solve-line", "--t", "0", "--scan=-1,1,2,0.5,0,2"],
        ["solve-line", "--h", "1e-9", "--t", "0"],
        ["solve-torus", "--n", "100000", "--samples", "200002", "--t", "0.1"],
        ["compare", "--n-list", "100000", "--samples", "200001"],
        ["validate", "--n", "100000"],
        ["solve-torus", "--preset", "cos:amplitude=3", "--n", "16"],
        ["solve-line", "--preset", "lorentzian:speed=2"],
        ["solve-torus", "--preset", "zero:c=5", "--n", "16"],
        ["solve-torus", "--preset", "cos:a=1,a=2", "--n", "16"],
        ["solve-line", "--cutoff", "0.12", "--h", "0.02", "--t", "0", "--tail-tol", "1"],
        ["solve-torus", "--n", "16.5"],
        ["solve-torus", "--method", "bogus"],
    ], ids=["torus-n0", "torus-k-above-n", "torus-k-negative", "torus-dt0", "line-h0",
            "line-too-few-nodes", "line-eps0", "compare-dt-negative", "compare-n0",
            "compare-too-few-samples", "torus-nan-preset", "line-nx0", "torus-t-nan",
            "torus-t-inf", "torus-spectral-t-nan", "torus-both-t-minus-inf", "compare-t-inf",
            "line-t-nan", "line-t-inf", "line-tail-tol-nan", "line-xmin-inf", "line-xmax-nan",
            "line-scan-negative-count", "line-scan-nan-count", "line-scan-nan-bound",
            "line-scan-fractional-nre", "line-scan-fractional-nim",
            "line-scan-im0-negative", "line-scan-im1-zero",
            "line-grid-beyond-memory", "torus-n-beyond-memory", "compare-n-beyond-memory",
            "validate-n-beyond-memory", "torus-preset-unknown-param",
            "line-preset-unknown-param", "torus-zero-preset-with-param",
            "torus-preset-repeated-param", "line-seven-nodes", "torus-n-fractional",
            "torus-method-unknown"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch, argv):
        # an 8 GiB machine wherever the suite runs: sizes that cannot fit
        # are refused before anything is allocated or written
        monkeypatch.setattr(spectral, "_physical_memory", lambda: 8 * 2 ** 30)
        out = tmp_path / "r"
        assert main([*argv, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_value_checked_too(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 0}))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("command,config", [
        ("solve-torus", {"t": [float("nan")]}),
        ("solve-torus", {"k": float("nan")}),
        ("compare", {"t": [0.1, float("inf")]}),
        ("compare", {"samples": float("nan")}),
        ("solve-line", {"t": 0.5}),
        ("solve-line", {"t": [float("nan")]}),
        ("solve-line", {"tail_tol": float("nan")}),
        ("solve-line", {"xmax": float("nan")}),
        ("solve-line", {"nx": float("inf")}),
        ("validate", {"n": float("nan")}),
        ("solve-torus", {"n": 16.7}),
        ("solve-torus", {"n": 16, "samples": 64, "k": 2.5}),
        ("solve-torus", {"n": 16, "samples": 64.5}),
        ("solve-line", {"nx": 5.5}),
        ("compare", {"n_list": [16.5]}),
        ("validate", {"n": 8.2}),
        ("solve-torus", {"n": 16, "samples": 64, "dump_operators": "no"}),
        ("solve-line", {"nx": 3, "eps_refine": "false"}),
        ("solve-torus", {"n": True, "samples": 64}),
        ("compare", {"n_list": [16], "samples": 64, "t": [True]}),
    ], ids=["torus-t-nan", "torus-k-nan", "compare-t-inf", "compare-samples-nan", "line-t-scalar",
            "line-t-nan", "line-tail-tol-nan", "line-xmax-nan", "line-nx-inf", "validate-n-nan",
            "torus-n-fractional", "torus-k-fractional", "torus-samples-fractional",
            "line-nx-fractional", "compare-n-list-fractional", "validate-n-fractional",
            "torus-dump-operators-string", "line-eps-refine-string", "torus-n-boolean",
            "compare-t-boolean"])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, command, config):
        # JSON config files can hold NaN, Infinity and fractional counts,
        # which no flag parser sees
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_integral_float_count_accepted(self, tmp_path, source):
        # one check for both: 16.0 is the count 16 from a flag or a config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16.0} if source == "config" else {}))
        argv = ["--n", "16.0"] if source == "flag" else []
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", str(cfg), *argv, "--samples", "64",
                     "--t", "0.1", "--out", str(out)]) == 0
        n = json.loads((out / "manifest.json").read_text())["config"]["n"]
        assert n == 16 and isinstance(n, int)


def test_cli_import_loads_no_scipy_fft():
    # boeq's FFT lengths come from spectral.next_fast_len; scipy.fft would
    # add its import time to every command
    code = "import sys, boeq.cli; sys.exit('scipy.fft' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_console_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["boeq"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
