"""Command-line front end.

Subcommands: ``solve-torus``, ``solve-line``, ``validate``, ``compare``.
Every run writes its outputs plus a ``manifest.json`` echoing the resolved
configuration and checksumming the other files.  Exit codes: 0 success,
1 validation failure, 2 usage/configuration error, 3 numerical failure.

A JSON config document (``--config``) supplies defaults; explicit CLI flags
override its keys.  ``BOX_THREADS`` caps worker parallelism.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .checks import default_suite, formula_vs_solver_times, march_times
from .errors import BoeqError, ConfigurationError, IngestionError
from .fileio import (
    read_samples_csv,
    write_coeff_csv,
    write_field_json,
    write_json,
    write_manifest,
    write_matrix_csv,
    write_samples_csv,
    write_scan_csv,
    write_solution_json,
    write_spectrum_csv,
    write_trajectory,
)
from .line_operators import LineField, LineGrid
from .line_solution import reconstruct_line, uhp_grid_scan
from .presets import line_preset, parse_preset, torus_preset
from .spectral import TWO_PI, HardyTorusVector, project_hardy, synthesize_torus
from .timestepper import evolve  # noqa: F401  (traced here by perfbench/spans.py)
from .torus_operators import b_matrix, lax_matrix
from .torus_solution import evolve_coefficients, propagator


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"expected comma-separated integers, got {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    return data


def _resolve(args: argparse.Namespace, keys: dict[str, object]) -> dict:
    """Merge defaults <- config file <- explicitly passed flags."""
    cfg = dict(keys)
    cfg.update({k: v for k, v in _load_config(args.config).items() if k in keys})
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _torus_field(cfg: dict):
    name, params = parse_preset(str(cfg["preset"]))
    n = int(cfg["n"])
    if name == "file":
        raise ConfigurationError("use datum=PATH with preset 'csv' for file input")
    if name == "csv":
        from .spectral import field_from_samples

        x, u = read_samples_csv(Path(str(cfg["datum"])))
        return field_from_samples(u, max_mode=n)
    return torus_preset(name, n, **params)


def _grid_samples(n_samples: int) -> np.ndarray:
    return TWO_PI * np.arange(n_samples) / n_samples


def cmd_solve_torus(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "preset": "cos", "datum": "", "n": 128, "dt": 2e-4, "t": [0.5],
        "method": "explicit", "k": None, "samples": 512, "out": "boeq-out",
    })
    if isinstance(cfg["t"], str):
        cfg["t"] = _parse_floats(cfg["t"])
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)
    u0 = _torus_field(cfg)
    n = int(cfg["n"])
    n_samples = int(cfg["samples"])
    if n_samples < 2 * n + 2:
        raise ConfigurationError(
            f"samples = {n_samples} cannot resolve {n} modes; need at least {2 * n + 2}"
        )
    x = _grid_samples(n_samples)
    times = [float(t) for t in cfg["t"]]
    method = str(cfg["method"])
    if method not in ("explicit", "spectral", "both"):
        raise ConfigurationError(f"unknown method {method!r}")

    write_field_json(outdir / "initial_field.json", u0)
    if args.dump_operators:
        write_matrix_csv(outdir / "lax_matrix.csv", lax_matrix(u0, n).entries)
        write_matrix_csv(outdir / "b_matrix.csv", b_matrix(u0, n).entries)

    diffs = []
    if method in ("spectral", "both"):
        if any(t < 0 for t in times):
            raise ConfigurationError("times must be non-negative")
        spectral_fields = march_times(u0, times, float(cfg["dt"]), n)
        samples_sets = [
            synthesize_torus(project_hardy(f), float(f.coeff(0).real), n_samples)
            for f in (spectral_fields[t] for t in times)
        ]
        write_trajectory(outdir, times, samples_sets, x)

    for i, t in enumerate(times):
        tag = f"t{i:02d}"
        if method in ("explicit", "both"):
            prop = propagator(u0, t, n)
            k = int(cfg["k"]) if cfg["k"] is not None else None
            coeffs = evolve_coefficients(prop, k)
            write_solution_json(outdir / f"coeffs_{tag}.json", t, coeffs, prop.mean)
            write_coeff_csv(outdir / f"coeffs_{tag}.csv", coeffs)
            u_exp = synthesize_torus(HardyTorusVector(coeffs), prop.mean, n_samples)
            write_samples_csv(outdir / f"solution_{tag}.csv", x, u_exp)
        if method == "spectral":
            f = spectral_fields[t]
            mean = float(f.coeff(0).real)
            coeffs_sp = np.array([f.coeff(kk) for kk in range(n // 2 + 1)])
            write_solution_json(outdir / f"coeffs_{tag}.json", t, coeffs_sp, mean)
            write_coeff_csv(outdir / f"coeffs_{tag}.csv", coeffs_sp)
            u_sp = synthesize_torus(project_hardy(f), mean, n_samples)
            write_samples_csv(outdir / f"solution_{tag}.csv", x, u_sp)
        if method == "both":
            f = spectral_fields[t]
            u_ref = synthesize_torus(project_hardy(f), float(f.coeff(0).real), n_samples)
            rel = float(np.linalg.norm(u_exp - u_ref) / max(np.linalg.norm(u_ref), 1e-300))
            diffs.append({"t": t, "rel_l2": rel})
    if diffs:
        write_json(outdir / "diff_report.json", {"diffs": diffs, "n": n, "dt": float(cfg["dt"])})
    return 0


def cmd_solve_line(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "preset": "lorentzian:c=1", "datum": "", "t": [0.0], "eps": 1e-3,
        "cutoff": 40.0, "h": 0.02, "xmin": -8.0, "xmax": 8.0, "nx": 161,
        "eps_refine": False, "scan": "", "tail_tol": 1e-10, "out": "boeq-out",
    })
    if isinstance(cfg["t"], str):
        cfg["t"] = _parse_floats(cfg["t"])
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)
    grid = LineGrid(float(cfg["cutoff"]), float(cfg["h"]))

    name, params = parse_preset(str(cfg["preset"]))
    if name == "csv":
        xs, us = read_samples_csv(Path(str(cfg["datum"])))
        field = LineField.from_samples(xs, us)
    else:
        field = line_preset(name, **params).field

    hardy = field.hardy(grid)
    write_spectrum_csv(outdir / "initial_spectrum.csv", hardy.xi, hardy.values)
    x = np.linspace(float(cfg["xmin"]), float(cfg["xmax"]), int(cfg["nx"]))
    for i, t in enumerate([float(t) for t in cfg["t"]]):
        u = reconstruct_line(field, t, x, eps=float(cfg["eps"]), grid=grid,
                             eps_refine=bool(cfg["eps_refine"]),
                             tail_tol=float(cfg["tail_tol"]))
        write_samples_csv(outdir / f"solution_t{i:02d}.csv", x, u)
    if cfg["scan"]:
        parts = _parse_floats(str(cfg["scan"]))
        if len(parts) != 6:
            raise ConfigurationError("--scan needs re0,re1,nre,im0,im1,nim")
        re_axis = np.linspace(parts[0], parts[1], int(parts[2]))
        im_axis = np.linspace(parts[3], parts[4], int(parts[5]))
        rows = uhp_grid_scan(field, float(cfg["t"][0]), re_axis, im_axis, grid,
                             tail_tol=float(cfg["tail_tol"]))
        write_scan_csv(outdir / "uhp_scan.csv", rows)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {"only": "", "n": 64, "out": "boeq-out"})
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)
    reports = default_suite(torus_n=int(cfg["n"]))
    if cfg["only"]:
        needle = str(cfg["only"]).lower()
        reports = [r for r in reports if needle in r.name.lower()]
        if not reports:
            raise ConfigurationError(f"no check matches --only {cfg['only']!r}")
    payload = [r.to_dict() for r in reports]
    write_json(outdir / "validation_report.json", {"reports": payload})
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  residual {r.residual:10.3e}  tol {r.tolerance:9.3e}  {status}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {
        "preset": "cos", "t": [0.1, 0.5, 1.0], "n_list": [128], "dt": 2e-4,
        "samples": 512, "out": "boeq-out",
    })
    if isinstance(cfg["t"], str):
        cfg["t"] = _parse_floats(cfg["t"])
    if isinstance(cfg["n_list"], str):
        cfg["n_list"] = _parse_ints(cfg["n_list"])
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)

    name, params = parse_preset(str(cfg["preset"]))
    times = [float(v) for v in cfg["t"]]
    dt = float(cfg["dt"])
    rows = []
    for n in [int(v) for v in cfg["n_list"]]:
        u0 = torus_preset(name, n, **params)
        rels = formula_vs_solver_times(u0, times, n, dt, int(cfg["samples"]))
        rows += [(t, n, dt, rel) for t, rel in zip(times, rels)]
    with (outdir / "compare.csv").open("w", newline="") as fh:
        fh.write("t,n,dt,rel_l2\n")
        for t, n, dt, rel in rows:
            fh.write(f"{t!r},{n},{dt!r},{rel!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="boeq", description=__doc__)
    p.add_argument("--version", action="version", version=f"boeq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config document; flags override", default=None)
        sp.add_argument("--out", help="output directory", default=None)

    sp = sub.add_parser("solve-torus", help="solution on the torus at given times")
    common(sp)
    sp.add_argument("--preset", default=None)
    sp.add_argument("--datum", default=None, help="CSV x,u samples for preset 'csv'")
    sp.add_argument("--n", type=int, default=None, help="truncation (max mode)")
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t", type=str, default=None, help="comma-separated times")
    sp.add_argument("--method", choices=["explicit", "spectral", "both"], default=None)
    sp.add_argument("--k", type=int, default=None, help="coefficient count (default N/2)")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--dump-operators", action="store_true")
    sp.set_defaults(fn=cmd_solve_torus)

    sp = sub.add_parser("solve-line", help="solution on the line at given times")
    common(sp)
    sp.add_argument("--preset", default=None)
    sp.add_argument("--datum", default=None)
    sp.add_argument("--t", type=str, default=None)
    sp.add_argument("--eps", type=float, default=None, help="evaluation height")
    sp.add_argument("--eps-refine", action="store_const", const=True, default=None,
                    help="two-height Richardson in eps")
    sp.add_argument("--cutoff", type=float, default=None)
    sp.add_argument("--h", type=float, default=None)
    sp.add_argument("--xmin", type=float, default=None)
    sp.add_argument("--xmax", type=float, default=None)
    sp.add_argument("--nx", type=int, default=None)
    sp.add_argument("--scan", type=str, default=None,
                    help="re0,re1,nre,im0,im1,nim; write --scan=-2,... when re0 is negative")
    sp.add_argument("--tail-tol", type=float, default=None,
                    help="spectral tail tolerance at the cutoff (default 1e-10)")
    sp.set_defaults(fn=cmd_solve_line)

    sp = sub.add_parser("validate", help="run the identity/conservation suite")
    common(sp)
    sp.add_argument("--only", default=None, help="substring filter on check names")
    sp.add_argument("--n", type=int, default=None,
                    help="truncation for the finite-section checks (default 64)")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("compare", help="explicit-vs-spectral diffs over (t, N)")
    common(sp)
    sp.add_argument("--preset", default=None)
    sp.add_argument("--t", type=str, default=None)
    sp.add_argument("--n-list", type=str, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_compare)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    caught: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = args.fn(args)
            caught = [str(w.message) for w in seen]
    except (ConfigurationError, IngestionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BoeqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    outdir = getattr(args, "out", None)
    cfg_echo = {
        k: v for k, v in vars(args).items()
        if k not in ("fn", "config") and v is not None
    }
    if outdir is None:
        outdir = "boeq-out"
    if Path(outdir).is_dir():
        write_manifest(
            Path(outdir),
            command=args.command,
            config=cfg_echo,
            wall_time_s=time.perf_counter() - start,
            warnings_seen=caught,
            version=__version__,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
