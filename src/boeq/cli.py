"""Command-line front end.

Subcommands: ``solve-torus``, ``solve-line``, ``validate``, ``compare``.
Every run writes its outputs plus a ``manifest.json`` echoing the resolved
configuration and checksumming the other files.  Exit codes: 0 success,
1 validation failure, 2 usage/configuration error, 3 numerical failure.

A JSON config document (``--config``) supplies defaults; explicit CLI flags
override its keys, and a key the subcommand does not take exits 2.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, line_solution
from .checks import default_suite, formula_vs_solver
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
from .line_operators import LineField, LineGrid, check_tail
from .line_solution import reconstruct_line, uhp_grid_scan
from .presets import line_preset, parse_preset, torus_preset
from .spectral import TWO_PI, HardyTorusVector, project_hardy, synthesize_torus
from .timestepper import evolve, march  # noqa: F401  (evolve: traced here by perfbench/spans.py)
from .torus_operators import b_matrix, check_dense_budget, lax_matrix
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
    """Merge defaults <- config file <- explicitly passed flags.

    A config-file key the subcommand does not take is a configuration error,
    so a misspelt key cannot fall back to its default unnoticed.
    """
    cfg = dict(keys)
    loaded = _load_config(args.config)
    unknown = sorted(k for k in loaded if k not in keys)
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) for {args.command}: {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(keys)}"
        )
    cfg.update(loaded)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _finite(value, name: str) -> float:
    """``value`` as a float; a non-number or non-finite value exits 2."""
    try:
        val = float(value)
    except (TypeError, ValueError):
        val = math.nan
    if not math.isfinite(val):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return val


def _positive(cfg: dict, key: str) -> float:
    """``cfg[key]`` as a float; a non-positive or non-finite value exits 2."""
    val = _finite(cfg[key], key)
    if val <= 0:
        raise ConfigurationError(f"{key} must be a positive number, got {cfg[key]!r}")
    return val


def _integer(value, name: str) -> int:
    """``value`` as an int; a non-integral or non-finite value exits 2."""
    val = _finite(value, name)
    if val != round(val):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(val)


def _count(value, name: str) -> int:
    """``value`` as an int; a count below 1 or a non-integer exits 2."""
    n = _integer(value, name)
    if n < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {value!r}")
    return n


def _times(cfg: dict) -> list[float]:
    """``cfg["t"]``, a list or a comma-separated string, as finite floats.

    Checked after the merge: a JSON config file can hold NaN and Infinity.
    """
    raw = _parse_floats(cfg["t"]) if isinstance(cfg["t"], str) else cfg["t"]
    if not isinstance(raw, list):
        raise ConfigurationError(f"t must be a list of times, got {raw!r}")
    return [_finite(v, "each time") for v in raw]


def _scan_axes(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """The axes of a ``re0,re1,nre,im0,im1,nim`` scan; a bad spec exits 2."""
    parts = [_finite(v, "each --scan value") for v in _parse_floats(spec)]
    if len(parts) != 6:
        raise ConfigurationError("--scan needs re0,re1,nre,im0,im1,nim")
    return (np.linspace(parts[0], parts[1], _count(parts[2], "--scan nre")),
            np.linspace(parts[3], parts[4], _count(parts[5], "--scan nim")))


def _read_datum(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """The x, u samples of preset 'csv'; a missing or unreadable datum exits 2."""
    if not cfg["datum"]:
        raise IngestionError("preset 'csv' needs --datum PATH")
    return read_samples_csv(Path(str(cfg["datum"])))


def _torus_field(cfg: dict, n: int):
    name, params = parse_preset(str(cfg["preset"]))
    if name == "file":
        raise ConfigurationError("use datum=PATH with preset 'csv' for file input")
    if name == "csv":
        from .spectral import field_from_samples, uniform_spacing

        x, u = _read_datum(cfg)
        uniform_spacing(x)  # u must be samples on a uniform, increasing grid
        return field_from_samples(u, max_mode=n)
    return torus_preset(name, n, **params)


def _grid_samples(n_samples: int) -> np.ndarray:
    return TWO_PI * np.arange(n_samples) / n_samples


def cmd_solve_torus(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _resolve(args, {
        "preset": "cos", "datum": "", "n": 128, "dt": 2e-4, "t": [0.5],
        "method": "explicit", "k": None, "samples": 512, "dump_operators": False,
        "out": "boeq-out",
    })
    times = _times(cfg)
    n = _count(cfg["n"], "truncation n")
    dt = _positive(cfg, "dt")
    k = None if cfg["k"] is None else _integer(cfg["k"], "k")
    if k is not None and not 0 <= k <= n:
        raise ConfigurationError(f"coefficient count k = {k} must lie in [0, n = {n}]")
    check_dense_budget(n)
    n_samples = _count(cfg["samples"], "samples")
    if n_samples < 2 * n + 2:
        raise ConfigurationError(
            f"samples = {n_samples} cannot resolve {n} modes; need at least {2 * n + 2}"
        )
    method = str(cfg["method"])
    if method not in ("explicit", "spectral", "both"):
        raise ConfigurationError(f"unknown method {method!r}")
    if method != "explicit" and any(t < 0 for t in times):
        raise ConfigurationError("times must be non-negative")
    u0 = _torus_field(cfg, n)
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)
    x = _grid_samples(n_samples)

    write_field_json(outdir / "initial_field.json", u0)
    if cfg["dump_operators"]:
        write_matrix_csv(outdir / "lax_matrix.csv", lax_matrix(u0, n).entries)
        write_matrix_csv(outdir / "b_matrix.csv", b_matrix(u0, n).entries)

    diffs = []
    if method != "explicit":
        spectral_fields = march([u0], times, dt)[0]
        # synthesized once: the trajectory, solution_*.csv and u_ref read these
        samples_sets = [
            synthesize_torus(project_hardy(f), float(f.coeff(0).real), n_samples)
            for f in (spectral_fields[t] for t in times)
        ]
        write_trajectory(outdir, times, samples_sets, x)

    for i, t in enumerate(times):
        tag = f"t{i:02d}"
        if method in ("explicit", "both"):
            prop = propagator(u0, t, n)
            coeffs = evolve_coefficients(prop, k)
            write_solution_json(outdir / f"coeffs_{tag}.json", t, coeffs, prop.mean)
            write_coeff_csv(outdir / f"coeffs_{tag}.csv", coeffs)
            u_exp = synthesize_torus(HardyTorusVector(coeffs), prop.mean, n_samples)
            write_samples_csv(outdir / f"solution_{tag}.csv", x, u_exp)
        if method == "spectral":
            f = spectral_fields[t]
            mean = float(f.coeff(0).real)
            top = n // 2 if k is None else k  # the explicit method's K
            coeffs_sp = f.coeffs[f.max_mode:f.max_mode + top + 1]
            write_solution_json(outdir / f"coeffs_{tag}.json", t, coeffs_sp, mean)
            write_coeff_csv(outdir / f"coeffs_{tag}.csv", coeffs_sp)
            write_samples_csv(outdir / f"solution_{tag}.csv", x, samples_sets[i])
        if method == "both":
            u_ref = samples_sets[i]
            rel = float(np.linalg.norm(u_exp - u_ref) / max(np.linalg.norm(u_ref), 1e-300))
            diffs.append({"t": t, "rel_l2": rel})
    if diffs:
        write_json(outdir / "diff_report.json", {"diffs": diffs, "n": n, "dt": dt})
    return 0, cfg


def cmd_solve_line(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _resolve(args, {
        "preset": "lorentzian:c=1", "datum": "", "t": [0.0], "eps": 1e-3,
        "cutoff": 40.0, "h": 0.02, "xmin": -8.0, "xmax": 8.0, "nx": 161,
        "eps_refine": False, "scan": "", "tail_tol": 1e-10, "out": "boeq-out",
    })
    times = _times(cfg)
    if cfg["scan"] and not times:
        raise ConfigurationError("--scan runs at the first time of --t; give at least one")
    scan_axes = _scan_axes(str(cfg["scan"])) if cfg["scan"] else None
    eps = _positive(cfg, "eps")
    nx = _count(cfg["nx"], "nx")
    x = np.linspace(_finite(cfg["xmin"], "xmin"), _finite(cfg["xmax"], "xmax"), nx)
    tail_tol = _positive(cfg, "tail_tol")
    try:
        grid = LineGrid(_positive(cfg, "cutoff"), _positive(cfg, "h"))
    except ValueError as exc:  # too few nodes
        raise ConfigurationError(str(exc)) from exc
    name, params = parse_preset(str(cfg["preset"]))
    if name == "csv":
        field = LineField.from_samples(*_read_datum(cfg))
    else:
        field = line_preset(name, **params).field
    hardy = field.hardy(grid)  # the one evaluation of the datum's transform
    check_tail(hardy, tail_tol)  # before anything is written
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)

    write_spectrum_csv(outdir / "initial_spectrum.csv", grid.xi, hardy.values)
    for i, t in enumerate(times):
        # one operator per time, from the one sampling, serves its samples and
        # its scan; looked up at call time, so a subclass installed on the
        # module builds it
        evaluator = line_solution.ResolventEvaluator(hardy, t, tail_tol=tail_tol)
        u = reconstruct_line(evaluator, x, eps=eps, eps_refine=bool(cfg["eps_refine"]))
        write_samples_csv(outdir / f"solution_t{i:02d}.csv", x, u)
        if i == 0 and scan_axes is not None:
            write_scan_csv(outdir / "uhp_scan.csv", uhp_grid_scan(evaluator, *scan_axes))
        del evaluator  # released before the next time's operator is built
    return 0, cfg


def cmd_validate(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _resolve(args, {"only": "", "n": 64, "out": "boeq-out"})
    n = _count(cfg["n"], "truncation n")
    check_dense_budget(n)
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)
    reports = default_suite(torus_n=n)
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
    return (1 if failed else 0), cfg


def cmd_compare(args: argparse.Namespace) -> tuple[int, dict]:
    cfg = _resolve(args, {
        "preset": "cos", "t": [0.1, 0.5, 1.0], "n_list": [128], "dt": 2e-4,
        "samples": 512, "out": "boeq-out",
    })
    times = _times(cfg)
    if isinstance(cfg["n_list"], str):
        cfg["n_list"] = _parse_ints(cfg["n_list"])
    dt = _positive(cfg, "dt")
    n_list = [_count(v, "truncation n") for v in cfg["n_list"]]
    if n_list:
        check_dense_budget(max(n_list))
    n_samples = _count(cfg["samples"], "samples")
    if n_list and n_samples < 2 * max(n_list) + 1:
        raise ConfigurationError(
            f"samples = {n_samples} cannot resolve {max(n_list)} modes; "
            f"need at least {2 * max(n_list) + 1}"
        )
    outdir = Path(str(cfg["out"]))
    outdir.mkdir(parents=True, exist_ok=True)

    name, params = parse_preset(str(cfg["preset"]))
    # every truncation in one stacked march, one row of the stack per n
    table = formula_vs_solver([torus_preset(name, n, **params) for n in n_list],
                              times, dt, n_samples)
    rows = [(t, n, dt, rel) for n, rels in zip(n_list, table) for t, rel in zip(times, rels)]
    with (outdir / "compare.csv").open("w", newline="") as fh:
        fh.write("t,n,dt,rel_l2\n")
        for t, n, dt, rel in rows:
            fh.write(f"{t!r},{n},{dt!r},{rel!r}\n")
    return 0, cfg


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
    sp.add_argument("--dump-operators", action="store_const", const=True, default=None)
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
            code, cfg = args.fn(args)
            caught = [str(w.message) for w in seen]
    except (ConfigurationError, IngestionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BoeqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    outdir = Path(str(cfg["out"]))
    if outdir.is_dir():
        write_manifest(
            outdir,
            command=args.command,
            config=cfg,
            wall_time_s=time.perf_counter() - start,
            warnings_seen=caught,
            version=__version__,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
