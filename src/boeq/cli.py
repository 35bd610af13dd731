"""Command-line front end.

Subcommands: ``solve-torus``, ``solve-line``, ``validate``, ``compare``.
Every run writes its outputs plus a ``manifest.json`` echoing the checked
configuration and checksumming the other files.  Exit codes: 0 success,
1 validation failure, 2 usage/configuration error, 3 numerical failure.

Output is all or nothing: a command writes into a staging directory that
``main`` makes beside ``out``, and ``main`` adds the manifest and renames it
to ``out`` on exit 0 or 1, or removes it otherwise (see ``_check_out`` for
the ``out`` that may be replaced), also on SIGTERM, after which the process
still ends by that signal.

Every option is a flag ``--key-name`` and a key ``key_name`` of the JSON
config document given by ``--config``; a config key the subcommand does not
take exits 2.  Values merge defaults <- config file <- flags, and each then
passes its option's one check, wherever it came from.  Each option is
declared once, as a row of ``OPTIONS``; checks that involve several options
stay in the commands.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, line_solution
from .checks import SUITE_NAMES, SUITE_PEAK_ARRAYS, default_suite, formula_vs_solver, relative_l2
from .errors import BoeqError, ConfigurationError, IngestionError, TruncationWarning
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
from .line_operators import (
    LINE_POINT_BYTES,
    SCAN_POINT_BYTES,
    LineField,
    LineGrid,
    check_tail,
)
from .line_solution import reconstruct_line, uhp_grid_scan
from .presets import line_preset, parse_preset, torus_preset
from .spectral import TORUS_SAMPLE_BYTES, TWO_PI, check_memory, field_from_samples
from .spectral import synthesize_torus, uniform_spacing
from .timestepper import Run, dealias_cut, march_runs
from .timestepper import evolve  # noqa: F401  (traced here by perfbench/spans.py)
from .torus_operators import b_matrix, check_dense_budget, lax_matrix
from .torus_solution import evolve_coefficients, propagator


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


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- explicitly passed flags, and check
    every value by its option's row, wherever it came from.

    A config-file key the subcommand does not take is a configuration error,
    so a misspelt key cannot fall back to its default unnoticed.
    """
    options = OPTIONS[args.command][2]
    loaded = _load_config(args.config)
    keys = [opt.key for opt in options]
    unknown = sorted(k for k in loaded if k not in keys)
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) for {args.command}: {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(keys)}"
        )
    cfg = {}
    for opt in options:
        flag = getattr(args, opt.key)
        cfg[opt.key] = opt.check(loaded.get(opt.key, opt.default) if flag is None else flag,
                                 opt.key)
    return cfg


# Each check takes a value, a string from a flag or any JSON value from a
# config file, and the key to name; it returns the checked value or raises
# ConfigurationError.

def _finite(value, name: str) -> float:
    """``value`` as a float; a non-number (JSON true and false included) or
    non-finite value exits 2."""
    try:
        val = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        val = math.nan
    if not math.isfinite(val):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return val


def _positive(value, name: str) -> float:
    """``value`` as a float; a non-positive or non-finite value exits 2."""
    val = _finite(value, name)
    if val <= 0:
        raise ConfigurationError(f"{name} must be a positive number, got {value!r}")
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


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


def _switch(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def _optional(check):
    return lambda value, name: None if value is None else check(value, name)


def _one_of(*choices: str):
    def check(value, name: str) -> str:
        if value not in choices:
            raise ConfigurationError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        return value
    return check


def _list_of(check):
    """A check of a non-empty list, or comma-separated string, item by item."""
    def checked(value, name: str) -> list:
        if isinstance(value, str):
            value = [v for v in value.split(",") if v.strip()]
        if not isinstance(value, list):
            raise ConfigurationError(f"{name} must be a list or comma-separated, got {value!r}")
        if not value:
            raise ConfigurationError(f"{name} needs at least one value")
        return [check(v, f"each {name} value") for v in value]
    return checked


def _scan(value, name: str) -> list | None:
    """``re0,re1,nre,im0,im1,nim`` with counts nre, nim, whose Im z axis
    stays above the real axis; None for no scan."""
    if not value:
        return None
    parts = _list_of(_finite)(value, name)
    if len(parts) != 6:
        raise ConfigurationError(f"{name} needs re0,re1,nre,im0,im1,nim, got {value!r}")
    parts[2], parts[5] = _count(parts[2], f"{name} nre"), _count(parts[5], f"{name} nim")
    if parts[3] <= 0 or (parts[5] > 1 and parts[4] <= 0):
        raise ConfigurationError(f"{name} must keep Im z > 0 (im0 > 0, and im1 > 0 when "
                                 f"nim > 1), got {value!r}")
    return parts


def _read_datum(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """The x, u samples of preset 'csv'; a missing or unreadable datum exits 2."""
    if not cfg["datum"]:
        raise IngestionError("preset 'csv' needs --datum PATH")
    return read_samples_csv(Path(cfg["datum"]))


def _torus_field(cfg: dict):
    name, params = parse_preset(cfg["preset"])
    if name == "csv":
        x, u = _read_datum(cfg)
        # u must sample one period on the uniform grid x_j = 2 pi j / len(x)
        dx = uniform_spacing(x)
        tol = 1e-9 * TWO_PI
        if not (abs(x[0]) <= tol and abs(x[-1] + dx - TWO_PI) <= tol):
            raise IngestionError(
                f"x column must sample one period [0, 2pi): x[0] = 0 and "
                f"x[-1] + dx = 2pi, got x[0] = {x[0]:.9g} and x[-1] + dx = {x[-1] + dx:.9g}"
            )
        return field_from_samples(u, max_mode=cfg["n"])
    return torus_preset(name, cfg["n"], **params)


def _grid_samples(n_samples: int) -> np.ndarray:
    """TWO_PI * arange(n) / n bit for bit, formed in place in one array."""
    x = np.arange(n_samples, dtype=np.float64)
    x *= TWO_PI
    x /= n_samples
    return x


def _explicit_results(u0, times, n: int, k: int | None, n_samples: int):
    """(coefficients, samples) of the explicit formula at each time."""
    for t in times:
        coeffs = evolve_coefficients(propagator(u0, t, n), k)
        yield coeffs, synthesize_torus(coeffs, n_samples)


def _spectral_results(u0, times, top: int, dt: float, n_samples: int) -> list:
    """(coefficients 0..top, samples) of the stepper at each time, from one
    march."""
    (at,) = march_runs([Run(u0, times, dt)])
    return [(f.hardy[:top + 1], synthesize_torus(f.hardy, n_samples))
            for f in (at[t] for t in times)]


def cmd_solve_torus(cfg: dict, outdir: Path) -> int:
    times, n, k, dt, n_samples, method = (
        cfg[key] for key in ("t", "n", "k", "dt", "samples", "method"))
    if k is not None and not 0 <= k <= n:
        raise ConfigurationError(f"coefficient count k = {k} must lie in [0, n = {n}]")
    # only the explicit formula and --dump-operators form dense operators
    if method != "spectral" or cfg["dump_operators"]:
        check_dense_budget(n)
    if n_samples < 2 * n + 2:
        raise ConfigurationError(
            f"samples = {n_samples} cannot resolve {n} modes; need at least {2 * n + 2}"
        )
    # sample arrays at the peak: every time's samples (both methods' with
    # --method both), held until they are written, and the x grid or the
    # synthesis in flight; relative_l2 forms its difference block by block
    arrays = len(times) * (2 if method == "both" else 1) + 1
    check_memory(TORUS_SAMPLE_BYTES * n_samples * arrays,
                 f"{n_samples} samples at {len(times)} time(s)", "lower --samples")
    if method != "explicit" and any(t < 0 for t in times):
        raise ConfigurationError("times must be non-negative")
    top = n // 2 if k is None else k  # the explicit method's K
    cut = dealias_cut(n)
    if method == "spectral" and top > cut:
        warnings.warn(
            f"coefficients k = {cut + 1}..{top} lie above the stepper's dealiasing "
            f"cut 2N/3 = {cut} and are written as zeros; use k <= {cut} or "
            "--method explicit",
            TruncationWarning,
            stacklevel=2,
        )
    u0 = _torus_field(cfg)
    spectral = None if method == "explicit" else _spectral_results(u0, times, top, dt, n_samples)
    # a list: writing each time as it is computed raised the peak RSS of an
    # N = 512, three-time run by about 0.2 MiB
    results = (spectral if method == "spectral"
               else list(_explicit_results(u0, times, n, k, n_samples)))
    x = _grid_samples(n_samples)

    write_field_json(outdir / "initial_field.json", u0)
    if cfg["dump_operators"]:
        write_matrix_csv(outdir / "lax_matrix.csv", lax_matrix(u0, n))
        write_matrix_csv(outdir / "b_matrix.csv", b_matrix(u0, n))
    if spectral is not None:
        write_trajectory(outdir, times, [u for _, u in spectral], x)
    diffs = []
    for i, (t, (coeffs, u)) in enumerate(zip(times, results)):
        tag = f"t{i:02d}"
        write_solution_json(outdir / f"coeffs_{tag}.json", t, coeffs)
        write_coeff_csv(outdir / f"coeffs_{tag}.csv", coeffs)
        write_samples_csv(outdir / f"solution_{tag}.csv", x, u)
        if method == "both":
            diffs.append({"t": t, "rel_l2": relative_l2(u, spectral[i][1])})
    if diffs:
        write_json(outdir / "diff_report.json", {"diffs": diffs, "n": n, "dt": dt})
    return 0


def cmd_solve_line(cfg: dict, outdir: Path) -> int:
    times, scan, tail_tol = cfg["t"], cfg["scan"], cfg["tail_tol"]
    nodes = scan[2] * scan[5] if scan else 0
    check_memory(LINE_POINT_BYTES * cfg["nx"] + SCAN_POINT_BYTES * nodes,
                 f"{cfg['nx']} x points and {nodes} scan points", "lower --nx or the --scan counts")
    x = np.linspace(cfg["xmin"], cfg["xmax"], cfg["nx"])
    grid = LineGrid(cfg["cutoff"], cfg["h"])
    name, params = parse_preset(cfg["preset"])
    if name == "csv":
        field = LineField.from_samples(*_read_datum(cfg))
    else:
        field = line_preset(name, **params).field
    hardy = field.hardy(grid)  # the one evaluation of the datum's transform
    check_tail(hardy, tail_tol)
    write_spectrum_csv(outdir / "initial_spectrum.csv", grid.xi, hardy.values)
    for i, t in enumerate(times):
        # one operator per time, from the one sampling, serves its samples and
        # its scan; looked up at call time, so a subclass installed on the
        # module builds it
        evaluator = line_solution.ResolventEvaluator(hardy, t, tail_tol=tail_tol)
        u = reconstruct_line(evaluator, x, eps=cfg["eps"], eps_refine=cfg["eps_refine"])
        write_samples_csv(outdir / f"solution_t{i:02d}.csv", x, u)
        if i == 0 and scan:
            re0, re1, nre, im0, im1, nim = scan
            axes = np.linspace(re0, re1, nre), np.linspace(im0, im1, nim)
            write_scan_csv(outdir / "uhp_scan.csv", uhp_grid_scan(evaluator, *axes))
        del evaluator  # released before the next time's operator is built
    return 0


def cmd_validate(cfg: dict, outdir: Path) -> int:
    check_dense_budget(cfg["n"], SUITE_PEAK_ARRAYS)
    needle = cfg["only"].lower()
    # refused from the suite's names, so a mistyped filter spares the run
    if not any(needle in name.lower() for name in SUITE_NAMES):
        raise ConfigurationError(f"no check matches --only {cfg['only']!r}")
    reports = [r for r in default_suite(torus_n=cfg["n"]) if needle in r.name.lower()]
    payload = [r.to_dict() for r in reports]
    write_json(outdir / "validation_report.json", {"reports": payload})
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  residual {r.residual:10.3e}  tol {r.tolerance:9.3e}  {status}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def cmd_compare(cfg: dict, outdir: Path) -> int:
    times, n_list, dt, n_samples = (cfg[key] for key in ("t", "n_list", "dt", "samples"))
    if n_list:
        check_dense_budget(max(n_list))
        if n_samples < 2 * max(n_list) + 1:
            raise ConfigurationError(f"samples = {n_samples} cannot resolve {max(n_list)} "
                                     f"modes; need at least {2 * max(n_list) + 1}")
        # each distance holds the formula's and the stepper's samples;
        # relative_l2 forms their difference block by block
        check_memory(TORUS_SAMPLE_BYTES * n_samples * 2, f"{n_samples} samples",
                     "lower --samples")
    name, params = parse_preset(cfg["preset"])
    # every truncation in one stacked march, one row of the stack per n
    table = formula_vs_solver([torus_preset(name, n, **params) for n in n_list],
                              times, dt, n_samples)
    rows = [(t, n, dt, rel) for n, rels in zip(n_list, table) for t, rel in zip(times, rels)]
    with (outdir / "compare.csv").open("w", newline="") as fh:
        fh.write("t,n,dt,rel_l2\n")
        for t, n, dt, rel in rows:
            fh.write(f"{t!r},{n},{dt!r},{rel!r}\n")
    return 0


class Option(NamedTuple):
    """One option: config key (flag ``--key``, ``-`` for ``_``), default,
    check and help.  An option whose default is False is a switch."""

    key: str
    default: object
    check: Callable[[object, str], object]
    help: str | None = None


OUT = Option("out", "boeq-out", _text, "output directory; replaces an earlier run there")

# subcommand -> (help line, command, options)
OPTIONS: dict[str, tuple[str, Callable[[dict, Path], int], tuple[Option, ...]]] = {
    "solve-torus": ("solution on the torus at given times", cmd_solve_torus, (
        Option("preset", "cos", _text, "named datum, or 'csv' with --datum"),
        Option("datum", "", _text, "CSV x,u samples for preset 'csv'"),
        Option("n", 128, _count, "truncation (max mode)"),
        Option("dt", 2e-4, _positive, "time step of the spectral method"),
        Option("t", [0.5], _list_of(_finite), "comma-separated times"),
        Option("method", "explicit", _one_of("explicit", "spectral", "both")),
        Option("k", None, _optional(_integer), "coefficient count (default N/2)"),
        Option("samples", 512, _count, "grid points of the written solution"),
        Option("dump_operators", False, _switch, "write the Lax and B matrices"),
        OUT,
    )),
    "solve-line": ("solution on the line at given times", cmd_solve_line, (
        Option("preset", "lorentzian:c=1", _text, "named datum, or 'csv' with --datum"),
        Option("datum", "", _text, "CSV x,u samples for preset 'csv'"),
        Option("t", [0.0], _list_of(_finite), "comma-separated times"),
        Option("eps", 1e-3, _positive, "evaluation height"),
        Option("cutoff", 40.0, _positive, "frequency cutoff of the line grid"),
        Option("h", 0.02, _positive, "frequency step of the line grid"),
        Option("xmin", -8.0, _finite),
        Option("xmax", 8.0, _finite),
        Option("nx", 161, _count, "number of x samples"),
        Option("eps_refine", False, _switch, "two-height Richardson in eps"),
        Option("scan", None, _scan,
               "re0,re1,nre,im0,im1,nim; write --scan=-2,... when re0 is negative"),
        Option("tail_tol", 1e-10, _positive, "spectral tail tolerance at the cutoff"),
        OUT,
    )),
    "validate": ("run the identity/conservation suite", cmd_validate, (
        Option("only", "", _text, "substring filter on check names"),
        Option("n", 64, _count, "truncation for the finite-section checks"),
        OUT,
    )),
    "compare": ("explicit-vs-spectral diffs over (t, N)", cmd_compare, (
        Option("preset", "cos", _text),
        Option("t", [0.1, 0.5, 1.0], _list_of(_finite), "comma-separated times"),
        Option("n_list", [128], _list_of(_count), "comma-separated truncations"),
        Option("dt", 2e-4, _positive, "time step of the spectral method"),
        Option("samples", 512, _count, "grid points of each compared solution"),
        OUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="boeq", description=__doc__)
    p.add_argument("--version", action="version", version=f"boeq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, _, options) in OPTIONS.items():
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--config", help="JSON config document; flags override")
        for opt in options:
            switch = {"action": "store_const", "const": True} if opt.default is False else {}
            sp.add_argument("--" + opt.key.replace("_", "-"), help=opt.help, **switch)
    return p


def _check_out(out: Path):
    """An existing ``out`` is replaced only when it is an empty directory or
    exactly an earlier run: boeq's ``manifest.json`` and the plain files its
    ``outputs`` name.  Any other exits 2 and is left as it is."""
    if not out.exists():
        return
    try:
        entries = {e.name: e.is_file(follow_symlinks=False) for e in os.scandir(out)}
        manifest = json.loads((out / "manifest.json").read_text()) if entries else {}
        replaceable = not entries or (
            "schema" in manifest and manifest.get("command") in OPTIONS
            and isinstance(manifest.get("outputs"), dict) and all(entries.values())
            and entries.keys() == {"manifest.json", *manifest["outputs"]})
    except (OSError, ValueError, TypeError, AttributeError):
        replaceable = False
    if not replaceable:
        raise ConfigurationError(f"output {out} exists and is neither an empty directory "
                                 "nor an earlier boeq run; it is left as it is")


def _commit(stage: Path, out: Path):
    """Rename ``stage`` to ``out``.  ``out`` is checked again, since the run
    took time; an existing one is moved aside first, put back if the rename
    fails, and removed once the new run is in place."""
    _check_out(out)
    aside = stage.with_name(stage.name + ".old")
    if out.exists():
        out.rename(aside)
    try:
        stage.rename(out)
    except BaseException:
        if aside.exists():
            aside.rename(out)
        raise
    shutil.rmtree(aside, ignore_errors=True)


class _Terminated(BaseException):
    """SIGTERM, raised in main's thread so that main's cleanup runs."""


def _terminate(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # the cleanup runs once, whole
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    """Run one command.  In the main thread a SIGTERM removes the staging
    directory and then ends the process by SIGTERM's default action."""
    args = build_parser().parse_args(argv)
    previous = signal.getsignal(signal.SIGTERM)
    # a handler installed outside Python (None) cannot be put back
    if previous is None or threading.current_thread() is not threading.main_thread():
        return _run(args)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args)
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    stage = made = None
    try:
        cfg = _resolve(args)
        out = Path(cfg["out"]).resolve()
        _check_out(out)
        # the topmost missing parent of out, removed again if nothing is committed
        made = next((p for p in reversed(out.parents) if not p.exists()), None)
        # a new name beside out, on its filesystem, so the commit is a rename;
        # plain mkdir, so the committed directory gets the umask's permissions
        stage = out.with_name(f".{out.name}.staging-{os.urandom(6).hex()}")
        stage.mkdir(parents=True)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = OPTIONS[args.command][1](cfg, stage)
            caught = [str(w.message) for w in seen]
        write_manifest(
            stage,
            command=args.command,
            config=cfg,
            wall_time_s=time.perf_counter() - start,
            warnings_seen=caught,
            version=__version__,
        )
        _commit(stage, out)
        return code
    except (ConfigurationError, IngestionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BoeqError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        if made is not None and not out.exists():
            shutil.rmtree(made, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
