"""Stable on-disk formats: coefficient JSON, sample/spectrum CSV, manifests.

All writers are deterministic (sorted keys, repr floats, no timestamps in
payload files), so an identical configuration reproduces identical bytes
on the same numpy/BLAS build with the same BLAS thread count; the run
manifest carries wall time and checksums of everything else.  Every CSV
writer formats its rows through one block formatter.  The writers write
into the directory they are given; the command line's ``main`` stages
that directory and commits it as the run's output.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import IngestionError
from .spectral import TorusField

__all__ = [
    "write_field_json",
    "write_coeff_csv",
    "write_solution_json",
    "write_samples_csv",
    "read_samples_csv",
    "write_spectrum_csv",
    "write_scan_csv",
    "write_matrix_csv",
    "write_trajectory",
    "write_json",
    "sha256_of",
    "write_manifest",
]


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, complex)]


def write_json(path: Path, payload: dict[str, Any]):
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_field_json(path: Path, field: TorusField):
    """{"max_mode": N, "coeffs": [[re, im], ...]} for k = -N..N in order."""
    write_json(Path(path), {"max_mode": field.max_mode, "coeffs": _pairs(field.coeffs)})


# rows formatted per write: bounds the Python floats and lines held at once
_ROWS_PER_WRITE = 256


def _write_columns(path: Path, header: Sequence[str], *columns: np.ndarray):
    """A CSV of the header, if any, and one row per entry of the columns,
    each field the repr of the entry as a Python int or float: the bytes
    ``csv.writer`` writes for them (no such repr needs quoting; lines end in
    CR LF)."""
    with Path(path).open("w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), _ROWS_PER_WRITE):
            block = zip(*(col[i:i + _ROWS_PER_WRITE].tolist() for col in columns))
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in block]))


def write_coeff_csv(path: Path, coeffs: np.ndarray):
    c = np.asarray(coeffs, complex)
    _write_columns(path, ["k", "re", "im"], np.arange(c.size), c.real, c.imag)


def write_solution_json(path: Path, t: float, coeffs: np.ndarray, mean: float):
    write_json(Path(path), {"t": t, "coeffs": _pairs(coeffs), "mean": mean})


def write_samples_csv(path: Path, x: np.ndarray, u: np.ndarray):
    _write_columns(path, ["x", "u"], np.asarray(x, float), np.asarray(u, float))


def read_samples_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """x and u columns of an 'x,u' CSV; a missing, unreadable or malformed
    file raises :class:`IngestionError`."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read samples {path}: {exc}") from exc
    xs: list[float] = []
    us: list[float] = []
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["x", "u"]:
        raise IngestionError(f"{path}: expected 'x,u' header")
    for row in reader:
        if not row:
            continue
        try:
            xs.append(float(row[0]))
            us.append(float(row[1]))
        except (IndexError, ValueError) as exc:
            raise IngestionError(f"{path}: malformed row {row!r}") from exc
    return np.asarray(xs), np.asarray(us)


def write_spectrum_csv(path: Path, xi: np.ndarray, values: np.ndarray):
    v = np.asarray(values, complex)
    _write_columns(path, ["xi", "re", "im"], np.asarray(xi, float), v.real, v.imag)


def write_scan_csv(path: Path, rows: Iterable):
    """Rows of (z, value-or-None, error-or-None) as re_z,im_z,re_val,im_val;
    a failed point's value is written as nan, nan."""
    rows = list(rows)
    z = np.array([complex(row.z) for row in rows], dtype=complex)
    failed = complex(np.nan, np.nan)
    v = np.array([failed if row.value is None else complex(row.value) for row in rows],
                 dtype=complex)
    _write_columns(path, ["re_z", "im_z", "re_val", "im_val"], z.real, z.imag, v.real, v.imag)


def write_matrix_csv(path: Path, matrix: np.ndarray):
    """Row-major re,im pairs, one matrix row per CSV row."""
    pairs = np.ascontiguousarray(matrix, complex).view(np.float64)
    _write_columns(path, (), *pairs.T)


def write_trajectory(outdir: Path, times: Sequence[float], sample_sets: Sequence[np.ndarray], x: np.ndarray) -> list[str]:
    """One samples CSV per snapshot plus an index JSON naming them."""
    outdir = Path(outdir)
    files = []
    for i, (t, u) in enumerate(zip(times, sample_sets)):
        name = f"snapshot_{i:04d}.csv"
        write_samples_csv(outdir / name, x, u)
        files.append(name)
    write_json(outdir / "trajectory.json", {"times": [float(t) for t in times], "files": files})
    return files + ["trajectory.json"]


# bytes read per block by sha256_of, so a checksum never holds a whole output
_HASH_BLOCK = 1 << 16


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    block = memoryview(bytearray(_HASH_BLOCK))
    with Path(path).open("rb") as fh:
        while size := fh.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()


def write_manifest(
    outdir: Path,
    command: str,
    config: dict[str, Any],
    wall_time_s: float,
    warnings_seen: Sequence[str],
    version: str,
):
    """manifest.json naming and checksumming every other file in outdir."""
    outdir = Path(outdir)
    outputs = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        outputs[p.name] = sha256_of(p)
    write_json(outdir / "manifest.json", {
        "command": command,
        "config": config,
        "version": version,
        "wall_time_s": wall_time_s,
        "outputs": outputs,
        "warnings": list(warnings_seen),
        "schema": 1,
    })
