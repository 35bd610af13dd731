"""The benchmark's workloads: seeded inputs and the calls each iteration makes.

Every iteration is one fresh process that runs a whole workload through
boeq's public entry points (``boeq.cli.main`` plus a few API calls).  Sizes
are scaled so an iteration takes a few seconds on two cores; the README next
to this file records what each workload stresses and why.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# torus-multitime
TORUS_N = 512
TORUS_SAMPLES = 2048
TORUS_TIMES = (0.1, 0.5, 1.0)
DISC_T = 1.0
DISC_RADIUS = 0.5
DISC_POINTS = 8

# line workloads: Xi = 16 instead of 40 keeps M = Xi/h + 1 = 801; the
# Lorentzian tail exp(-Xi/c) stays below 1e-6 for c <= 1.1
LINE_CUTOFF = 16.0
LINE_STEP = 0.02
LINE_TAIL_TOL = 1e-6
LINE_T = 0.5
LINE_EPS = 1e-3
RECONSTRUCT_NX = 41
PROBE_NX = 5
PROBE_SCAN = (-2.0, 2.0, 3, 0.5, 1.5, 2)
README_SCAN = (-2.0, 2.0, 21, 0.2, 2.0, 10)
DEFAULT_NX = 161  # solve-line --nx default, used by the t = 0 probe call

# crosscheck
COMPARE_TIMES = (0.1, 0.5, 1.0)
COMPARE_N = (96, 128)
COMPARE_DT = 5e-4

# Each iteration's datum is a point of a fixed corner-and-centre design over
# the parameter box, pulled toward the centre by a seeded jitter of up to
# JITTER of the half-width.  Every run therefore contains the box's corners,
# where the oracle errors peak, so err_ratio does not depend on how close a
# random draw came to them; the jitter gives each iteration its own datum.
JITTER = 0.02


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation or one public API call."""

    label: str
    run: object  # zero-argument callable; CLI ops return the exit code
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ranges: dict  # parameter -> (low, high)

    def params(self, seed: int, iteration: int) -> dict[str, float]:
        """The datum of one iteration; the same (seed, iteration) gives the same datum."""
        names = sorted(self.ranges)
        design = _design(len(names))
        signs = design[iteration % len(design)]
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name), iteration])
        out = {}
        for name, sign in zip(names, signs):
            lo, hi = self.ranges[name]
            centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            u = float(rng.random())
            offset = sign * half * (1.0 - JITTER * u) if sign else half * JITTER * (2.0 * u - 1.0)
            out[name] = round(centre + offset, 12)
        return out


def _design(dims: int) -> list[tuple[int, ...]]:
    """Corner signs, the all-high corner first, then the centre."""
    corners = [tuple(1 - 2 * ((k >> d) & 1) for d in range(dims)) for k in range(2 ** dims)]
    corners.sort(key=lambda c: -sum(c))
    return corners + [(0,) * dims]


WORKLOADS = {
    w.name: w for w in [
        Workload("torus-multitime", {"a": (0.8, 1.2), "b": (0.3, 0.7)}),
        Workload("line-reconstruct", {"c": (0.9, 1.1)}),
        Workload("line-probe", {"c": (0.9, 1.1)}),
        Workload("crosscheck", {"a": (0.8, 1.2), "b": (0.3, 0.7)}),
    ]
}
WORKLOAD_NAMES = list(WORKLOADS)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _scan(spec) -> str:
    # --scan=... because argparse reads a value starting with "-2" as a flag
    return "--scan=" + ",".join(str(v) for v in spec)


def disc_points() -> list[complex]:
    return [DISC_RADIUS * np.exp(2j * np.pi * j / DISC_POINTS) for j in range(DISC_POINTS)]


def line_args(c: float) -> list[str]:
    return ["--preset", f"lorentzian:c={c!r}", "--cutoff", repr(LINE_CUTOFF),
            "--h", repr(LINE_STEP), "--tail-tol", repr(LINE_TAIL_TOL)]


def cli_argv(name: str, p: dict[str, float], outdir) -> list[tuple[str, list[str]]]:
    """(op label, argv) of every CLI call of workload ``name``, in order."""
    if name == "torus-multitime":
        return [("solve-torus", [
            "solve-torus", "--preset", f"twomode:a={p['a']!r},b={p['b']!r}",
            "--n", str(TORUS_N), "--samples", str(TORUS_SAMPLES),
            "--t", _floats(TORUS_TIMES), "--method", "explicit", "--out", str(outdir / "solve-torus")])]
    if name == "line-reconstruct":
        return [("solve-line", [
            "solve-line", *line_args(p["c"]), "--t", repr(LINE_T), "--eps", repr(LINE_EPS),
            "--eps-refine", "--nx", str(RECONSTRUCT_NX), "--out", str(outdir / "solve-line")])]
    if name == "line-probe":
        return [
            ("solve-line-probe", [
                "solve-line", *line_args(p["c"]), "--t", repr(LINE_T), "--eps-refine",
                "--nx", str(PROBE_NX), _scan(PROBE_SCAN), "--out", str(outdir / "solve-line-probe")]),
            ("solve-line-t0", [
                "solve-line", *line_args(p["c"]), "--t", "0", _scan(README_SCAN),
                "--out", str(outdir / "solve-line-t0")]),
        ]
    if name == "crosscheck":
        return [
            ("compare", [
                "compare", "--preset", f"twomode:a={p['a']!r},b={p['b']!r}",
                "--t", _floats(COMPARE_TIMES), "--n-list", ",".join(map(str, COMPARE_N)),
                "--dt", repr(COMPARE_DT), "--out", str(outdir / "compare")]),
            ("validate", ["validate", "--out", str(outdir / "validate")]),
        ]
    raise KeyError(name)


def build_ops(name: str, p: dict[str, float], outdir) -> list[Op]:
    """The iteration's operations, ready to run; needs boeq importable.

    API calls look their function up on the module at call time, so a traced
    run sees the wrapped names.
    """
    import boeq.cli
    import boeq.torus_solution as ts
    from boeq.presets import torus_preset

    ops = [Op(label, lambda argv=argv: boeq.cli.main(argv), cli=True)
           for label, argv in cli_argv(name, p, outdir)]
    if name == "torus-multitime":
        u0 = torus_preset("twomode", TORUS_N, a=p["a"], b=p["b"])
        state = {}

        def make_propagator():
            state["prop"] = ts.propagator(u0, DISC_T, TORUS_N)

        def disc(z):
            value = ts.evaluate_disc(state["prop"], z)
            return [value.real, value.imag]

        ops.append(Op("propagator", make_propagator))
        ops += [Op(f"evaluate_disc[{j}]", lambda z=z: disc(z)) for j, z in enumerate(disc_points())]
    return ops


def op_count(name: str) -> int:
    api = 1 + DISC_POINTS if name == "torus-multitime" else 0
    return len(cli_argv(name, WORKLOADS[name].params(0, 0), Path("."))) + api


def sizes(name: str) -> dict:
    """Problem sizes recorded in the run record."""
    m = int(round(LINE_CUTOFF / LINE_STEP)) + 1
    if name == "torus-multitime":
        return {"n": TORUS_N, "samples": TORUS_SAMPLES, "times": len(TORUS_TIMES),
                "disc_points": DISC_POINTS}
    if name == "line-reconstruct":
        return {"M": m, "nx": RECONSTRUCT_NX, "shifted_solves": 2 * RECONSTRUCT_NX}
    if name == "line-probe":
        return {"M": m, "nx": PROBE_NX, "scan_points": PROBE_SCAN[2] * PROBE_SCAN[5],
                "t0_nx": DEFAULT_NX, "t0_scan_points": README_SCAN[2] * README_SCAN[5]}
    return {"n": list(COMPARE_N), "times": len(COMPARE_TIMES), "dt": COMPARE_DT,
            "steps_per_n": int(round(sum(COMPARE_TIMES) / COMPARE_DT))}
