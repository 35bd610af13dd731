"""Named initial data for both domains.

A preset is written ``name`` or ``name:key=value,key=value``.  Each name
takes only the parameters listed with it, each at most once; any other
parameter, or a parameter given twice, is a :class:`ConfigurationError`
that names the preset's parameters.

Torus presets (real 2pi-periodic fields):

- ``zero``
- ``constant`` with c (default 1): u0 = c
- ``cos`` with a (default 1): u0 = a cos x
- ``twomode`` with a, b (defaults 1, 1): u0 = a cos x + b sin 2x

Line presets (real decaying fields with closed-form transforms):

- ``zero``
- ``lorentzian`` with c > 0 (default 1): u0 = 2c/(1 + c^2 x^2),
  uhat(z) = 2pi e^{-|z|/c}; this is the solitary wave of the equation and
  travels rigidly to the right with speed c (direction fixed once against
  the time stepper).
- ``gaussian`` with a, w > 0 (defaults 1, 1): u0 = a e^{-(x/w)^2},
  uhat(z) = a w sqrt(pi) e^{-(w z/2)^2}.

``TORUS_PRESETS`` and ``LINE_PRESETS`` map each name to its parameter
defaults and its builder.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .line_operators import LineField
from .spectral import TorusField

__all__ = ["parse_preset", "torus_preset", "line_preset", "TORUS_PRESETS", "LINE_PRESETS"]


class LinePreset(NamedTuple):
    """Closed-form line datum: LineField plus the physical-space profile."""

    field: LineField
    u_of_x: Callable[[np.ndarray], np.ndarray]


def _lorentzian(c: float) -> LinePreset:
    if c <= 0:
        raise ConfigurationError("lorentzian speed c must be positive")
    return LinePreset(
        LineField(lambda z: 2.0 * np.pi * np.exp(-np.abs(np.asarray(z, float)) / c) + 0.0j),
        lambda x: 2.0 * c / (1.0 + (c * np.asarray(x, float)) ** 2),
    )


def _gaussian(a: float, w: float) -> LinePreset:
    if w <= 0:
        raise ConfigurationError("gaussian width w must be positive")
    return LinePreset(
        LineField(lambda z: a * w * np.sqrt(np.pi)
                  * np.exp(-(w * np.asarray(z, float) / 2.0) ** 2) + 0.0j),
        lambda x: a * np.exp(-(np.asarray(x, float) / w) ** 2),
    )


TORUS_PRESETS = {
    "zero": ({}, TorusField.zero),
    "constant": ({"c": 1.0}, lambda n, c: TorusField.from_modes(n, {0: c})),
    "cos": ({"a": 1.0}, lambda n, a: TorusField.from_modes(n, {1: a / 2.0})),
    "twomode": ({"a": 1.0, "b": 1.0},
                lambda n, a, b: TorusField.from_modes(n, {1: a / 2.0, 2: -0.5j * b})),
}

LINE_PRESETS = {
    "zero": ({}, lambda: LinePreset(
        LineField(lambda z: np.zeros_like(np.asarray(z, float), dtype=complex)),
        lambda x: np.zeros_like(np.asarray(x, float)))),
    "lorentzian": ({"c": 1.0}, _lorentzian),
    "gaussian": ({"a": 1.0, "w": 1.0}, _gaussian),
}


def parse_preset(text: str) -> tuple[str, dict[str, float]]:
    """Split ``"name:key=val,key=val"`` into name and parameters."""
    name, _, tail = text.partition(":")
    name = name.strip().lower()
    params: dict[str, float] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigurationError(f"malformed preset parameter {item!r}")
            try:
                value = float(val)
            except ValueError as exc:
                raise ConfigurationError(f"non-numeric preset parameter {item!r}") from exc
            if not np.isfinite(value):
                raise ConfigurationError(f"non-finite preset parameter {item!r}")
            key = key.strip()
            if key in params:
                raise ConfigurationError(f"preset parameter {key!r} given twice")
            params[key] = value
    return name, params


def _lookup(table: dict, domain: str, name: str, params: dict[str, float]):
    """(builder, its keyword arguments) of preset ``name`` in ``table``."""
    try:
        defaults, build = table[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown {domain} preset {name!r}; choose from {tuple(table)}") from None
    unknown = [key for key in params if key not in defaults]
    if unknown:
        takes = f"only {', '.join(defaults)}" if defaults else "no parameters"
        raise ConfigurationError(f"{domain} preset {name!r} takes {takes}; "
                                 f"got {', '.join(map(repr, unknown))}")
    return build, {**defaults, **params}


def torus_preset(name: str, max_mode: int, **params: float) -> TorusField:
    build, kwargs = _lookup(TORUS_PRESETS, "torus", name, params)
    return build(max_mode, **kwargs)


def line_preset(name: str, **params: float) -> LinePreset:
    build, kwargs = _lookup(LINE_PRESETS, "line", name, params)
    return build(**kwargs)
