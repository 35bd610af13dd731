"""Named initial data for both domains.

Torus presets (real 2pi-periodic fields):

- ``zero``
- ``constant:c=...``
- ``cos`` with amplitude a: u0 = a cos x (default a = 1)
- ``twomode``: u0 = a cos x + b sin 2x

Line presets (real decaying fields with closed-form transforms):

- ``zero``
- ``lorentzian:c=...``: u0 = 2c/(1 + c^2 x^2), uhat(z) = 2pi e^{-|z|/c};
  this is the solitary wave of the equation and travels rigidly to the
  right with speed c (direction fixed once against the time stepper).
- ``gaussian:a=...,w=...``: u0 = a e^{-(x/w)^2},
  uhat(z) = a w sqrt(pi) e^{-(w z/2)^2}.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .line_operators import LineField
from .spectral import TorusField

__all__ = [
    "parse_preset",
    "torus_preset",
    "line_preset",
    "lorentzian_profile",
    "gaussian_profile",
    "TORUS_PRESETS",
    "LINE_PRESETS",
]

TORUS_PRESETS = ("zero", "constant", "cos", "twomode")
LINE_PRESETS = ("zero", "lorentzian", "gaussian")


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
            params[key.strip()] = value
    return name, params


def torus_preset(name: str, max_mode: int, **params: float) -> TorusField:
    name = name.lower()
    if name == "zero":
        return TorusField.zero(max_mode)
    if name == "constant":
        c = params.get("c", 1.0)
        return TorusField.from_modes(max_mode, {0: c})
    if name == "cos":
        a = params.get("a", 1.0)
        return TorusField.from_modes(max_mode, {1: a / 2.0})
    if name == "twomode":
        a = params.get("a", 1.0)
        b = params.get("b", 1.0)
        return TorusField.from_modes(max_mode, {1: a / 2.0, 2: -0.5j * b})
    raise ConfigurationError(f"unknown torus preset {name!r}; choose from {TORUS_PRESETS}")


def lorentzian_profile(c: float = 1.0):
    """(u0(x), uhat(zeta)) callables for the solitary wave 2c/(1+c^2 x^2)."""
    if c <= 0:
        raise ConfigurationError("lorentzian speed c must be positive")

    def u_of_x(x: np.ndarray) -> np.ndarray:
        return 2.0 * c / (1.0 + (c * np.asarray(x, float)) ** 2)

    def spectrum(zeta: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi * np.exp(-np.abs(np.asarray(zeta, float)) / c) + 0.0j

    return u_of_x, spectrum


def gaussian_profile(a: float = 1.0, w: float = 1.0):
    """(u0(x), uhat(zeta)) callables for a e^{-(x/w)^2}."""
    if w <= 0:
        raise ConfigurationError("gaussian width w must be positive")

    def u_of_x(x: np.ndarray) -> np.ndarray:
        return a * np.exp(-(np.asarray(x, float) / w) ** 2)

    def spectrum(zeta: np.ndarray) -> np.ndarray:
        return a * w * np.sqrt(np.pi) * np.exp(-(w * np.asarray(zeta, float) / 2.0) ** 2) + 0.0j

    return u_of_x, spectrum


class LinePreset:
    """Closed-form line datum: LineField plus the physical-space profile."""

    def __init__(self, name: str, field: LineField, u_of_x):
        self.name = name
        self.field = field
        self.u_of_x = u_of_x


def line_preset(name: str, **params: float) -> LinePreset:
    name = name.lower()
    if name == "zero":
        return LinePreset(
            "zero",
            LineField(lambda z: np.zeros_like(np.asarray(z, float), dtype=complex)),
            lambda x: np.zeros_like(np.asarray(x, float)),
        )
    if name == "lorentzian":
        c = params.get("c", 1.0)
        u_of_x, spectrum = lorentzian_profile(c)
        return LinePreset(f"lorentzian(c={c:g})", LineField(spectrum), u_of_x)
    if name == "gaussian":
        a = params.get("a", 1.0)
        w = params.get("w", 1.0)
        u_of_x, spectrum = gaussian_profile(a, w)
        return LinePreset(f"gaussian(a={a:g},w={w:g})", LineField(spectrum), u_of_x)
    raise ConfigurationError(f"unknown line preset {name!r}; choose from {LINE_PRESETS}")
