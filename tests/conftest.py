import numpy as np
import pytest

from boeq.spectral import TorusField


def rel_l2(a, b):
    denom = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / denom


def wave_datum(q, b, n, amplitude=1.0):
    """Benjamin's periodic travelling wave at t = 0, truncated at n: Hardy
    coefficients (b, q, q^2, ...), those above the mean times ``amplitude``."""
    return TorusField.from_hardy(np.concatenate([[b], amplitude * q ** np.arange(1, n + 1)]))


def wave_speed(q, b):
    """Speed c of the travelling wave of :func:`wave_datum`."""
    return 2.0 * b - 1.0 + 2.0 * q * q / (1.0 - q * q)


def wave_hardy(q, b, t, c, k_max, amplitude=1.0):
    """Hardy coefficients 0..k_max of the wave of :func:`wave_datum` moved
    at speed c for time t: (b, q^k e^{-ikct} times ``amplitude``)."""
    k = np.arange(1, k_max + 1)
    return np.concatenate([[b], amplitude * q ** k * np.exp(-1j * k * c * t)])


def step_counter(monkeypatch):
    """(rows, the dt of each row) of every stepper step taken from here on,
    in order."""
    import boeq.timestepper as ts

    dts = []
    real = ts._Stepper.step

    def counting(self, c):
        dts.append((len(c), tuple(self.dt[:, 0])))
        return real(self, c)

    monkeypatch.setattr(ts._Stepper, "step", counting)
    return dts


@pytest.fixture
def rng():
    return np.random.default_rng(20240805)


def _dense_weighted_generator(grid):
    """G_w = S G S^-1 as a dense matrix, with G = i d/dxi written out row by
    row: second-order central rows, one-sided closures at 0 and Xi."""
    n, h = grid.count, grid.step
    g = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(1, n - 1)
    g[idx, idx - 1] = -1.0 / (2.0 * h)
    g[idx, idx + 1] = 1.0 / (2.0 * h)
    g[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    g[n - 1, n - 3:] = np.array([0.5, -2.0, 1.5]) / h
    s = grid.sqrt_weights
    return (s[:, None] / s[None, :]) * (1j * g)


@pytest.fixture
def dense_generator():
    """grid -> the dense weighted generator, the reference for its band."""
    return _dense_weighted_generator


@pytest.fixture
def corrupt_next_step_operator(monkeypatch):
    """(u0, n) -> make the next torus W = V* S* V formed for u0 at truncation
    n carry a wrong entry, set after W is formed and flushed, before its
    residual check."""
    import boeq.spectral as spectral
    import boeq.torus_solution as ts
    from boeq.torus_operators import lax_matrix

    def corrupt_for(u0, n):
        system = spectral.eigen_system(lax_matrix(u0, n))
        real_flush = spectral._flush_tiny

        def corrupt(a):
            real_flush(a)
            if a.ndim == 2:  # W: the eigensystem was computed above, unpatched
                a[3, 4] += 1e-9
            return a

        monkeypatch.setattr(ts, "_eigen_memo", None)
        monkeypatch.setattr(spectral, "eigen_system", lambda a: system)
        monkeypatch.setattr(spectral, "_flush_tiny", corrupt)

    return corrupt_for
