import numpy as np
import pytest
import scipy.linalg as sla

from boeq.accel import (
    hessenberg_band,
    hessenberg_of_band,
    hessenberg_solve_shifted,
    numba_enabled,
    worker_count,
)
from boeq.errors import ConditioningError


def random_hessenberg(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.triu(a, -1)
    return np.ascontiguousarray(h)


def solve_shifted(h, z, b):
    band = hessenberg_band(h)
    return hessenberg_solve_shifted(band, z, b, np.empty_like(band, order="F"))


@pytest.mark.parametrize("n", [5, 40, 200])
def test_dispatched_kernel_matches_dense_solve(n, rng):
    h = random_hessenberg(n, rng)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = -0.8 + 0.6j
    x = solve_shifted(h, z, b)
    expected = np.linalg.solve(h - z * np.eye(n), b)
    np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-11)


def test_band_holds_h_and_survives_solves(rng):
    h = random_hessenberg(30, rng)
    band = hessenberg_band(h)
    np.testing.assert_array_equal(hessenberg_of_band(band), h)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    work = np.empty_like(band, order="F")
    for z in (0.2j, 1.0 + 0.5j):
        x = hessenberg_solve_shifted(band, z, b, work)
        np.testing.assert_allclose((h - z * np.eye(30)) @ x, b, atol=1e-10)
    np.testing.assert_array_equal(hessenberg_of_band(band), h)


def test_pivoting_handles_zero_diagonal(rng):
    # make the unshifted leading entry exactly the shift: forces a pivot swap
    h = random_hessenberg(8, rng)
    z = 0.25 + 0.5j
    h[0, 0] = z
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = solve_shifted(h, z, b)
    np.testing.assert_allclose((h - z * np.eye(8)) @ x, b, atol=1e-10)


def test_singular_shifted_system_raises(rng):
    # zero subdiagonal entry below H[0, 0] = z: column 0 of H - zI vanishes
    h = random_hessenberg(8, rng)
    z = 0.25 + 0.5j
    h[0, 0] = z
    h[1, 0] = 0.0
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    with pytest.raises(ConditioningError):
        solve_shifted(h, z, b)


def test_matches_full_pipeline_through_hessenberg_reduction(rng):
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    b = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    hess, q = sla.hessenberg(a, calc_q=True)
    z = 0.1 + 0.4j
    x = q @ solve_shifted(hess, z, q.conj().T @ b)
    expected = np.linalg.solve(a - z * np.eye(60), b)
    np.testing.assert_allclose(x, expected, rtol=1e-8, atol=1e-10)


def test_worker_count_is_one_whatever_the_env(monkeypatch):
    monkeypatch.setenv("BOX_THREADS", "3")
    assert worker_count() == 1


def test_numba_flag_reporting():
    assert numba_enabled() is False
