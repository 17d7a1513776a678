"""Scalar kernel properties: bounds, parity, series switchover."""

import numpy as np
import pytest

from fidsus.kernels import expm1_over_x, expx_xm1_over_x2, tanh_over_x


def test_tanh_over_x_known_values():
    assert tanh_over_x(np.array([1.0]))[0] == pytest.approx(np.tanh(1.0), abs=1e-16)
    assert tanh_over_x(np.array([0.0]))[0] == 1.0
    assert tanh_over_x(np.array([50.0]))[0] == pytest.approx(1.0 / 50.0, rel=1e-15)


def test_tanh_over_x_bounds_hold_exactly():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [
            rng.uniform(-50.0, 50.0, 100000),
            rng.uniform(-2.0, 2.0, 50000),
            rng.uniform(-1e-3, 1e-3, 20000),
        ]
    )
    f = tanh_over_x(x)
    assert np.all(f > 0.0)
    assert np.all(f <= 1.0)
    assert np.all(f >= 1.0 - x * x / 3.0)


def test_tanh_over_x_even():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 50.0, 100000)
    assert np.array_equal(tanh_over_x(x), tanh_over_x(-x))


def test_tanh_over_x_monotone_decreasing_in_abs_x():
    x = np.linspace(0.0, 50.0, 20001)
    f = tanh_over_x(x)
    assert np.all(np.diff(f) <= 0.0)


def test_series_switchover_continuous():
    for c in (1e-4, -1e-4):
        inside = np.nextafter(c, 0.0)
        gap = abs(
            float(tanh_over_x(np.array([inside]))[0])
            - float(tanh_over_x(np.array([c]))[0])
        )
        assert gap <= 1e-15


def test_expm1_over_x_against_library():
    x = np.array([-20.0, -1.0, -1e-6, 1e-9, 1e-6, 0.5, 3.0, 20.0])
    expected = np.expm1(x) / x
    np.testing.assert_allclose(expm1_over_x(x), expected, rtol=1e-14)
    assert expm1_over_x(np.array([0.0]))[0] == 1.0


def test_expx_xm1_over_x2_series_and_direct():
    # (e^x (x-1) + 1)/x^2 -> 1/2 as x -> 0, and matches the direct
    # formula where it is well conditioned
    assert expx_xm1_over_x2(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-16)
    x = np.array([-5.0, -1.0, 1.0, 5.0])
    direct = (np.exp(x) * (x - 1.0) + 1.0) / (x * x)
    np.testing.assert_allclose(expx_xm1_over_x2(x), direct, rtol=1e-13)
    # smooth across the small-|x| switchover
    xs = np.linspace(-1e-3, 1e-3, 2001)
    vals = expx_xm1_over_x2(xs)
    assert np.all(np.abs(np.diff(vals)) < 1e-6)
