"""Scalar kernel properties: bounds, parity, series switchover."""

import numpy as np
import pytest

from fidsus.config import KERNEL_SERIES_CUTOFF
from fidsus.kernels import tanh_over_x


def _tanh_over_x_reference(x):
    """The out-of-place expression tanh_over_x evaluates in place."""
    a = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    x2 = a * a
    lower = 1.0 - x2 / 3.0
    small = a < KERNEL_SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    direct = np.tanh(safe) / safe
    series = lower + (2.0 / 15.0) * x2 * x2
    out = np.where(small, series, direct)
    out = np.minimum(out, 1.0)
    return np.maximum(out, lower)


def test_tanh_over_x_known_values():
    assert tanh_over_x(np.array([1.0]))[0] == pytest.approx(np.tanh(1.0), abs=1e-16)
    assert tanh_over_x(np.array([0.0]))[0] == 1.0
    assert tanh_over_x(np.array([50.0]))[0] == pytest.approx(1.0 / 50.0, rel=1e-15)


def test_tanh_over_x_is_bit_identical_to_the_reference_expression():
    rng = np.random.default_rng(11)
    c = KERNEL_SERIES_CUTOFF
    edges = [0.0, -0.0, c, -c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), 1e-300,
             5e-324, 1e300, np.inf, -np.inf, np.nan]
    x = np.concatenate([
        edges,
        rng.uniform(-50.0, 50.0, 20000),
        rng.uniform(-2.0 * c, 2.0 * c, 20000),
        np.exp(rng.uniform(-700.0, 700.0, 20000)),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        got = tanh_over_x(x.reshape(-1, 4))
        want = _tanh_over_x_reference(x)
        # bytes, so signed zeros and NaN payloads count too
        assert got.shape == (x.size // 4, 4)
        assert got.tobytes() == want.tobytes()
        for value in edges:
            assert np.float64(tanh_over_x(value)).tobytes() == (
                _tanh_over_x_reference(value).tobytes()
            )


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

