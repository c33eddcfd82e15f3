import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ctflood.models import (
    ber_2ct_equal,
    ber_bfsk,
    ber_crossover_ratio,
    bessel_i0,
    jitter_sigma,
    nmax_concurrent,
    per_from_ber,
)


def test_ber_bfsk_anchors():
    assert ber_bfsk(0.0) == pytest.approx(0.5)
    assert ber_bfsk(1.0) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-12)
    assert ber_bfsk(10.0) == pytest.approx(3.369e-3, rel=1e-3)
    with pytest.raises(ValueError):  # the closed forms take a non-negative linear ratio
        ber_bfsk(-0.5)
    with pytest.raises(ValueError):
        ber_2ct_equal(-0.5)


def test_ber_2ct_anchors():
    assert ber_2ct_equal(0.0) == pytest.approx(0.5)
    assert ber_2ct_equal(1.0) == pytest.approx(0.2329, abs=1e-4)


@pytest.mark.parametrize("x", np.concatenate([
    np.linspace(0.0, 15.0, 31), np.linspace(15.01, 50.0, 30)
]))
def test_bessel_i0_against_scipy(x):
    assert bessel_i0(x) == pytest.approx(float(special.i0(x)), rel=1e-9)


@pytest.mark.parametrize("x", [50.0, 63.0, 100.0, 1e3, 1e5, 1e30, 1e300, sys.float_info.max])
def test_ber_2ct_equal_against_scipy_i0e(x):
    # ber_2ct_equal = i0e(x) / 2 has no upper range limit, unlike bessel_i0
    assert ber_2ct_equal(x) == pytest.approx(0.5 * float(special.i0e(x)), rel=1e-14)


def test_bessel_i0_even_and_ranged():
    for x in (0.3, 2.0, 14.9, 25.0):
        assert bessel_i0(-x) == pytest.approx(bessel_i0(x), rel=1e-12)
    assert bessel_i0(0.0) == 1.0
    assert bessel_i0(1.0) == pytest.approx(1.2660658, abs=1e-7)
    with pytest.raises(ValueError):
        bessel_i0(50.5)


def test_ber_curves_strictly_decreasing():
    xs = np.linspace(0.0, 30.0, 200)
    b1 = [ber_bfsk(x) for x in xs]
    b2 = [ber_2ct_equal(x) for x in xs]
    assert all(a > b for a, b in zip(b1, b1[1:]))
    assert all(a > b for a, b in zip(b2, b2[1:]))


def test_crossover_location_and_sign():
    root = ber_crossover_ratio()
    root_db = 10 * math.log10(root)
    assert 3.8 <= root_db <= 4.8
    assert ber_2ct_equal(root * 0.8) < ber_bfsk(root * 0.8)
    assert ber_2ct_equal(root * 1.2) > ber_bfsk(root * 1.2)
    # the root itself satisfies the defining equation
    assert math.exp(-root / 2) * bessel_i0(root) == pytest.approx(1.0, abs=1e-9)


def test_per_from_ber():
    assert per_from_ber(0.0, 1000) == 0.0
    assert per_from_ber(1.0, 5) == 1.0
    assert per_from_ber(0.01, 128) == pytest.approx(1.0 - 0.99 ** 128, abs=1e-12)
    assert per_from_ber(0.01, 128) == pytest.approx(0.72375, abs=1e-4)
    with pytest.raises(ValueError):
        per_from_ber(1.5, 10)
    with pytest.raises(ValueError):
        per_from_ber(0.1, 0)


@given(ber=st.floats(0.001, 0.999), length=st.integers(1, 500))
@settings(max_examples=50, deadline=None)
def test_per_monotone(ber, length):
    a, b = per_from_ber(ber, length), per_from_ber(ber, length + 1)
    assert b >= a
    if a < 0.999999:  # strict until float saturation
        assert b > a
    assert per_from_ber(min(ber * 1.01, 1.0), length) >= a


def test_nmax_concurrent():
    assert nmax_concurrent(16e6, 1e-6) == 28
    assert nmax_concurrent(3e6, 1e-6) == 1
    assert nmax_concurrent(2e6, 1e-6) == 0
    # doubling the clock quadruples the pre-floor budget
    assert ((2 * 16e6 * 1e-6) / 3) ** 2 == pytest.approx(4 * ((16e6 * 1e-6) / 3) ** 2)
    assert nmax_concurrent(32e6, 1e-6) == 113
    with pytest.raises(ValueError):
        nmax_concurrent(-1.0, 1e-6)


def test_jitter_sigma():
    assert jitter_sigma(16e6) == pytest.approx(1 / 32e6)
    with pytest.raises(ValueError):
        jitter_sigma(0.0)
