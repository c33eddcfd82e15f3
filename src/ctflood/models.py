"""Closed-form link and scaling formulas used as planning tools and oracles."""

from __future__ import annotations

import math

_I0_SERIES_LIMIT = 15.0
_I0_RANGE_LIMIT = 50.0
_I0_FLAT_LIMIT = 1e17


def _as_ratio(ebn0: float) -> float:
    x = float(ebn0)
    if x < 0:
        raise ValueError("Eb/N0 ratio must be non-negative")
    return x


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Ascending series for |x| <= 15, asymptotic expansion beyond; accurate
    to better than 1e-9 relative over the supported |x| <= 50 range.
    """
    x = float(x)
    if abs(x) > _I0_RANGE_LIMIT:
        raise ValueError("argument outside supported range |x| <= 50")
    return _i0_scaled(abs(x)) * math.exp(abs(x))


def _i0_scaled(ax: float) -> float:
    """exp(-|x|) * I0(x) for x >= 0; finite for every finite x, no range limit."""
    if ax <= _I0_SERIES_LIMIT:
        # sum of (x/2)^(2k) / (k!)^2
        term = 1.0
        total = 1.0
        q = ax * ax / 4.0
        for k in range(1, 60):
            term *= q / (k * k)
            total += term
            if term < total * 1e-17:
                break
        return total * math.exp(-ax)
    if ax > _I0_FLAT_LIMIT:  # each c_k/(8x)^k below is lost to rounding, and (8x)^k may overflow
        return 1.0 / math.sqrt(2.0 * math.pi) / math.sqrt(ax)
    # asymptotic: I0(x) ~ e^x/sqrt(2 pi x) * sum c_k/(8x)^k, c_k = prod (2j-1)^2 / k!
    total = 1.0
    c = 1.0
    for k in range(1, 12):
        c *= (2 * k - 1) ** 2 / k
        total += c / (8.0 * ax) ** k
    return total / math.sqrt(2.0 * math.pi * ax)


def ber_bfsk(ebn0) -> float:
    """Bit error rate of non-coherent orthogonal BFSK in AWGN: exp(-x/2)/2."""
    return 0.5 * math.exp(-_as_ratio(ebn0) / 2.0)


def ber_2ct_equal(ebn0_single) -> float:
    """Beat-period average BER for two equal, aligned, same-data transmitters.

    Equals exp(-x) * I0(x) / 2 with x the single-transmitter Eb/N0 ratio;
    evaluated in scaled form so it stays finite for every x.
    """
    return 0.5 * _i0_scaled(_as_ratio(ebn0_single))


def per_from_ber(ber: float, length: int) -> float:
    """Packet error rate for independent bit errors: 1 - (1-BER)^L."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be a probability")
    if length < 1:
        raise ValueError("length must be at least 1 bit")
    return 1.0 - (1.0 - ber) ** length


def jitter_sigma(f_clock: float) -> float:
    """Slot-alignment jitter standard deviation of a clock: 1/(2 f_clock)."""
    if f_clock <= 0:
        raise ValueError("clock frequency must be positive")
    return 1.0 / (2.0 * f_clock)


def nmax_concurrent(f_clock: float, symbol_period: float) -> int:
    """How many aligned transmitters a symbol can tolerate: floor((T_S f/3)^2).

    Returns 0 for degenerate inputs where the budget is below one
    transmitter (f_clock * T_S < 3).
    """
    if f_clock <= 0 or symbol_period <= 0:
        raise ValueError("inputs must be positive")
    budget = f_clock * symbol_period
    if budget < 3.0:
        return 0
    return int(math.floor((budget / 3.0) ** 2))


def ber_crossover_ratio() -> float:
    """Linear Eb/N0 where the 2-CT curve crosses the single-TX curve.

    Root of exp(-x/2) * I0(x) = 1 for x > 0, found by bisection.
    """
    f = lambda x: math.exp(x / 2.0) * _i0_scaled(x) - 1.0
    lo, hi = 1.0, 5.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0
