import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctflood.phy import (
    ModulationParams,
    SampleStream,
    TransmitterSpec,
    add_awgn,
    envelope_analytic,
    measured_envelope,
    modulate,
    noise_variance_per_dim,
    superpose,
)

MOD = ModulationParams(symbol_period=1e-6)


def test_default_deviation_gives_unit_index():
    assert MOD.freq_deviation == pytest.approx(0.5e6)
    assert MOD.modulation_index == pytest.approx(1.0)
    assert MOD.sample_rate == pytest.approx(16e6)


def test_modulation_params_validation():
    with pytest.raises(ValueError):
        ModulationParams(symbol_period=0.0)
    with pytest.raises(ValueError):
        ModulationParams(symbol_period=1e-6, samples_per_symbol=4)
    for bad in (float("nan"), float("inf"), -1e-6):
        with pytest.raises(ValueError):
            ModulationParams(symbol_period=bad)
    for bad in (float("nan"), float("inf"), 0.0, -1e5):
        with pytest.raises(ValueError):
            ModulationParams(symbol_period=1e-6, freq_deviation=bad)


def _inst_freq(stream):
    # frequency from the phase increment between consecutive samples
    ph = np.angle(stream.samples[1:] * np.conj(stream.samples[:-1]))
    return ph * stream.sample_rate / (2 * np.pi)


def test_all_zero_bits_is_constant_low_tone():
    tx = TransmitterSpec(amplitude=1.5, phase=0.3)
    s = modulate([0] * 32, MOD, tx)
    assert len(s) == 32 * MOD.samples_per_symbol
    np.testing.assert_allclose(np.abs(s.samples), 1.5, rtol=1e-12)
    np.testing.assert_allclose(_inst_freq(s), -MOD.freq_deviation, rtol=1e-9)


def test_alternating_bits_toggle_tone():
    s = modulate([1, 0, 1, 0], MOD, TransmitterSpec(phase=0.0))
    freqs = _inst_freq(s).reshape(-1)
    sps = MOD.samples_per_symbol
    # interior samples of each symbol sit at the symbol's tone
    for k, bit in enumerate([1, 0, 1, 0]):
        seg = freqs[k * sps + 1 : (k + 1) * sps - 1]
        want = MOD.freq_deviation if bit else -MOD.freq_deviation
        np.testing.assert_allclose(seg, want, rtol=1e-9)


def test_modulate_amplitude_linearity():
    bits = [1, 0, 0, 1, 1]
    a = modulate(bits, MOD, TransmitterSpec(amplitude=2.0, cfo=1e3, phase=0.7))
    b = modulate(bits, MOD, TransmitterSpec(amplitude=1.0, cfo=1e3, phase=0.7))
    np.testing.assert_allclose(a.samples, 2.0 * b.samples, rtol=1e-12)


def test_modulate_time_offset_pads_head():
    dt = 3 / MOD.sample_rate
    s = modulate([1, 1], MOD, TransmitterSpec(time_offset=dt, phase=0.0))
    assert len(s) == 2 * MOD.samples_per_symbol + 3
    assert np.all(s.samples[:3] == 0)
    assert np.all(np.abs(s.samples[3:]) > 0)


def test_modulate_rejects_bad_input():
    with pytest.raises(ValueError):
        modulate([], MOD, TransmitterSpec())
    with pytest.raises(ValueError):
        modulate([0, 2], MOD, TransmitterSpec())
    with pytest.raises(ValueError):
        modulate([0, 1], MOD, TransmitterSpec(time_offset=3e-6))
    with pytest.raises(ValueError):
        modulate([0, 1], MOD, TransmitterSpec(cfo=9e6))


def test_unspecified_phase_is_random_but_seedable():
    bits = [1, 0, 1]
    a = modulate(bits, MOD, TransmitterSpec(), rng=np.random.default_rng(5))
    b = modulate(bits, MOD, TransmitterSpec(), rng=np.random.default_rng(5))
    c = modulate(bits, MOD, TransmitterSpec(), rng=np.random.default_rng(6))
    np.testing.assert_allclose(a.samples, b.samples)
    assert not np.allclose(a.samples, c.samples)


def test_superpose_identity_and_zero():
    s = modulate([1, 0], MOD, TransmitterSpec(phase=0.0))
    z = modulate([1, 0], MOD, TransmitterSpec(amplitude=0.0, phase=0.0))
    np.testing.assert_allclose(superpose([s]).samples, s.samples)
    np.testing.assert_allclose(superpose([s, z]).samples, s.samples)


def test_superpose_beats_at_cfo_difference():
    f = 50e3
    bits = [0] * 200
    s1 = modulate(bits, MOD, TransmitterSpec(cfo=+f / 2, phase=0.0))
    s2 = modulate(bits, MOD, TransmitterSpec(cfo=-f / 2, phase=0.0))
    total = superpose([s1, s2])
    mag = np.abs(total.samples)
    t = np.arange(len(total)) / total.sample_rate
    np.testing.assert_allclose(mag, 2 * np.abs(np.cos(np.pi * f * t)), atol=1e-9)


def test_superpose_rejects_rate_mismatch():
    s1 = modulate([0], MOD, TransmitterSpec(phase=0.0))
    other = ModulationParams(symbol_period=2e-6)
    s2 = modulate([0], other, TransmitterSpec(phase=0.0))
    with pytest.raises(ValueError):
        superpose([s1, s2])
    with pytest.raises(ValueError):
        superpose([])


def test_superpose_pads_shorter_streams():
    s1 = modulate([0, 0], MOD, TransmitterSpec(phase=0.0))
    s2 = modulate([0], MOD, TransmitterSpec(phase=0.0))
    total = superpose([s1, s2])
    assert len(total) == len(s1)
    sps = MOD.samples_per_symbol
    np.testing.assert_allclose(total.samples[sps:], s1.samples[sps:])


@given(
    amps=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_superposition_magnitude_bound(amps, seed):
    rng = np.random.default_rng(seed)
    streams = []
    for a in amps:
        tx = TransmitterSpec(amplitude=a, cfo=float(rng.uniform(-5e4, 5e4)),
                             phase=float(rng.uniform(0, 2 * np.pi)))
        streams.append(modulate([0] * 64, MOD, tx))
    total = superpose(streams)
    assert np.max(np.abs(total.samples)) <= sum(amps) + 1e-9


def test_superpose_commutative_associative():
    streams = [
        modulate([0, 1, 1], MOD, TransmitterSpec(amplitude=a, cfo=c, phase=p))
        for a, c, p in [(1.0, 1e3, 0.1), (0.5, -2e3, 1.4), (2.0, 4e3, 2.2)]
    ]
    a = superpose(streams)
    b = superpose(streams[::-1])
    c = superpose([superpose(streams[:2]), streams[2]])
    np.testing.assert_allclose(a.samples, b.samples, rtol=1e-12)
    np.testing.assert_allclose(a.samples, c.samples, rtol=1e-12)


def test_awgn_noiseless_limit_and_determinism():
    s = modulate([1, 0, 1], MOD, TransmitterSpec(phase=0.0))
    clean = add_awgn(s, math.inf, MOD)
    np.testing.assert_array_equal(clean.samples, s.samples)
    n1 = add_awgn(s, 6.0, MOD, seed=42)
    n2 = add_awgn(s, 6.0, MOD, seed=42)
    np.testing.assert_array_equal(n1.samples, n2.samples)
    n3 = add_awgn(s, 6.0, MOD, seed=43)
    assert not np.allclose(n1.samples, n3.samples)


def test_awgn_variance_calibration():
    n = 1_000_000
    s = SampleStream(np.zeros(n, dtype=complex), MOD.sample_rate)
    ebn0_db = 5.0
    noisy = add_awgn(s, ebn0_db, MOD, seed=1)
    want = noise_variance_per_dim(ebn0_db, MOD)
    got_re = np.var(noisy.samples.real)
    got_im = np.var(noisy.samples.imag)
    assert got_re == pytest.approx(want, rel=0.01)
    assert got_im == pytest.approx(want, rel=0.01)


def test_noise_variance_is_the_one_ebn0_rule():
    assert noise_variance_per_dim(math.inf, MOD) == 0.0
    assert math.isfinite(noise_variance_per_dim(-3073.0, MOD))
    assert math.isfinite(noise_variance_per_dim(3082.0, MOD))
    # NaN, -inf, a linear ratio that overflows, underflows to 0 or is so
    # small that the variance overflows: no finite variance
    for db in (math.nan, -math.inf, 3083.0, -4000.0, -3233.0, -3100.0, -3074.0):
        with pytest.raises(ValueError, match="no finite noise variance"):
            noise_variance_per_dim(db, MOD)


def test_envelope_analytic_cases():
    assert envelope_analytic(2.0, 0.0, 1e3, 0.123) == pytest.approx(2.0)
    assert envelope_analytic(1.0, 1.0, 1e3, 0.0) == pytest.approx(2.0)
    assert envelope_analytic(1.0, 1.0, 1e3, 1 / (2 * 1e3)) == pytest.approx(0.0, abs=1e-9)
    # argument order does not matter
    assert envelope_analytic(0.5, 2.0, 1e3, 0.2) == pytest.approx(
        envelope_analytic(2.0, 0.5, 1e3, 0.2)
    )
    with pytest.raises(ValueError):
        envelope_analytic(-1.0, 0.5, 1e3, 0.0)


def test_measured_envelope_constant_carrier():
    s = modulate([0] * 64, MOD, TransmitterSpec(amplitude=1.3, phase=0.0))
    env = measured_envelope(s, window=8 / MOD.sample_rate)
    np.testing.assert_allclose(env[:, 1], 1.3, rtol=1e-12)
    assert np.all(np.diff(env[:, 0]) > 0)


def test_measured_envelope_three_carriers_is_complex():
    bits = [0] * 512
    streams = [
        modulate(bits, MOD, TransmitterSpec(cfo=c, phase=0.0))
        for c in (0.0, 11e3, 31e3)
    ]
    total = superpose(streams)
    env = measured_envelope(total, window=16 / MOD.sample_rate)[:, 1]
    peaks = [env[i] for i in range(1, len(env) - 1)
             if env[i] >= env[i - 1] and env[i] >= env[i + 1]]
    assert len(set(np.round(peaks, 2))) >= 2


def test_measured_envelope_window_bounds():
    s = modulate([0] * 16, MOD, TransmitterSpec(phase=0.0))
    with pytest.raises(ValueError):
        measured_envelope(s, window=0.0)
    with pytest.raises(ValueError):
        measured_envelope(s, window=s.duration)
