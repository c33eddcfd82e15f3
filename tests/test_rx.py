import numpy as np
import pytest

from ctflood.models import ber_bfsk
from ctflood.montecarlo import PhyExperimentSpec, run_ber_point
from ctflood.phy import ModulationParams, SampleStream, TransmitterSpec, add_awgn, modulate
from ctflood.rx import count_bit_errors, demodulate

MOD = ModulationParams(symbol_period=1e-6)


def test_noiseless_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        bits = rng.integers(0, 2, 200)
        s = modulate(bits, MOD, TransmitterSpec(phase=float(rng.uniform(0, 6.28))))
        out = demodulate(s, MOD, len(bits))
        assert count_bit_errors(bits, out) == 0


def test_phase_and_amplitude_invariance():
    bits = np.random.default_rng(1).integers(0, 2, 64)
    s = modulate(bits, MOD, TransmitterSpec(phase=0.0))
    base = demodulate(s, MOD, 64)
    for rot in (0.5, 1.7, 3.1):
        rotated = SampleStream(s.samples * np.exp(1j * rot), s.sample_rate)
        np.testing.assert_array_equal(demodulate(rotated, MOD, 64), base)
    scaled = SampleStream(s.samples * 7.3, s.sample_rate)
    np.testing.assert_array_equal(demodulate(scaled, MOD, 64), base)


def test_demodulate_rejects_short_stream():
    s = modulate([1, 0], MOD, TransmitterSpec(phase=0.0))
    with pytest.raises(ValueError):
        demodulate(s, MOD, 3)
    with pytest.raises(ValueError):
        demodulate(s, MOD, 0)


def test_count_bit_errors():
    assert count_bit_errors([1, 0, 1, 0], [1, 0, 1, 0]) == 0
    assert count_bit_errors([1, 1, 1], [0, 0, 0]) == 3
    assert count_bit_errors([1, 0, 1, 0], [1, 1, 1, 0]) == 1
    with pytest.raises(ValueError):
        count_bit_errors([1, 0], [1])


def test_single_tx_ber_matches_closed_form_at_10db():
    spec = PhyExperimentSpec(
        mod=MOD, packet_bits=128, power_delta=None,
        replicas=800, seed=7,
    )
    est = run_ber_point(spec, 10.0)
    want = ber_bfsk(10.0)
    assert est.ci_low <= want <= est.ci_high


def test_ber_monotone_in_snr():
    # measured BER at x dB exceeds measured BER at x+3 dB, 1e5 bits each
    points = (0.0, 3.0, 6.0, 9.0, 12.0)
    spec = PhyExperimentSpec(
        mod=MOD, packet_bits=128, power_delta=None,
        replicas=800, seed=11,
    )
    bers = [run_ber_point(spec, x).point for x in points]
    assert all(a > b for a, b in zip(bers, bers[1:]))


def test_noisy_single_window_matches_direct_demod():
    # demodulate agrees with the experiment kernel's decision rule
    bits = np.random.default_rng(3).integers(0, 2, 128)
    s = modulate(bits, MOD, TransmitterSpec(phase=1.1))
    noisy = add_awgn(s, 8.0, MOD, seed=9)
    out = demodulate(noisy, MOD, 128)
    # at 8 dB a 128-bit packet decodes with only a few errors at most
    assert count_bit_errors(bits, out) < 15
