import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ctflood import cli
from ctflood import montecarlo as mc
from ctflood.linkmodel import dumps_table, load_table, loads_table
from ctflood.models import ber_bfsk, per_from_ber
from ctflood.montecarlo import (
    CHUNK_PACKETS,
    EstimateWithCI,
    PhyExperimentSpec,
    _chunk_rng,
    _correlate,
    _run_point,
    _simulate_chunk,
    count_grid,
    estimate,
    run_ber_point,
    run_per_point,
    wilson_ci,
)
from ctflood.phy import ModulationParams, TransmitterSpec, add_awgn, modulate, superpose
from ctflood.rx import count_bit_errors, demodulate, tone_matrix

MOD = ModulationParams(symbol_period=1e-6)


def _wilson_oracle(k, n, conf):
    z = stats.norm.ppf(0.5 + conf / 2)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def test_wilson_ci_trivials():
    lo, _ = wilson_ci(0, 50)
    assert lo == 0.0
    _, hi = wilson_ci(50, 50)
    assert hi == 1.0
    lo, hi = wilson_ci(50, 100, 0.95)
    assert lo == pytest.approx(0.404, abs=2e-3)
    assert hi == pytest.approx(0.596, abs=2e-3)
    with pytest.raises(ValueError):
        wilson_ci(5, 4)
    # the ends are exact, not rounded just inside, and the point is k/n
    for n in range(100, 20001):
        none, every = estimate(0, n), estimate(n, n)
        assert (none.point, none.ci_low) == (0.0, 0.0)
        assert (every.point, every.ci_high) == (1.0, 1.0)
    for n in range(100, 400):
        for k in range(n + 1):
            lo, hi = wilson_ci(k, n, mc.CONFIDENCE)
            assert lo <= k / n <= hi


@pytest.mark.parametrize("k,n,conf", [(3, 10, 0.95), (0, 7, 0.99), (120, 300, 0.9)])
def test_wilson_ci_matches_oracle(k, n, conf):
    lo, hi = wilson_ci(k, n, conf)
    olo, ohi = _wilson_oracle(k, n, conf)
    assert lo == pytest.approx(max(0.0, olo), abs=1e-12)
    assert hi == pytest.approx(min(1.0, ohi), abs=1e-12)


def test_estimate_invariants():
    est = EstimateWithCI(0.4, 0.35, 0.45, 100)
    assert est.width == pytest.approx(0.1)
    with pytest.raises(ValueError):
        EstimateWithCI(0.5, 0.6, 0.7, 10)


def test_spec_validation():
    with pytest.raises(ValueError):
        PhyExperimentSpec(mod=MOD, replicas=10)
    with pytest.raises(ValueError):
        PhyExperimentSpec(mod=MOD, power_delta=-1.0)
    with pytest.raises(ValueError):
        PhyExperimentSpec(mod=MOD, packet_bits=0)
    for bad in (dict(power_delta=math.nan), dict(power_delta=math.inf),
                dict(time_delta=math.nan), dict(beat_ratio=math.nan),
                dict(beat_ratio=math.inf), dict(packet_bits=8, time_delta=8.5)):
        with pytest.raises(ValueError):
            PhyExperimentSpec(mod=MOD, **bad)
    # a delay of exactly one packet is legal: transmitter 2 misses every window
    PhyExperimentSpec(mod=MOD, packet_bits=8, time_delta=8.0)


def test_determinism_and_parallel_split():
    spec = PhyExperimentSpec(
        mod=MOD, packet_bits=64, power_delta=0.0,
        beat_ratio=0.5, replicas=2 * CHUNK_PACKETS + 500, seed=13,
    )
    a = _run_point(spec, 8.0)
    b = _run_point(spec, 8.0)
    np.testing.assert_array_equal(a, b)
    # chunk-keyed RNG: computing chunks out of order reproduces the pool
    chunks = []
    sizes = [CHUNK_PACKETS, CHUNK_PACKETS, 500]
    for idx in (2, 0, 1):
        rng = _chunk_rng(spec, 8.0, idx)
        chunks.append((idx, _simulate_chunk(spec, 8.0, sizes[idx], rng)))
    merged = np.concatenate([c for _, c in sorted(chunks)])
    np.testing.assert_array_equal(a, merged)


def test_single_tx_per_matches_independent_bits():
    spec = PhyExperimentSpec(
        mod=MOD, packet_bits=128, power_delta=None,
        replicas=3000, seed=17,
    )
    for ebn0 in (8.0, 10.0):
        est = run_per_point(spec, ebn0)
        want = per_from_ber(ber_bfsk(10 ** (ebn0 / 10)), 128)
        assert est.ci_low <= want <= est.ci_high


def test_per_nonincreasing_in_power_delta():
    ests = []
    for dp in (0.0, 2.0, 6.0):
        spec = PhyExperimentSpec(
            mod=MOD, packet_bits=128, power_delta=dp,
            beat_ratio=0.25, replicas=4000, seed=19,
        )
        ests.append(run_per_point(spec, 12.0))
    for a, b in zip(ests, ests[1:]):
        assert b.point <= a.point + a.width


def test_different_data_equivalence_beyond_one_symbol():
    # a full-symbol offset of the same payload behaves like independent bits
    common = dict(mod=MOD, packet_bits=128, power_delta=0.0, beat_ratio=0.5, replicas=3000)
    shifted = PhyExperimentSpec(time_delta=1.0, same_data=True, seed=23, **common)
    independent = PhyExperimentSpec(time_delta=1.0, same_data=False, seed=29, **common)
    a = run_ber_point(shifted, 10.0)
    b = run_ber_point(independent, 10.0)
    assert a.overlaps(b)


def test_calibrate_clean_single_link():
    spec = PhyExperimentSpec(mod=MOD, packet_bits=64, replicas=200, seed=31)
    failures = count_grid(spec, 20.0, [20.0], [0.0], [0.05])
    assert failures.shape == (1, 1, 1) and failures.dtype.kind == "i"
    assert 1.0 - failures[0, 0, 0] / spec.replicas >= 0.99


def test_calibrate_deterministic_and_roundtrips(tmp_path):
    spec = PhyExperimentSpec(mod=MOD, packet_bits=64, replicas=150, seed=37)
    axes = ([0.0, 4.0], [0.0], [0.2, 1.0])
    np.testing.assert_array_equal(count_grid(spec, 12.0, *axes), count_grid(spec, 12.0, *axes))
    assert cli.main(["calibrate", "--out", str(tmp_path), "--seed", "37", "--replicas", "150",
                     "--bits-per-packet", "64", "--delta-p", "0,4", "--delta-t", "0",
                     "--beat-ratio", "0.2,1"]) == 0
    table = load_table(tmp_path / "link_table.csv")
    for same in (True, False):
        failures = count_grid(replace(spec, same_data=same), 12.0, *axes)
        np.testing.assert_array_equal(table.tables[("1M", same)], 1.0 - failures / 150)
    assert table.provenance["seed"] == "37"
    back = loads_table(dumps_table(table))
    for key in table.tables:
        np.testing.assert_array_equal(back.tables[key], table.tables[key])
    with pytest.raises(ValueError):
        count_grid(spec, 12.0, [], [0.0], [0.2])


def test_calibrate_slow_vs_fast_ordering():
    # slow beating outperforms fast beating for the uncoded mode
    spec = PhyExperimentSpec(mod=MOD, packet_bits=128, replicas=1500, seed=41)
    failures = count_grid(spec, 12.0, [0.0], [0.0], [0.1, 3.6])
    assert failures[0, 0, 0] < failures[0, 0, 1]


def _key(spec, ebn0_db, chunk=0):
    return tuple(_chunk_rng(spec, ebn0_db, chunk).bit_generator.seed_seq.entropy)


def test_stream_key_is_the_cell():
    spec = PhyExperimentSpec(mod=MOD, power_delta=0.0, time_delta=0.0, seed=7)
    # -0.0 and 0.0 are one cell, in every coordinate
    assert _key(spec, -0.0) == _key(spec, 0.0)
    negative = PhyExperimentSpec(mod=MOD, power_delta=-0.0, time_delta=-0.0, seed=7)
    assert _key(negative, 12.0) == _key(spec, 12.0)
    # a lone transmitter is not a second one at 0 dB
    assert _key(replace(spec, power_delta=None), 12.0) != _key(spec, 12.0)
    # every coordinate, the seed and the chunk are part of the key
    others = [replace(spec, seed=8), replace(spec, power_delta=1.0),
              replace(spec, time_delta=0.5), replace(spec, beat_ratio=1.0),
              replace(spec, same_data=False)]
    keys = {_key(spec, 12.0), _key(spec, 13.0), _key(spec, 12.0, chunk=1)}
    keys |= {_key(s, 12.0) for s in others}
    assert len(keys) == 8


def test_cell_counts_do_not_depend_on_the_grid():
    # a different-data calibration cell, alone and in two grids; on a grid
    # index it would move when --delta-p gains a value
    spec = PhyExperimentSpec(mod=MOD, packet_bits=64, beat_ratio=1.0, same_data=False,
                             replicas=300, seed=43)
    alone = _run_point(replace(spec, power_delta=4.0), 10.0)
    grids = {}
    for same in (False, True):
        cell = replace(spec, same_data=same)
        grids[same] = count_grid(cell, 10.0, [0.0, 4.0, 8.0], [0.0], [1.0])
        grown = count_grid(cell, 10.0, [0.0, 2.0, 4.0, 8.0], [0.0], [1.0])
        np.testing.assert_array_equal(grown[[0, 2, 3]], grids[same])
    k = grids[False][1, 0, 0]
    assert k == np.count_nonzero(alone)
    assert 0 < k < spec.replicas  # both outcomes occur, so another stream would show


@pytest.mark.parametrize("axes", [
    ([0.0, 8.0, 2.0], [0.0], [1.0]),
    ([0.0], [], [1.0]),
    ([0.0], [0.0], [0.1, math.inf]),
    ([math.nan], [0.0], [1.0]),
    ([0.0, 0.0], [0.0], [1.0]),
])
def test_calibrate_rejects_bad_axes_before_any_cell(monkeypatch, axes):
    calls = []
    monkeypatch.setattr(mc, "_run_point", lambda *a: calls.append(a))
    spec = PhyExperimentSpec(mod=MOD, replicas=100)
    with pytest.raises(ValueError):
        count_grid(spec, 12.0, *axes)
    assert calls == []


def _waveform_energies(spec, bits1, bits2, phase1, phase2):
    """Branch energies of the sample-domain reference: phy + rx."""
    mod, L = spec.mod, spec.packet_bits
    if spec.power_delta is None:
        streams = [modulate(bits1, mod, TransmitterSpec(phase=phase1))]
    else:
        f_beat = spec.beat_ratio / (L * mod.symbol_period)
        streams = [
            modulate(bits1, mod, TransmitterSpec(
                amplitude=10 ** (spec.power_delta / 20), cfo=f_beat / 2, phase=phase1)),
            modulate(bits2, mod, TransmitterSpec(
                cfo=-f_beat / 2, time_offset=spec.time_delta * mod.symbol_period,
                phase=phase2)),
        ]
    y = superpose(streams).samples[: L * mod.samples_per_symbol]
    return np.abs(y.reshape(L, -1) @ tone_matrix(mod).T) ** 2


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(0.2, 2.0),
    sps=st.sampled_from([8, 13, 16]),
    L=st.integers(1, 12),
    power_delta=st.none() | st.floats(0.0, 12.0),
    offset_frac=st.floats(0.0, 1.0),
    beat_ratio=st.floats(0.0, 4.0),
    same_data=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# 3 symbols and 4 samples of delay, different data, h = 0.6
@example(h=0.6, sps=16, L=8, power_delta=0.0, offset_frac=52 / 128,
         beat_ratio=1.0, same_data=False, seed=5)
def test_kernel_energies_match_waveform_path(h, sps, L, power_delta, offset_frac,
                                             beat_ratio, same_data, seed):
    # noiseless branch energies of the kernel equal those of modulate +
    # superpose + the rx correlators for the same bits and phases
    mod = ModulationParams(symbol_period=1e-6, freq_deviation=h / 2e-6,
                           samples_per_symbol=sps)
    offset = round(offset_frac * L * sps)  # whole samples, as both paths round
    spec = PhyExperimentSpec(mod=mod, packet_bits=L, power_delta=power_delta,
                             time_delta=offset / sps, beat_ratio=beat_ratio,
                             same_data=same_data, replicas=100)
    rng = np.random.default_rng(seed)
    bits1 = rng.integers(0, 2, size=(1, L), dtype=np.int8)
    bits2 = bits1 if same_data else rng.integers(0, 2, size=(1, L), dtype=np.int8)
    phase1, phase2 = rng.uniform(0.0, 2 * np.pi, 2)
    rel_phase = np.exp(1j * np.array([phase2 - phase1]))
    got = np.abs(_correlate(spec._tables, bits1, bits2, rel_phase)[0]) ** 2
    want = _waveform_energies(spec, bits1[0], bits2[0], phase1, phase2)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * want.max())


def test_kernel_ber_matches_waveform_path_at_non_unit_index():
    # h = 0.6: the two branches' noise is correlated, not independent
    mod = ModulationParams(symbol_period=1e-6, freq_deviation=0.3e6)
    spec = PhyExperimentSpec(mod=mod, packet_bits=128, power_delta=None, replicas=2000, seed=61)
    kernel = run_ber_point(spec, 6.0)
    n_bits = 40_000
    bits = np.random.default_rng(67).integers(0, 2, n_bits)
    stream = add_awgn(modulate(bits, mod, TransmitterSpec(phase=0.7)), 6.0, mod, seed=71)
    errors = count_bit_errors(bits, demodulate(stream, mod, n_bits))
    assert kernel.overlaps(estimate(errors, n_bits))
