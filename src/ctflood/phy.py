"""Complex-baseband BFSK waveform synthesis for concurrent transmitters.

Signals are simulated as baseband-equivalent complex exponentials; the
carrier frequency offset of each transmitter is carried as a residual
rotation. Frequency arguments use each transmitter's own time axis, so a
delayed transmitter is head-padded with zeros after generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ModulationParams:
    """Binary FSK parameters.

    The default deviation of 1/(2*T_S) yields modulation index
    h = 2*df*T_S = 1, the minimum for orthogonal non-coherent detection.
    """

    symbol_period: float
    freq_deviation: Optional[float] = None
    samples_per_symbol: int = 16

    def __post_init__(self):
        if not 0 < self.symbol_period < math.inf:
            raise ValueError("symbol_period must be finite and positive")
        if self.samples_per_symbol < 8:
            raise ValueError("samples_per_symbol must be >= 8")
        if self.freq_deviation is None:
            object.__setattr__(self, "freq_deviation", 1.0 / (2.0 * self.symbol_period))
        if not 0 < self.freq_deviation < math.inf:
            raise ValueError("freq_deviation must be finite and positive")
        if self.modulation_index <= 0:
            raise ValueError("modulation index must be positive")

    @property
    def modulation_index(self) -> float:
        return 2.0 * self.freq_deviation * self.symbol_period

    @property
    def sample_rate(self) -> float:
        return self.samples_per_symbol / self.symbol_period


@dataclass(frozen=True)
class TransmitterSpec:
    """One concurrent transmitter: amplitude, CFO, delay, phase."""

    amplitude: float = 1.0
    cfo: float = 0.0
    time_offset: float = 0.0
    phase: Optional[float] = None  # None: drawn uniformly in [0, 2*pi)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.time_offset < 0:
            raise ValueError("time_offset must be non-negative")


@dataclass(frozen=True)
class SampleStream:
    """Uniformly sampled complex baseband signal."""

    samples: np.ndarray
    sample_rate: float

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def modulate(bits, mod: ModulationParams, tx: TransmitterSpec, rng=None) -> SampleStream:
    """Generate the baseband BFSK stream of one transmitter.

    Bit 1 maps to +freq_deviation, bit 0 to -freq_deviation, on top of the
    transmitter's CFO. A non-zero time_offset is rounded to the sample
    grid and realized as zero-padding at the head.
    """
    bits = np.asarray(bits, dtype=np.int8)
    if bits.ndim != 1 or bits.size == 0:
        raise ValueError("bits must be a non-empty 1-D sequence")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must contain only 0 and 1")

    fs = mod.sample_rate
    if abs(tx.cfo) >= fs / 2.0:
        raise ValueError("cfo outside sampled bandwidth")
    sps = mod.samples_per_symbol
    n_samples = bits.size * sps
    offset = int(round(tx.time_offset * fs))
    if offset > n_samples:
        raise ValueError("time_offset exceeds one packet duration")

    phase = tx.phase
    if phase is None:
        phase = float((rng or np.random.default_rng()).uniform(0.0, 2.0 * np.pi))

    tones = np.repeat(np.where(bits == 1, 1.0, -1.0), sps)
    tau = np.arange(n_samples) / fs
    arg = 2.0 * np.pi * (tx.cfo + tones * mod.freq_deviation) * tau + phase
    samples = tx.amplitude * np.exp(1j * arg)
    if offset:
        samples = np.concatenate([np.zeros(offset, dtype=complex), samples])
    return SampleStream(samples, fs)


def superpose(streams: Sequence[SampleStream]) -> SampleStream:
    """Pointwise complex sum; shorter streams are zero-padded at the tail."""
    if not streams:
        raise ValueError("need at least one stream")
    fs = streams[0].sample_rate
    for s in streams[1:]:
        if not math.isclose(s.sample_rate, fs, rel_tol=1e-12):
            raise ValueError("sample rates differ")
    n = max(len(s) for s in streams)
    total = np.zeros(n, dtype=complex)
    for s in streams:
        total[: len(s)] += s.samples
    return SampleStream(total, fs)


def noise_variance_per_dim(ebn0_db: float, mod: ModulationParams, ref_amplitude: float = 1.0) -> float:
    """Per-dimension Gaussian noise variance for a target Eb/N0.

    The per-bit energy reference is E_b0 = ref_amplitude^2 * T_S / 2 (one
    unmodified transmitter); the variance is N_0 * sample_rate, i.e.
    ref_amplitude^2 * samples_per_symbol / (2 * ebn0_linear). This is the
    one Eb/N0 check: +inf dB is noiseless (0.0), and ValueError is raised
    whenever the variance is not a finite float, which accepts about -3073
    to +3082 dB.
    """
    if ref_amplitude <= 0:
        raise ValueError("ref_amplitude must be positive")
    try:
        var = ref_amplitude**2 * mod.samples_per_symbol / (2.0 * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # the linear ratio overflows or underflows to 0
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(f"ebn0_db={ebn0_db} gives no finite noise variance; "
                         "accepted: about -3073 to +3082 dB, or +inf for noiseless")
    return var


def add_awgn(
    stream: SampleStream,
    ebn0_db: float,
    mod: ModulationParams,
    ref_amplitude: float = 1.0,
    seed: int = 0,
) -> SampleStream:
    """Add circular complex white Gaussian noise; deterministic per seed."""
    var = noise_variance_per_dim(ebn0_db, mod, ref_amplitude)
    if var == 0.0:
        return SampleStream(stream.samples.copy(), stream.sample_rate)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(var)
    noise = rng.normal(0.0, sigma, len(stream)) + 1j * rng.normal(0.0, sigma, len(stream))
    return SampleStream(stream.samples + noise, stream.sample_rate)


def envelope_analytic(a1: float, a2: float, f_beat: float, t) -> float:
    """Positive envelope of two beating carriers: (A1-A2) + 2*A2*|cos(pi*f_beat*t)|."""
    if a1 < 0 or a2 < 0:
        raise ValueError("amplitudes must be non-negative")
    if a2 > a1:
        a1, a2 = a2, a1
    return (a1 - a2) + 2.0 * a2 * np.abs(np.cos(np.pi * f_beat * np.asarray(t, dtype=float)))


def measured_envelope(stream: SampleStream, window: float) -> np.ndarray:
    """Sliding-window peak magnitude; returns an (n, 2) array of (t, volts)."""
    w = int(round(window * stream.sample_rate))
    if w < 1 or w > len(stream) // 8:
        raise ValueError("window out of range")
    n = len(stream) // w
    mags = np.abs(stream.samples[: n * w]).reshape(n, w).max(axis=1)
    t = (np.arange(n) + 0.5) * w / stream.sample_rate
    return np.column_stack([t, mags])
