"""Monte Carlo BER/PER experiments for one or two concurrent transmitters.

The kernel works in the symbol domain. The two-branch non-coherent
detector only sees the correlator outputs of each symbol window, so the
kernel computes those directly instead of synthesizing the waveform of
`phy.modulate` and `phy.superpose` sample by sample:

- A transmitter's contribution to a branch is its phase times a geometric
  sum over the window's samples and a per-symbol rotation. Both depend only
  on the bit, the symbol index and the branch, so one small table per
  transmitter, built once per spec, holds them. A delayed transmitter 2
  reaches into a window with the tail of one bit and the head of the next;
  its table is indexed by that pair of bits.
- Noise is drawn in the branch domain as complex Gaussian pairs with the
  covariance the per-sample noise has after correlation: 2*sigma^2*K with
  K[a, b] = sum_s exp(j(w_b - w_a) s). This holds for any modulation
  index; at h = 1 the tones are orthogonal and K = sps * I.
- A chunk draws its bits and phases whole, then runs in row blocks of about
  BLOCK_WINDOWS symbol windows, so its memory is bounded per block. Blocks
  draw their noise in row order, and a Generator gives the same normals into
  one array or consecutive ones: the counts do not depend on the block size.

`phy` and `rx` remain the sample-domain reference the kernel is tested
against. A cell is a spec plus one Eb/N0 value. Its replica streams are
keyed by what the cell is (seed, Eb/N0, power delta, time delta, beat
ratio, payload case) and by chunk index, so a cell gives the same counts
alone or inside any sweep or grid, and chunks can be computed in any order,
or in parallel, with identical pooled results.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from statistics import NormalDist
from typing import Optional, Sequence, Tuple

import numpy as np

from .phy import ModulationParams, noise_variance_per_dim
from .linkmodel import check_axes

CHUNK_PACKETS = 2000
BLOCK_WINDOWS = 16384  # symbol windows per row block of a chunk: its arrays stay cache-sized
CONFIDENCE = 0.99  # of the Wilson intervals that estimate reports


@dataclass(frozen=True)
class PhyExperimentSpec:
    """The two-transmitter packet experiment; with one Eb/N0 value, one cell.

    power_delta is 20*log10(A1/A2) with transmitter 1 the stronger one;
    None means a single transmitter. The weaker transmitter stays at the
    reference amplitude that defines Eb/N0, the stronger one is boosted.
    time_delta is transmitter 2's delay in fractions of a symbol;
    beat_ratio is packet air time over beat period.
    """

    mod: ModulationParams
    packet_bits: int = 128
    power_delta: Optional[float] = 0.0
    time_delta: float = 0.0
    beat_ratio: float = 0.25
    same_data: bool = True
    replicas: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be positive")
        if self.replicas < 100:
            raise ValueError("need at least 100 replicas per estimate")
        if self.power_delta is not None and self.power_delta < 0:
            raise ValueError("power_delta is defined as a non-negative dB value")
        for value in (self.power_delta, self.time_delta, self.beat_ratio):
            if value is not None and not math.isfinite(value):
                raise ValueError("power_delta, time_delta and beat_ratio must be finite")
        if self.beat_ratio < 0 or self.time_delta < 0:
            raise ValueError("beat_ratio and time_delta must be non-negative")
        sps = self.mod.samples_per_symbol
        # the largest branch energy, ((A1 + A2) * sps)^2, must be a finite float,
        # with a factor 2 to spare for rounding and noise
        limit = 10.0 * math.log10(sys.float_info.max / 2.0) - 20.0 * math.log10(sps)
        if self.power_delta is not None and self.power_delta > limit:
            raise ValueError(f"power_delta={self.power_delta} dB gives no finite branch energy; "
                             f"accepted: 0 to about {limit:.0f} dB at {sps} samples per symbol")
        if round(self.time_delta * sps) > self.packet_bits * sps:
            raise ValueError("time_delta exceeds one packet duration")

    @cached_property
    def _tables(self) -> _BranchTables:
        return _BranchTables(self)


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    ci_low: float
    ci_high: float
    n_trials: int

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.point <= self.ci_high <= 1.0):
            raise ValueError("inconsistent estimate bounds")

    def overlaps(self, other: "EstimateWithCI") -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    @property
    def width(self) -> float:
        return self.ci_high - self.ci_low


def wilson_ci(k: int, n: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion, exactly 0 at k = 0 and 1 at k = n."""
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def estimate(k: int, n: int) -> EstimateWithCI:
    """k of n trials, as the proportion k/n with its Wilson interval at CONFIDENCE."""
    lo, hi = wilson_ci(k, n, CONFIDENCE)
    return EstimateWithCI(k / n, lo, hi, n)


class _BranchTables:
    """Per-symbol correlator terms of one spec, built once per spec object.

    tx1[m, b, beta] is transmitter 1's contribution to branch beta of
    symbol window m when it sends bit b there. Transmitter 2 is delayed by
    q*sps + o samples, so window m >= q holds the last o samples of its bit
    m-q-1 and the first sps-o samples of its bit m-q; tx2[m-q, 2*b_prev +
    b, beta] is the sum of both pieces. chol is the lower Cholesky factor
    of the branch noise covariance over 2*sigma^2.
    """

    def __init__(self, spec: PhyExperimentSpec):
        mod = spec.mod
        sps = mod.samples_per_symbol
        L = spec.packet_bits
        step = 2.0 * np.pi * mod.freq_deviation / mod.sample_rate
        tone = np.array([-step, step])  # index 0: bit-0 tone / branch, 1: bit-1

        def window_sum(nu, lo, hi):
            # sum over s in [lo, hi) of exp(j(tone_b + nu - tone_beta) s), shape (b, beta)
            x = tone[:, None] + nu - tone[None, :]
            return np.exp(1j * x[..., None] * np.arange(lo, hi)).sum(axis=-1)

        def rotation(nu, first):
            # exp(j(tone_b + nu) k) at k = first + i*sps, shape (i, b, 1)
            k = first + sps * np.arange(L)
            return np.exp(1j * np.outer(k, tone + nu))[:, :, None]

        if spec.power_delta is None:
            self.tx1 = rotation(0.0, 0) * window_sum(0.0, 0, sps)
            self.tx2 = None
        else:
            # CFO of +-f_beat/2 as a per-sample phase step
            nu = np.pi * spec.beat_ratio / (L * sps)
            a1 = 10.0 ** (spec.power_delta / 20.0)
            self.tx1 = a1 * rotation(nu, 0) * window_sum(nu, 0, sps)
            q, o = divmod(int(round(spec.time_delta * sps)), sps)
            n_win = L - q
            # both pieces in window q + i start at transmitter-2 sample i*sps - o
            rot = rotation(-nu, -o)
            head = rot * window_sum(-nu, o, sps)  # bit i
            tail = rot * window_sum(-nu, 0, o)  # bit i - 1
            tail[0] = 0.0
            tx2 = head[:n_win, None, :, :] + tail[:n_win, :, None, :]
            self.q = q
            self.tx2 = tx2.reshape(n_win, 4, 2)
        # K[a, b] = sum_s exp(j(tone_b - tone_a) s); K[0, 0] = K[1, 1] = sps
        k10 = np.exp(-2j * step * np.arange(sps)).sum()
        c00 = math.sqrt(sps)
        c10 = k10 / c00
        self.chol = (c00, c10, math.sqrt(max(0.0, sps - abs(c10) ** 2)))


def _correlate(
    tables: _BranchTables,
    bits1: np.ndarray,
    bits2: Optional[np.ndarray],
    rel_phase: Optional[np.ndarray],
) -> np.ndarray:
    """Noiseless correlator outputs, shape (packets, L, 2), branch 1 = bit 1.

    Transmitter 1 is taken at phase 0 and transmitter 2 at rel_phase (per
    packet) relative to it: branch energies depend on nothing else, and
    the noise is circular.
    """
    L = bits1.shape[1]
    index = 2 * np.arange(L) + bits1
    out = np.take(tables.tx1.reshape(2 * L, 2), index, axis=0)
    if tables.tx2 is not None and len(tables.tx2):
        n_win = len(tables.tx2)
        code = bits2[:, :n_win].astype(np.intp)
        code[:, 1:] += 2 * bits2[:, : n_win - 1]
        code += 4 * np.arange(n_win)
        piece = np.take(tables.tx2.reshape(4 * n_win, 2), code, axis=0)
        piece *= rel_phase[:, None, None]
        out[:, tables.q:] += piece
    return out


def _simulate_chunk(
    spec: PhyExperimentSpec, ebn0_db: float, n_packets: int, rng: np.random.Generator
) -> np.ndarray:
    """Bit-error count per packet for one chunk of replicas, in row blocks."""
    var = noise_variance_per_dim(ebn0_db, spec.mod, ref_amplitude=1.0)
    L = spec.packet_bits
    bits1 = rng.integers(0, 2, size=(n_packets, L), dtype=np.int8)
    phase1 = rng.uniform(0.0, 2 * np.pi, n_packets)  # drawn even alone: fixes the stream order
    bits2 = rel_phase = None
    if spec.power_delta is not None:
        bits2 = bits1 if spec.same_data else rng.integers(0, 2, size=(n_packets, L), dtype=np.int8)
        rel_phase = np.exp(1j * (rng.uniform(0.0, 2 * np.pi, n_packets) - phase1))
    sigma = math.sqrt(var)
    c00, c10, c11 = (sigma * x for x in spec._tables.chol)
    # scale sigma > 1 down to about 1 by a power of two, which is exact, so
    # no energy overflows and no decision moves; scaling a tiny sigma up
    # would overflow a strong signal instead
    exponent = math.frexp(sigma)[1]
    errors = np.empty(n_packets, dtype=np.intp)
    step = max(1, BLOCK_WINDOWS // L)
    for lo in range(0, n_packets, step):
        rows = slice(lo, lo + step)
        c = _correlate(spec._tables, bits1[rows], None if bits2 is None else bits2[rows],
                       None if rel_phase is None else rel_phase[rows])
        if var > 0.0:  # a block's normals continue where the previous block's stopped
            w = rng.standard_normal((len(c), L, 4)).view(complex)
            c[..., 0] += c00 * w[..., 0]
            c[..., 1] += c10 * w[..., 0] + c11 * w[..., 1]
            if exponent > 0:
                c *= 2.0 ** -exponent
        energy = np.square(c.real) + np.square(c.imag)
        errors[rows] = np.count_nonzero((energy[..., 1] > energy[..., 0]) != bits1[rows], axis=1)
    return errors


def _key_word(x: Optional[float]) -> int:
    """IEEE-754 bit pattern of x + 0.0, so -0.0 and 0.0 are one word; 2**64 for None."""
    if x is None:
        return 2**64
    return struct.unpack("<Q", struct.pack("<d", x + 0.0))[0]


def _chunk_rng(spec: PhyExperimentSpec, ebn0_db: float, chunk: int) -> np.random.Generator:
    """Replica stream of one chunk of the cell (spec, ebn0_db), keyed by what the cell is."""
    key = [spec.seed, _key_word(ebn0_db), _key_word(spec.power_delta),
           _key_word(spec.time_delta), _key_word(spec.beat_ratio), int(spec.same_data), chunk]
    return np.random.default_rng(key)


def _run_point(spec: PhyExperimentSpec, ebn0_db: float) -> np.ndarray:
    """Per-packet error counts for all replicas of one cell."""
    counts = []
    for chunk, done in enumerate(range(0, spec.replicas, CHUNK_PACKETS)):
        m = min(CHUNK_PACKETS, spec.replicas - done)
        counts.append(_simulate_chunk(spec, ebn0_db, m, _chunk_rng(spec, ebn0_db, chunk)))
    return np.concatenate(counts)


def run_ber_point(spec: PhyExperimentSpec, ebn0_db: float) -> EstimateWithCI:
    """Bit error rate of one cell over all replica packets."""
    errors = _run_point(spec, ebn0_db)
    return estimate(int(errors.sum()), spec.replicas * spec.packet_bits)


def run_per_point(spec: PhyExperimentSpec, ebn0_db: float) -> EstimateWithCI:
    """Packet error rate of one cell."""
    errors = _run_point(spec, ebn0_db)
    return estimate(int(np.count_nonzero(errors)), spec.replicas)


def count_grid(spec: PhyExperimentSpec, ebn0_db: float, dp_axis: Sequence[float],
               dt_axis: Sequence[float], br_axis: Sequence[float]) -> np.ndarray:
    """Failed packets, out of spec.replicas, in every cell of a power delta x
    time delta x beat ratio grid; the axes and every cell's spec are checked
    before any cell runs.

    Each cell draws its own replica streams (see _chunk_rng), so its count
    does not depend on the rest of the grid.
    """
    check_axes(dp_axis, dt_axis, br_axis)
    cells = [replace(spec, power_delta=float(dp), time_delta=float(dt), beat_ratio=float(br))
             for dp, dt, br in itertools.product(dp_axis, dt_axis, br_axis)]
    failures = [np.count_nonzero(_run_point(cell, ebn0_db)) for cell in cells]
    return np.array(failures, dtype=int).reshape(len(dp_axis), len(dt_axis), len(br_axis))
