"""Two-branch non-coherent BFSK detection.

Each symbol window is correlated against complex tones at plus and minus
the frequency deviation; the branch with more energy wins. Phase is never
used, so constant rotations of the input are irrelevant by construction.
"""

from __future__ import annotations

import numpy as np

from .phy import ModulationParams, SampleStream


def tone_matrix(mod: ModulationParams) -> np.ndarray:
    """Conjugate reference tones for one symbol window, shape (2, sps).

    Row 0 is the bit-0 hypothesis (-freq_deviation), row 1 the bit-1
    hypothesis (+freq_deviation).
    """
    sps = mod.samples_per_symbol
    tau = np.arange(sps) / mod.sample_rate
    lo = np.exp(-1j * 2.0 * np.pi * (-mod.freq_deviation) * tau)
    hi = np.exp(-1j * 2.0 * np.pi * (+mod.freq_deviation) * tau)
    return np.vstack([lo, hi])


def demodulate(stream: SampleStream, mod: ModulationParams, n_bits: int) -> np.ndarray:
    """Decide n_bits symbols starting at the reference timing origin.

    Ties in branch energy go to bit 0.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be positive")
    sps = mod.samples_per_symbol
    needed = n_bits * sps
    if len(stream) < needed:
        raise ValueError("stream too short for requested bit count")
    windows = stream.samples[:needed].reshape(n_bits, sps)
    tones = tone_matrix(mod)
    # correlator outputs, shape (n_bits, 2)
    corr = windows @ tones.T
    energy = np.abs(corr) ** 2
    return (energy[:, 1] > energy[:, 0]).astype(np.int8)


def count_bit_errors(tx_bits, rx_bits) -> int:
    """Hamming distance between equal-length bit sequences."""
    a = np.asarray(tx_bits, dtype=np.int8)
    b = np.asarray(rx_bits, dtype=np.int8)
    if a.shape != b.shape:
        raise ValueError("bit sequences differ in length")
    return int(np.count_nonzero(a != b))
