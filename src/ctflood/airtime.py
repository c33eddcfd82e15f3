"""On-air symbol counts and slot budgets.

Covers the four Bluetooth 5 advertising PHYs plus an IEEE 802.15.4 entry.
Coded modes carry a default 6-byte overhead surcharge so the built-in slot
budgets line up with measured radio firmware; pass strict=True for the
standard-exact arithmetic (see symbols_on_air).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class PhyMode:
    """Radio mode constants: rate, framing overheads, FEC expansion, slot budget."""

    name: str
    symbol_rate: float  # modulation symbols per second
    bit_period: float  # seconds per payload bit after FEC
    preamble_bytes: int
    fec: int  # coded expansion factor S (1 = uncoded)
    radio_setup: float  # seconds, fitted radio ramp-up/processing per slot
    slot_padding: float  # seconds, fitted residual between air time and the full slot
    extra_overhead_bytes: int = 0

    @property
    def coded(self) -> bool:
        return self.fec > 1


MODES: Dict[str, PhyMode] = {
    "2M": PhyMode("2M", 2e6, 0.5e-6, preamble_bytes=2, fec=1,
                  radio_setup=170e-6, slot_padding=11.6e-6),
    "1M": PhyMode("1M", 1e6, 1e-6, preamble_bytes=1, fec=1,
                  radio_setup=154e-6, slot_padding=16.5e-6),
    "500K": PhyMode("500K", 1e6, 2e-6, preamble_bytes=10, fec=2,
                    radio_setup=116e-6, slot_padding=80e-6, extra_overhead_bytes=6),
    "125K": PhyMode("125K", 1e6, 8e-6, preamble_bytes=10, fec=8,
                    radio_setup=195e-6, slot_padding=80e-6, extra_overhead_bytes=6),
    "802154": PhyMode("802154", 62.5e3, 4e-6, preamble_bytes=4, fec=1,
                      radio_setup=328e-6, slot_padding=67e-6),
}
DEFAULT_GUARD = 32e-6


def get_mode(name: str) -> PhyMode:
    key = name.upper().lstrip("-")
    if key not in MODES:
        raise ValueError(f"unknown PHY mode {name!r}")
    return MODES[key]


def symbols_on_air(mode: PhyMode, pdu_len: int, strict: bool = False) -> int:
    """Modulation symbols needed to send one PDU.

    Uncoded modes: 8 * (preamble + 4 access address + pdu + 3 CRC) bits,
    one symbol per bit. Coded modes: 80 preamble symbols, 296 symbols of
    S=8 header (access address, CI, TERM1), then S-expanded payload bits
    plus an S-expanded 3-bit TERM2. With strict=False the payload block
    also carries extra_overhead_bytes; strict=True drops the surcharge.
    The 802.15.4 entry packs 4 bits per DSSS symbol with a 7-byte
    synchronization/length header.
    """
    if not 1 <= pdu_len <= 255:
        raise ValueError("pdu_len must be in [1, 255]")
    if mode.name == "802154":
        return 2 * (pdu_len + 7)
    if not mode.coded:
        return 8 * (mode.preamble_bytes + 4 + pdu_len + 3)
    s = mode.fec
    extra = 0 if strict else mode.extra_overhead_bytes
    header = 80 + 8 * 8 * 4 + 8 * 2 + 8 * 3  # preamble + AA + CI + TERM1
    payload = 8 * s * (pdu_len + 3 + extra) + 3 * s
    return header + payload


def air_time(mode: PhyMode, pdu_len: int, strict: bool = False) -> float:
    """Seconds the PDU occupies the channel."""
    return symbols_on_air(mode, pdu_len, strict) / mode.symbol_rate


def slot_length(mode: PhyMode, pdu_len: int, strict: bool = False) -> float:
    """Full scheduled slot: air time + radio setup + guard + padding."""
    return (air_time(mode, pdu_len, strict) + mode.radio_setup + DEFAULT_GUARD
            + mode.slot_padding)
