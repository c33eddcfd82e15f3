"""Per-node state machine of the slotted flooding protocol.

Each dissemination round is split into slots. The initiator transmits the
beacon for the first wait_slots slots of the round; every other node
listens until it hears one beacon, adopts its (round, slot) counters,
retransmits it in the next n_tx slots, then sleeps until the next round.
The slot of that reception is the only per-round record a node keeps.
All synchronized nodes derive the hop channel, a BLE channel in 0-39, from
those counters. Nodes that miss too many rounds in a row fall back to
channel scanning to re-acquire the schedule.

State transitions are pure: every operation returns a new NodeState.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Tuple

PHASE_SCANNING = "scanning"
PHASE_SYNCED = "synced"

ACT_TX = "transmit"
ACT_RX = "listen"
ACT_SLEEP = "sleep"


@dataclass(frozen=True)
class NodePolicy:
    """Protocol parameters shared by all nodes of a deployment.

    channel_count is accepted only as len(hop_sequence) and is not stored.
    wait_slots and slots_per_round derive from the fields, once per policy.
    """

    n_tx: int = 3
    diameter: int = 5
    resync_threshold: int = 4
    round_period: float = 0.2
    hop_sequence: Tuple[int, ...] = (37, 38, 39)
    channel_count: InitVar[Optional[int]] = None

    def __post_init__(self, channel_count):
        if self.n_tx < 1 or self.diameter < 0:
            raise ValueError("n_tx must be >= 1 and diameter >= 0")
        if not self.hop_sequence:
            raise ValueError("hop_sequence must be non-empty")
        if channel_count not in (None, len(self.hop_sequence)):
            raise ValueError("channel_count must equal len(hop_sequence)")
        if not all(0 <= c <= 39 for c in self.hop_sequence):
            raise ValueError("hop channels must lie in 0-39")
        if not 0 < self.round_period < math.inf:
            raise ValueError("round_period must be finite and positive")

    @cached_property
    def wait_slots(self) -> int:
        # listen window: long enough for a beacon to cross the diameter
        return self.n_tx + 2 * self.diameter

    @cached_property
    def slots_per_round(self) -> int:
        # worst case: a reception in the very last listen slot is still
        # followed by the node's full transmit burst
        return self.wait_slots + self.n_tx


@dataclass(frozen=True)
class NodeState:
    """One node's protocol state; the initiator originates every round's
    beacon and never falls back to scanning. rx_slot is the slot of this
    round's reception, None before it."""

    phase: str = PHASE_SYNCED
    is_initiator: bool = False
    round: int = 0
    rx_slot: Optional[int] = None
    missed_rounds: int = 0
    scan_channel: int = 37
    scan_periods_left: int = 0


def channel_for(round_no: int, slot: int, hop_sequence: Sequence[int],
                slots_per_round: int) -> int:
    """Hop channel shared by all synchronized nodes at a given counter pair."""
    if not hop_sequence:
        raise ValueError("hop_sequence must be non-empty")
    return hop_sequence[(round_no * slots_per_round + slot) % len(hop_sequence)]


def next_action(state: NodeState, policy: NodePolicy, slot: int):
    """Decide the radio action for one slot.

    Returns (kind, channel) where kind is one of transmit/listen/sleep;
    channel is None for sleep. A relay listens until its reception and
    transmits in the n_tx slots after it.
    """
    if state.phase == PHASE_SCANNING:
        return ACT_RX, state.scan_channel
    if state.is_initiator:
        kind = ACT_TX if slot < policy.wait_slots else ACT_SLEEP
    elif state.rx_slot is None:
        kind = ACT_RX if slot < policy.wait_slots else ACT_SLEEP
    elif state.rx_slot < slot <= state.rx_slot + policy.n_tx:
        kind = ACT_TX
    else:
        kind = ACT_SLEEP
    if kind == ACT_SLEEP:
        return ACT_SLEEP, None
    return kind, channel_for(state.round, slot, policy.hop_sequence,
                             policy.slots_per_round)


def handle_reception(state: NodeState, round_no: int, slot: int) -> NodeState:
    """Adopt the round counter of a beacon received in `slot` and record the
    slot, which next_action relays the beacon after."""
    if state.rx_slot is not None:
        # duplicate within the round: no extra retransmissions
        return state
    return replace(state, phase=PHASE_SYNCED, round=round_no, rx_slot=slot,
                   missed_rounds=0)


def scan_step(state: NodeState, policy: NodePolicy, rng) -> NodeState:
    """One scanning period: spend dwell budget, rehop randomly when exhausted."""
    if state.phase != PHASE_SCANNING:
        raise ValueError("scan_step requires the scanning phase")
    left = state.scan_periods_left - 1
    if left > 0:
        return replace(state, scan_periods_left=left)
    ch = policy.hop_sequence[int(rng.integers(0, len(policy.hop_sequence)))]
    return replace(state, scan_channel=ch,
                   scan_periods_left=2 * len(policy.hop_sequence))


def round_end(state: NodeState, policy: NodePolicy, rng) -> NodeState:
    """The round boundary.

    A scanning node takes one scan step. A synced node that heard no beacon
    counts a silent round and falls back to scanning at the threshold;
    otherwise it moves to the next round with no reception yet.
    """
    if state.phase == PHASE_SCANNING:
        return scan_step(state, policy, rng)
    if state.is_initiator or state.rx_slot is not None:
        return replace(state, round=state.round + 1, rx_slot=None)
    missed = state.missed_rounds + 1
    if missed >= policy.resync_threshold:
        return replace(
            state,
            phase=PHASE_SCANNING,
            missed_rounds=missed,
            scan_channel=policy.hop_sequence[0],
            scan_periods_left=2 * len(policy.hop_sequence),
        )
    return replace(state, round=state.round + 1, missed_rounds=missed)
