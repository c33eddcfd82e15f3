"""Per-node state machine of the slotted flooding protocol.

Each dissemination round is split into slots. The initiator transmits the
beacon for the first wait_slots slots of the round; every other node
listens until it hears one beacon, adopts its (round, slot) counters,
retransmits it in the next n_tx slots, then sleeps until the next round.
All synchronized nodes derive the hop channel, a BLE channel in 0-39, from
those counters. Nodes that miss too many rounds in a row fall back to
channel scanning to re-acquire the schedule.

State transitions are pure: every operation returns a new NodeState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

PHASE_SCANNING = "scanning"
PHASE_SYNCED = "synced"

ACT_TX = "transmit"
ACT_RX = "listen"
ACT_SLEEP = "sleep"


@dataclass(frozen=True)
class NodePolicy:
    """Protocol parameters shared by all nodes of a deployment.

    channel_count is len(hop_sequence); passing any other value is an error.
    """

    n_tx: int = 3
    diameter: int = 5
    wait_slots: Optional[int] = None
    resync_threshold: int = 4
    channel_count: Optional[int] = None
    round_period: float = 0.2
    hop_sequence: Tuple[int, ...] = (37, 38, 39)

    def __post_init__(self):
        if self.n_tx < 1 or self.diameter < 0:
            raise ValueError("n_tx must be >= 1 and diameter >= 0")
        if not self.hop_sequence:
            raise ValueError("hop_sequence must be non-empty")
        if self.channel_count not in (None, len(self.hop_sequence)):
            raise ValueError("channel_count must equal len(hop_sequence)")
        object.__setattr__(self, "channel_count", len(self.hop_sequence))
        if not all(0 <= c <= 39 for c in self.hop_sequence):
            raise ValueError("hop channels must lie in 0-39")
        if not 0 < self.round_period < math.inf:
            raise ValueError("round_period must be finite and positive")
        if self.wait_slots is None:
            object.__setattr__(self, "wait_slots", self.n_tx + 2 * self.diameter)
        if self.wait_slots < 1:
            raise ValueError("wait_slots must be positive")

    @property
    def slots_per_round(self) -> int:
        # worst case: a reception in the very last listen slot is still
        # followed by the node's full transmit burst
        return self.wait_slots + self.n_tx


@dataclass(frozen=True)
class NodeState:
    """One node's protocol state; the initiator originates every round's
    beacon and never falls back to scanning."""

    phase: str = PHASE_SYNCED
    is_initiator: bool = False
    round: int = 0
    pending_tx: int = 0
    missed_rounds: int = 0
    received_this_round: bool = False
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
    channel is None for sleep.
    """
    if state.phase == PHASE_SCANNING:
        return ACT_RX, state.scan_channel
    ch = channel_for(state.round, slot, policy.hop_sequence, policy.slots_per_round)
    if state.is_initiator:
        if slot < policy.wait_slots:
            return ACT_TX, ch
        return ACT_SLEEP, None
    if state.pending_tx > 0:
        return ACT_TX, ch
    if not state.received_this_round and slot < policy.wait_slots:
        return ACT_RX, ch
    return ACT_SLEEP, None


def after_transmit(state: NodeState) -> NodeState:
    """Book-keeping after one transmit slot."""
    if state.pending_tx <= 0:
        return state
    return replace(state, pending_tx=state.pending_tx - 1)


def handle_reception(state: NodeState, round_no: int, policy: NodePolicy) -> NodeState:
    """Adopt the round counter of a received beacon and schedule n_tx relays.

    The slot counter needs no state: the caller passes it to next_action.
    """
    if state.received_this_round:
        # duplicate within the round: no extra retransmissions
        return state
    return replace(
        state,
        phase=PHASE_SYNCED,
        round=round_no,
        pending_tx=policy.n_tx,
        missed_rounds=0,
        received_this_round=True,
    )


def scan_step(state: NodeState, policy: NodePolicy, rng) -> NodeState:
    """One scanning period: spend dwell budget, rehop randomly when exhausted."""
    if state.phase != PHASE_SCANNING:
        raise ValueError("scan_step requires the scanning phase")
    left = state.scan_periods_left - 1
    if left > 0:
        return replace(state, scan_periods_left=left)
    ch = policy.hop_sequence[int(rng.integers(0, len(policy.hop_sequence)))]
    return replace(state, scan_channel=ch,
                   scan_periods_left=2 * policy.channel_count)


def start_round(state: NodeState, round_no: int) -> NodeState:
    """Reset per-round flags at the round boundary."""
    if state.phase == PHASE_SCANNING:
        return state
    return replace(state, round=round_no, pending_tx=0, received_this_round=False)


def round_end(state: NodeState, policy: NodePolicy) -> NodeState:
    """Count silent rounds; fall back to scanning at the threshold."""
    if state.is_initiator or state.phase == PHASE_SCANNING:
        return state
    if state.received_this_round:
        return replace(state, missed_rounds=0)
    missed = state.missed_rounds + 1
    if missed >= policy.resync_threshold:
        return replace(
            state,
            phase=PHASE_SCANNING,
            missed_rounds=missed,
            scan_channel=policy.hop_sequence[0],
            scan_periods_left=2 * policy.channel_count,
        )
    return replace(state, missed_rounds=missed)
