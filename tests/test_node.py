from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctflood import node as nd


def make_policy(**kw):
    kw.setdefault("hop_sequence", (37, 38, 39))
    return nd.NodePolicy(**kw)


def test_policy_defaults_and_validation():
    p = make_policy(n_tx=3, diameter=5)
    assert p.wait_slots == 3 + 2 * 5
    assert p.slots_per_round == p.wait_slots + p.n_tx
    with pytest.raises(ValueError):
        make_policy(n_tx=0)
    # derived values follow the fields they derive from, also through replace
    assert replace(nd.NodePolicy(n_tx=3, diameter=5), n_tx=5).wait_slots == 15
    # ... also when the policy replaced has already computed them
    longer = replace(p, n_tx=5)
    assert (longer.wait_slots, longer.slots_per_round) == (15, 20)
    one = replace(make_policy(), hop_sequence=(37,))
    assert one == nd.NodePolicy(hop_sequence=(37,))
    # channel_count is accepted only as len(hop_sequence), and not stored
    assert make_policy(channel_count=3) == make_policy()
    assert nd.NodePolicy(hop_sequence=(37,), channel_count=1) == one
    for bad in (41, 2, 0):
        with pytest.raises(ValueError):
            make_policy(channel_count=bad)
    with pytest.raises(ValueError):
        nd.NodePolicy(hop_sequence=(37,), channel_count=3)
    with pytest.raises(ValueError):
        nd.NodePolicy(hop_sequence=())
    for bad in ((99,), (37, -4), (40,)):
        with pytest.raises(ValueError):
            make_policy(hop_sequence=bad)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_policy(round_period=bad)
    assert make_policy(hop_sequence=(0, 39)).hop_sequence == (0, 39)


def test_initiator_schedule():
    p = make_policy(n_tx=2, diameter=2)
    st = nd.NodeState(is_initiator=True)
    for s in range(p.slots_per_round):
        kind, chan = nd.next_action(st, p, s)
        if s < p.wait_slots:
            assert kind == nd.ACT_TX
            assert chan == nd.channel_for(0, s, p.hop_sequence, p.slots_per_round)
        else:
            assert kind == nd.ACT_SLEEP


def test_non_initiator_listen_then_burst_then_sleep():
    p = make_policy(n_tx=3, diameter=1)
    st = nd.NodeState()
    k = 2  # reception slot
    actions = []
    for s in range(p.slots_per_round):
        kind, _ = nd.next_action(st, p, s)
        actions.append(kind)
        if kind == nd.ACT_RX and s == k:
            st = nd.handle_reception(st, 0, s)
    assert actions[: k + 1] == [nd.ACT_RX] * (k + 1)
    assert actions[k + 1 : k + 4] == [nd.ACT_TX] * 3
    assert all(a == nd.ACT_SLEEP for a in actions[k + 4 :])


def test_no_reception_sleeps_after_wait():
    p = make_policy(n_tx=3, diameter=1)
    st = nd.NodeState()
    actions = [nd.next_action(st, p, s)[0] for s in range(p.slots_per_round)]
    assert actions[: p.wait_slots] == [nd.ACT_RX] * p.wait_slots
    assert all(a == nd.ACT_SLEEP for a in actions[p.wait_slots :])


def test_handle_reception_sync_and_idempotence():
    scanning = nd.NodeState(phase=nd.PHASE_SCANNING, scan_channel=38,
                            scan_periods_left=4)
    synced = nd.handle_reception(scanning, 12, 5)
    assert synced.phase == nd.PHASE_SYNCED
    assert synced.round == 12
    assert synced.rx_slot == 5
    assert synced.missed_rounds == 0
    # duplicate reception in the same round grants no extra transmissions
    assert nd.handle_reception(synced, 12, 6) == synced


def test_relay_keeps_the_full_round_counter():
    # a round counter cut to 16 bits would put the relay on another channel:
    # 65536 * slots_per_round (10) is not a multiple of the 3 hop channels
    p = make_policy(n_tx=3, diameter=2)
    assert p.slots_per_round == 10
    r, s = 70_000, 4
    relay = nd.handle_reception(nd.NodeState(), r, s)
    kind, chan = nd.next_action(relay, p, s + 1)
    want = nd.channel_for(r, s + 1, p.hop_sequence, p.slots_per_round)
    assert kind == nd.ACT_TX and chan == want
    initiator = nd.NodeState(is_initiator=True, round=r)
    assert nd.next_action(initiator, p, s + 1) == (nd.ACT_TX, want)
    assert want != nd.channel_for(r & 0xFFFF, s + 1, p.hop_sequence, p.slots_per_round)


def test_channel_for_indexing():
    assert nd.channel_for(0, 0, [37], 10) == 37
    assert nd.channel_for(5, 9, [37], 10) == 37
    assert nd.channel_for(0, 0, [37, 38, 39], 13) == 37
    assert nd.channel_for(0, 1, [37, 38, 39], 13) == 38
    # equal counters always map to equal channels
    for r in range(4):
        for s in range(13):
            a = nd.channel_for(r, s, (4, 9, 2, 7), 13)
            b = nd.channel_for(r, s, (4, 9, 2, 7), 13)
            assert a == b
    with pytest.raises(ValueError):
        nd.channel_for(0, 0, [], 10)


def test_scan_step_dwell_and_rehop():
    p = make_policy()
    c = len(p.hop_sequence)
    st = nd.NodeState(phase=nd.PHASE_SCANNING, scan_channel=37,
                      scan_periods_left=2 * c)
    rng = np.random.default_rng(0)
    for _ in range(2 * c - 1):
        before = st.scan_channel
        st = nd.scan_step(st, p, rng)
        assert st.scan_channel == before  # dwell: same channel for 2C periods
    st = nd.scan_step(st, p, rng)  # budget exhausted: rehop
    assert st.scan_periods_left == 2 * c
    assert st.scan_channel in p.hop_sequence
    # reproducible walk for a fixed seed
    walk = lambda seed: [
        nd.scan_step(
            nd.NodeState(phase=nd.PHASE_SCANNING, scan_periods_left=1),
            p, np.random.default_rng(seed),
        ).scan_channel
        for _ in range(5)
    ]
    assert walk(3) == walk(3)
    with pytest.raises(ValueError):
        nd.scan_step(nd.NodeState(), p, rng)


def test_round_end_resync_threshold():
    p = make_policy(resync_threshold=4)
    rng = np.random.default_rng(0)
    st = nd.NodeState()
    for i in range(3):
        st = nd.round_end(st, p, rng)
        assert st.phase == nd.PHASE_SYNCED
        assert st.missed_rounds == i + 1
        assert st.round == i + 1
    st = nd.round_end(st, p, rng)
    assert st.phase == nd.PHASE_SCANNING
    assert st.scan_channel == p.hop_sequence[0]
    assert st.scan_periods_left == 2 * len(p.hop_sequence)
    # a scanning node takes one scan step per round boundary
    assert nd.round_end(st, p, rng) == nd.scan_step(st, p, rng)
    # a reception clears the miss counter; the boundary clears the reception
    heard = nd.handle_reception(nd.NodeState(round=7, missed_rounds=2), 7, 3)
    assert heard.missed_rounds == 0
    assert nd.round_end(heard, p, rng) == nd.NodeState(round=8)


def test_initiator_never_scans():
    p = make_policy(resync_threshold=1)
    rng = np.random.default_rng(0)
    st = nd.NodeState(is_initiator=True)
    for _ in range(5):
        st = nd.round_end(st, p, rng)
    assert st == nd.NodeState(is_initiator=True, round=5)


def test_next_action_total_over_reachable_states():
    p = make_policy(n_tx=2, diameter=1)
    relays = [nd.NodeState(rx_slot=k) for k in (None, *range(p.slots_per_round))]
    reachable = [nd.NodeState(phase=nd.PHASE_SCANNING, scan_periods_left=2),
                 nd.NodeState(is_initiator=True), *relays]
    for state in reachable:
        for s in range(p.slots_per_round):
            kind, chan = nd.next_action(state, p, s)
            assert kind in (nd.ACT_TX, nd.ACT_RX, nd.ACT_SLEEP)
            assert (chan is None) == (kind == nd.ACT_SLEEP)


@settings(max_examples=300, deadline=None)
@given(
    n_tx=st.integers(1, 5),
    diameter=st.integers(0, 5),
    hops=st.lists(st.integers(0, 39), min_size=1, max_size=4),
    round_no=st.integers(0, 10 ** 6),
    scanning=st.booleans(),
    heard=st.booleans(),
    data=st.data(),
)
def test_reception_slot_fixes_the_round(n_tx, diameter, hops, round_no, scanning,
                                        heard, data):
    """A node listens only before its reception, transmits exactly in the n_tx
    slots after it and sleeps otherwise; a scanning node can re-sync in any
    slot, a synced one only within the listen window."""
    p = make_policy(n_tx=n_tx, diameter=diameter, hop_sequence=tuple(hops))
    last = (p.slots_per_round if scanning else p.wait_slots) - 1
    rx = data.draw(st.integers(0, last)) if heard else None
    state = (nd.NodeState(phase=nd.PHASE_SCANNING, scan_channel=hops[-1],
                          scan_periods_left=1)
             if scanning else nd.NodeState(round=round_no))
    for s in range(p.slots_per_round):
        kind, chan = nd.next_action(state, p, s)
        hop = nd.channel_for(round_no, s, p.hop_sequence, p.slots_per_round)
        if rx is not None and rx < s <= rx + n_tx:
            assert (kind, chan) == (nd.ACT_TX, hop)
        elif rx is not None and s > rx:
            assert kind == nd.ACT_SLEEP
        elif scanning:
            assert (kind, chan) == (nd.ACT_RX, hops[-1])
        elif s < p.wait_slots:
            assert (kind, chan) == (nd.ACT_RX, hop)
        else:
            assert kind == nd.ACT_SLEEP
        if s == rx:
            state = nd.handle_reception(state, round_no, s)
    assert state.rx_slot == rx


@settings(max_examples=50, deadline=None)
@given(heard=st.lists(st.one_of(st.none(), st.integers(0, 12)), max_size=40),
       hops=st.lists(st.integers(0, 39), min_size=1, max_size=4))
def test_relay_and_initiator_share_the_channel_every_round(heard, hops):
    """After k round boundaries a synced relay and the initiator, both started
    at round 0, pick the same channel in every slot, whether or not the relay
    heard a beacon in the rounds before."""
    p = make_policy(n_tx=3, diameter=5, hop_sequence=tuple(hops),
                    resync_threshold=10 ** 9)
    rng = np.random.default_rng(0)
    relay, initiator = nd.NodeState(), nd.NodeState(is_initiator=True)
    for k, rx in enumerate(heard):
        for s in range(p.slots_per_round):
            want = nd.channel_for(k, s, p.hop_sequence, p.slots_per_round)
            for who in (relay, initiator):
                kind, chan = nd.next_action(who, p, s)
                assert chan in (None, want)
            if s == rx:
                relay = nd.handle_reception(relay, k, s)
        relay = nd.round_end(relay, p, rng)
        initiator = nd.round_end(initiator, p, rng)
        assert relay.phase == nd.PHASE_SYNCED
        assert relay.round == initiator.round == k + 1
