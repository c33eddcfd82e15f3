import numpy as np
import pytest

from ctflood import node as nd


def make_policy(**kw):
    kw.setdefault("hop_sequence", (37, 38, 39))
    return nd.NodePolicy(**kw)


def test_policy_defaults_and_validation():
    p = make_policy(n_tx=3, diameter=5)
    assert p.wait_slots == 3 + 2 * 5
    assert p.slots_per_round == p.wait_slots + p.n_tx
    assert make_policy(n_tx=2, diameter=1, wait_slots=9).wait_slots == 9
    with pytest.raises(ValueError):
        make_policy(n_tx=0)
    # channel_count is len(hop_sequence), accepted only as that value
    assert make_policy(channel_count=3).channel_count == 3
    assert nd.NodePolicy(hop_sequence=(37,)).channel_count == 1
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
            st = nd.handle_reception(st, 0, p)
        if kind == nd.ACT_TX:
            st = nd.after_transmit(st)
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
    p = make_policy(n_tx=3, diameter=1)
    scanning = nd.NodeState(phase=nd.PHASE_SCANNING, scan_channel=38,
                            scan_periods_left=4)
    synced = nd.handle_reception(scanning, 12, p)
    assert synced.phase == nd.PHASE_SYNCED
    assert synced.round == 12
    assert synced.pending_tx == p.n_tx
    assert synced.missed_rounds == 0
    # duplicate reception in the same round grants no extra transmissions
    later = nd.after_transmit(synced)
    again = nd.handle_reception(later, 12, p)
    assert again == later


def test_relay_keeps_the_full_round_counter():
    # a round counter cut to 16 bits would put the relay on another channel:
    # 65536 * slots_per_round (10) is not a multiple of the 3 hop channels
    p = make_policy(n_tx=3, diameter=2)
    assert p.slots_per_round == 10
    r, s = 70_000, 4
    relay = nd.handle_reception(nd.start_round(nd.NodeState(), r), r, p)
    kind, chan = nd.next_action(relay, p, s + 1)
    want = nd.channel_for(r, s + 1, p.hop_sequence, p.slots_per_round)
    assert kind == nd.ACT_TX and chan == want
    initiator = nd.start_round(nd.NodeState(is_initiator=True), r)
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
    p = make_policy(channel_count=3)
    st = nd.NodeState(phase=nd.PHASE_SCANNING, scan_channel=37,
                      scan_periods_left=2 * p.channel_count)
    rng = np.random.default_rng(0)
    for _ in range(2 * p.channel_count - 1):
        before = st.scan_channel
        st = nd.scan_step(st, p, rng)
        assert st.scan_channel == before  # dwell: same channel for 2C periods
    st = nd.scan_step(st, p, rng)  # budget exhausted: rehop
    assert st.scan_periods_left == 2 * p.channel_count
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
    st = nd.NodeState()
    for i in range(3):
        st = nd.round_end(st, p)
        assert st.phase == nd.PHASE_SYNCED
        assert st.missed_rounds == i + 1
    st = nd.round_end(st, p)
    assert st.phase == nd.PHASE_SCANNING
    assert st.scan_periods_left == 2 * p.channel_count
    # a reception clears the miss counter
    fresh = nd.round_end(
        nd.NodeState(received_this_round=True, missed_rounds=2), p
    )
    assert fresh.missed_rounds == 0


def test_initiator_never_scans():
    p = make_policy(resync_threshold=1)
    st = nd.NodeState(is_initiator=True)
    for _ in range(5):
        st = nd.round_end(st, p)
    assert st.phase == nd.PHASE_SYNCED


def test_next_action_total_over_reachable_states():
    p = make_policy(n_tx=2, diameter=1)
    for phase, initiator in ((nd.PHASE_SCANNING, False), (nd.PHASE_SYNCED, False),
                             (nd.PHASE_SYNCED, True)):
        for pending in range(p.n_tx + 1):
            for received in (False, True):
                st = nd.NodeState(phase=phase, is_initiator=initiator,
                                  pending_tx=pending, received_this_round=received,
                                  scan_periods_left=2)
                for s in range(p.slots_per_round):
                    kind, chan = nd.next_action(st, p, s)
                    assert kind in (nd.ACT_TX, nd.ACT_RX, nd.ACT_SLEEP)
                    assert (chan is None) == (kind == nd.ACT_SLEEP)
