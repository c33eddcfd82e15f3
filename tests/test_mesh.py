import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from ctflood import mesh
from ctflood import node as nd
from ctflood.airtime import get_mode
from ctflood.linkmodel import (LinkTable, _interp_weights, paper_default_table,
                                reception_probability)
from ctflood.node import NodePolicy


def bernoulli_table(p, mode="2M"):
    return LinkTable([0.0], [0.0], [1.0], {(mode, True): np.full((1, 1, 1), p)})


def chain_topology(n, gain=-60.0, cfo_step=2e3):
    edges = [(i, i + 1, gain) for i in range(n - 1)]
    return mesh.Topology.build(edges, n, cfo=[i * cfo_step for i in range(n)])


def test_topology_validation():
    with pytest.raises(ValueError, match="do not match"):
        mesh.Topology([0, 1], [1], [-60.0, -60.0], np.zeros(2))
    with pytest.raises(ValueError, match="initiator"):
        mesh.Topology([], [], [], np.zeros(2), initiator=5)
    # every link rule lives in the constructor: unknown ids, non-finite gains
    # (no link is a missing pair) and a repeated pair are rejected
    for src, dst, gain, match in [
        ([0, 2], [1, 0], [-60.0, -60.0], "2->0 names an unknown"),
        ([0], [-1], [-60.0], "unknown node"),
        ([0.5, 1], [1, 0], [-60.0, -60.0], "0.5->1 names an unknown"),
        ([0], [np.nan], [-60.0], "unknown node"),
        ([0, 1], [1, 0], [-60.0, -np.inf], "finite"),
        ([0], [1], [np.nan], "finite"),
        ([1, 0, 1], [0, 1, 0], [-60.0, -60.0, -70.0], "1->0 is listed twice"),
    ]:
        with pytest.raises(ValueError, match=match):
            mesh.Topology(src, dst, gain, np.zeros(2))
    with pytest.raises(ValueError, match="listed twice"):
        mesh.Topology.build([(0, 1, -60.0), (0, 1, -70.0)], 2, cfo=[0.0, 0.0], symmetric=False)
    with pytest.raises(ValueError, match="node count"):
        mesh.Topology.build([(0, 1, -60.0)], 3, cfo=[0.0, 0.0])
    topo = chain_topology(4)
    assert topo.n_nodes == 4
    assert list(topo.hop_distances()) == [0, 1, 2, 3]
    # distances follow link direction; an unreachable node reads -1
    one_way = mesh.Topology.build([(1, 2, -60.0), (1, 0, -60.0)], 4, cfo=[0.0] * 4,
                                  initiator=1, symmetric=False)
    assert list(one_way.hop_distances()) == [1, 0, 1, -1]
    assert one_way.out_links == [[], [0, 2], [], []]
    assert one_way.in_gains == [{1: -60.0}, {}, {1: -60.0}, {}]
    # the edge arrays are sorted by (src, dst) whatever order they came in
    assert (one_way.src.tolist(), one_way.dst.tolist()) == ([1, 1], [0, 2])
    # symmetric=True links both ways, and the later of two equal pairs wins
    sym = mesh.Topology.build([(0, 1, -60.0), (2, 1, -65.0), (1, 0, -70.0)], 3, cfo=[0.0] * 3)
    assert sym.in_gains == [{1: -70.0}, {0: -70.0, 2: -65.0}, {1: -65.0}]
    assert sym.gains[0, 1] == sym.gains[1, 0] == -70.0 and sym.gains[0, 2] == -np.inf


def test_topology_and_config_are_immutable():
    src, gain = np.array([0, 1]), np.array([-60.0, -60.0])
    topo = mesh.Topology(src, [1, 0], gain, [0.0, 1e3])
    # a write after validation would bypass it (NaN) and stale the link lists
    for arr in (topo.src, topo.dst, topo.gain, topo.cfo, topo.gains):
        with pytest.raises(ValueError):
            arr[0] = np.nan if arr.dtype == float else 5
    for name in ("gain", "gains"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(topo, name, np.zeros(2))
    # the caller's arrays are copied, not made read-only
    src[0], gain[0] = 1, -90.0
    assert topo.gain[0] == -60.0 and topo.in_gains[1] == {0: -60.0}
    cfg = mesh.SimConfig(topology=topo, policy=NodePolicy(), table=bernoulli_table(1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rounds = 5
    assert cfg.mode.name == "2M"
    # equality and hashing are by identity: no element-wise array comparison
    assert topo == topo and topo != mesh.Topology(topo.src, topo.dst, topo.gain, topo.cfo)
    assert hash(topo) == hash(topo) and cfg in {cfg}


def test_two_nodes_perfect_link():
    topo = chain_topology(2)
    pol = NodePolicy(n_tx=1, diameter=1, hop_sequence=(37,))
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=bernoulli_table(1.0),
                         rounds=20, seed=1)
    summary, log = mesh.run(cfg)
    assert summary.end_to_end_per == 0.0
    for m in log:
        assert m.first_slot[1] == 1
    assert summary.avg_latency == pytest.approx(cfg.slot_length)


def test_chain_propagation_hops_and_latency():
    topo = chain_topology(4)
    pol = NodePolicy(n_tx=3, diameter=3, hop_sequence=(37,))
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=bernoulli_table(1.0),
                         rounds=10, seed=2)
    summary, log = mesh.run(cfg)
    assert summary.end_to_end_per == 0.0
    for m in log:
        assert [m.first_slot[v] for v in (1, 2, 3)] == [1, 2, 3]
    assert summary.avg_latency == pytest.approx(2 * cfg.slot_length)


def test_determinism():
    topo = chain_topology(5)
    pol = NodePolicy(n_tx=2, diameter=4, hop_sequence=(37, 38, 39))
    mk = lambda: mesh.SimConfig(topology=topo, policy=pol,
                                table=bernoulli_table(0.8), rounds=200, seed=9)
    s1, log1 = mesh.run(mk())
    s2, log2 = mesh.run(mk())
    assert s1 == s2
    assert log1 == log2


def test_hop_count_lower_bound_and_causality():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 6
        edges = [(i, i + 1, -60.0) for i in range(n - 1)]
        extra = [(int(a), int(b), -60.0) for a, b in
                 rng.integers(0, n, size=(3, 2)) if a != b]
        topo = mesh.Topology.build(edges + extra, n,
                                   cfo=list(rng.uniform(-2e4, 2e4, n)))
        dist = topo.hop_distances()
        pol = NodePolicy(n_tx=2, diameter=5, hop_sequence=(37,),
                         resync_threshold=10 ** 9)
        cfg = mesh.SimConfig(topology=topo, policy=pol,
                             table=bernoulli_table(0.7), rounds=300,
                             seed=100 + trial)
        _, log = mesh.run(cfg)
        for m in log:
            for v, fs in m.first_slot.items():
                if fs is not None:
                    assert fs >= dist[v]


def test_single_bernoulli_link_delivery():
    topo = chain_topology(2)
    n_tx = 3
    pol = NodePolicy(n_tx=n_tx, diameter=0, hop_sequence=(37,),
                     resync_threshold=10 ** 9)
    assert pol.wait_slots == n_tx
    p = 0.6
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=bernoulli_table(p),
                         rounds=4000, seed=11)
    summary, _ = mesh.run(cfg)
    want = 1 - (1 - p) ** n_tx
    got = summary.per_node_delivery[1]
    half = 2.576 * math.sqrt(want * (1 - want) / 4000)
    assert abs(got - want) <= half


def test_avg_radio_time_formula():
    r_avg = mesh.avg_radio_time(2.5, 0.032e-3, 0.188e-3, 3)
    assert r_avg == pytest.approx(0.832e-3, abs=1e-9)


def test_duty_cycle_formula():
    dc = mesh.duty_cycle_est(2.5, 0.001, 0.188e-3, 0.032e-3, 3, 13, 0.2)
    assert dc * 100 == pytest.approx(0.42, abs=0.01)
    dc2 = mesh.duty_cycle_est(2.5, 0.001, 0.188e-3, 0.032e-3, 3, 13, 1.0)
    assert dc2 * 100 == pytest.approx(0.08, abs=0.01)


def test_resolve_slot_paths():
    table = paper_default_table()
    topo = mesh.Topology.build([(0, 2, -60.0), (1, 2, -60.0)], 3,
                               cfo=[0.0, 9645.0, 0.0])
    from ctflood.airtime import get_mode

    pol = NodePolicy(n_tx=3, diameter=1, hop_sequence=(37,))
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=table,
                         mode=get_mode("1M"), rounds=1, seed=0, fading_std=0.0)
    rng = np.random.default_rng(0)
    jitter = np.zeros(3)
    # no transmitter in range
    assert mesh.resolve_slot(2, [], topo, cfg, jitter, rng) is False
    # equal-power same-data pair at 9.645 kHz offset decodes rarely
    hits = sum(
        mesh.resolve_slot(2, [0, 1], topo, cfg, jitter,
                          np.random.default_rng(i))
        for i in range(2000)
    )
    assert 0.03 < hits / 2000 < 0.10
    # a lone strong transmitter almost always decodes
    hits1 = sum(
        mesh.resolve_slot(2, [0], topo, cfg, jitter,
                          np.random.default_rng(i))
        for i in range(2000)
    )
    assert hits1 / 2000 > 0.95


def test_topology_csv_loading(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,cfo_hz,is_initiator\n0,0,1\n1,2000,0\n")
    edges.write_text("src,dst,gain_db\n0,1,-60\n1,0,-60\n")
    topo = mesh.load_topology(edges, nodes)
    assert topo.n_nodes == 2
    assert topo.initiator == 0
    assert topo.gains[0, 1] == -60.0
    nodes.write_text("id,cfo_hz,is_initiator\n0,0,1\n1,2000,1\n")
    with pytest.raises(ValueError):
        mesh.load_topology(edges, nodes)
    nodes.write_text("id,cfo_hz,is_initiator\n0,0,7\n1,2000,0\n")
    with pytest.raises(ValueError, match="is_initiator"):
        mesh.load_topology(edges, nodes)
    nodes.write_text("id,cfo_hz,is_initiator\n0,0,1\n1,2000,0\n")
    edges.write_text("src,dst,gain_db\n0,1,-60\n1,0,-60\n0,1,-95\n")
    with pytest.raises(ValueError, match="twice"):
        mesh.load_topology(edges, nodes)


def _scanning_at_start(log, listeners, threshold):
    """Replay the resync rule from the reception record: every node starts
    synced, scans after `threshold` silent rounds in a row, and is synced
    again by any reception."""
    missed = {v: 0 for v in listeners}
    scanning = set()
    out = []
    for m in log:
        out.append(set(scanning))
        for v in listeners:
            if m.first_slot[v] is not None:
                scanning.discard(v)
                missed[v] = 0
            elif v not in scanning:
                missed[v] += 1
                if missed[v] >= threshold:
                    scanning.add(v)
    return out


def test_resync_path_end_to_end(monkeypatch):
    scan_steps, resynced = [], []
    real_scan_step, real_reception, real_action = nd.scan_step, nd.handle_reception, nd.next_action

    def counting_scan_step(*args):
        scan_steps.append(1)
        return real_scan_step(*args)

    def checked_reception(state, *args):
        new = real_reception(state, *args)
        if state.phase == nd.PHASE_SCANNING:
            resynced.append(new.phase == nd.PHASE_SYNCED)
        return new

    def checked_action(state, *args):
        kind, chan = real_action(state, *args)
        assert not (state.phase == nd.PHASE_SCANNING and kind == nd.ACT_TX)
        return kind, chan

    monkeypatch.setattr(nd, "scan_step", counting_scan_step)
    monkeypatch.setattr(nd, "handle_reception", checked_reception)
    monkeypatch.setattr(nd, "next_action", checked_action)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        parents=st.lists(st.integers(0, 10 ** 6), min_size=5, max_size=5),
        extra=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4),
        p=st.floats(0.2, 0.8),
        channels=st.lists(st.integers(0, 39), min_size=1, max_size=3),
        threshold=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def check(n, parents, extra, p, channels, threshold, seed):
        # a random spanning tree keeps every node reachable
        edges = [(v, parents[v - 1] % v, -60.0) for v in range(1, n)]
        edges += [(a, b, -60.0) for a, b in extra if a < n and b < n and a != b]
        topo = mesh.Topology.build(edges, n, cfo=[1e3 * v for v in range(n)])
        pol = NodePolicy(n_tx=2, diameter=n - 1, hop_sequence=tuple(channels),
                         resync_threshold=threshold)
        cfg = mesh.SimConfig(topology=topo, policy=pol, table=bernoulli_table(p),
                             rounds=25, seed=seed, fading_std=0.0)
        _, log = mesh.run(cfg)
        hop = topo.hop_distances()
        listeners = list(range(1, n))
        for m, scanning in zip(log, _scanning_at_start(log, listeners, threshold)):
            assert sorted(m.first_slot) == listeners
            for v, fs in m.first_slot.items():
                if fs is None:
                    continue
                assert fs >= hop[v]
                assert fs <= (pol.slots_per_round if v in scanning else pol.wait_slots)
            assert m.success == all(fs is not None for fs in m.first_slot.values())

    check()
    assert scan_steps, "no example reached the scanning branch"
    assert resynced and all(resynced), "a scanning node that hears a beacon re-syncs"


def _reference_resolve(listener, transmitters, topo, cfg, jitter, rng):
    """Reception of one listener: scalar gain lookups, one fading draw per
    arrival in transmitter order."""
    arrivals = []
    for t in transmitters:
        p_rx = topo.gains[t, listener]
        if p_rx == -math.inf:
            continue
        if cfg.fading_std > 0:
            p_rx += rng.normal(0.0, cfg.fading_std)
        arrivals.append((p_rx, t))
    if not arrivals:
        return False
    arrivals.sort(reverse=True)
    table, key = cfg.table, (cfg.mode.name, True)
    if len(arrivals) == 1:
        p = reception_probability(table, key, float(table.dp_axis[-1]), 0.0, 0.0)
    else:
        (p1, t1), (p2, t2) = arrivals[0], arrivals[1]
        p = reception_probability(
            table, key, p1 - p2,
            abs(jitter[t1] - jitter[t2]) / cfg.mode.bit_period,
            cfg.air_time * abs(topo.cfo[t1] - topo.cfo[t2]))
    return bool(rng.random() < p)


def _reference_run(cfg):
    """mesh.run as a listener-side loop: every listener filters all of the
    slot's transmitters by channel, then by link."""
    topo, policy, n = cfg.topology, cfg.policy, cfg.topology.n_nodes
    rng = np.random.default_rng(cfg.seed)
    states = [nd.NodeState()] * n
    states[topo.initiator] = nd.NodeState(is_initiator=True)
    log = []
    for r in range(cfg.rounds):
        active = 0
        for s in range(policy.slots_per_round):
            actions = [nd.next_action(st, policy, s) for st in states]
            txers = [v for v, (kind, _c) in enumerate(actions) if kind == nd.ACT_TX]
            active += sum(1 for kind, _c in actions if kind != nd.ACT_SLEEP)
            depth = [0 if st.rx_slot is None else st.rx_slot + 1 for st in states]
            jitter = rng.normal(0.0, 1.0, n) * mesh.JITTER_STD * np.sqrt(depth)
            for v, (kind, chan) in enumerate(actions):
                if kind != nd.ACT_RX:
                    continue
                on_channel = [t for t in txers if actions[t][1] == chan]
                if on_channel and _reference_resolve(v, on_channel, topo, cfg, jitter, rng):
                    states[v] = nd.handle_reception(states[v], r, s)
        first_slot = {v: None if st.rx_slot is None else st.rx_slot + 1
                      for v, st in enumerate(states) if not st.is_initiator}
        log.append(mesh.RoundMetrics(first_slot, active))
        states = [nd.round_end(st, policy, rng) for st in states]
    return mesh.summarize(cfg, log), log


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    parents=st.lists(st.integers(0, 10 ** 6), min_size=7, max_size=7),
    extra=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
    gains=st.lists(st.floats(-80.0, -55.0), min_size=11, max_size=11),
    cfo=st.lists(st.floats(-2e4, 2e4), min_size=8, max_size=8),
    initiator=st.integers(0, 7),
    channels=st.lists(st.integers(0, 39), min_size=1, max_size=3),
    n_tx=st.integers(1, 3),
    diameter=st.integers(0, 7),
    threshold=st.integers(1, 3),
    fading=st.sampled_from([0.0, 1.0, 4.0]),
    p=st.one_of(st.none(), st.floats(0.2, 1.0)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_run_equals_the_listener_side_reference(n, parents, extra, gains, cfo, initiator,
                                                channels, n_tx, diameter, threshold,
                                                fading, p, seed):
    # a random spanning tree, both directions, plus one-way extra links; an
    # extra link that repeats a pair overrides its gain
    links = {}
    for v in range(1, n):
        links[v, parents[v - 1] % v] = links[parents[v - 1] % v, v] = gains[v - 1]
    for (a, b), gain in zip(extra, gains[7:]):
        if a < n and b < n and a != b:
            links[a, b] = gain
    topo = mesh.Topology([a for a, _ in links], [b for _, b in links], list(links.values()),
                         cfo[:n], initiator=initiator % n)
    pol = NodePolicy(n_tx=n_tx, diameter=diameter, hop_sequence=tuple(channels),
                     resync_threshold=threshold)
    table = paper_default_table() if p is None else bernoulli_table(p)
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=table, rounds=40,
                         seed=seed, fading_std=fading)
    assert mesh.run(cfg) == _reference_run(cfg)


_STD_NORMAL = NormalDist()


def _folded_hat_means(axis, mu, s):
    """E[w_i(|Y|)] for Y ~ N(mu, s^2), s > 0, where w_i are the clamped hat
    weights that reception_probability puts on the points of axis."""
    def part(c, d):  # P(c <= Y <= d) and E[Y; c <= Y <= d]
        a, b = (c - mu) / s, (d - mu) / s
        p = _STD_NORMAL.cdf(b) - _STD_NORMAL.cdf(a)
        return p, mu * p + s * (_STD_NORMAL.pdf(a) - _STD_NORMAL.pdf(b))

    def folded(c, d):  # the same two moments of |Y|, for 0 <= c <= d
        (p1, m1), (p2, m2) = part(c, d), part(-d, -c)
        return p1 + p2, m1 - m2

    w = np.zeros(len(axis))
    w[0] += folded(0.0, axis[0])[0]
    w[-1] += folded(axis[-1], math.inf)[0]
    for i, (a, b) in enumerate(zip(axis[:-1], axis[1:])):
        p, m = folded(a, b)
        w[i] += (b * p - m) / (b - a)
        w[i + 1] += (m - a * p) / (b - a)
    return w


def _capture_oracle(table, key, delta_g, fading_std, jitter_std_bits, beat_ratio):
    """Exact E[p] of a two-arrival lookup: delta_p = |delta_g + sqrt(2)·σ·Z1|,
    delta_t = jitter_std_bits·|Z2| and a fixed beat ratio. The lookup is
    trilinear in independent coordinates, so the expectation factors."""
    w_dp = _folded_hat_means(table.dp_axis, delta_g, math.sqrt(2) * fading_std)
    w_dt = _folded_hat_means(table.dt_axis, 0.0, jitter_std_bits)
    w_br = np.zeros(table.br_axis.size)
    lo, hi, w = _interp_weights(table.br_axis, beat_ratio)
    w_br[lo] += 1 - w
    w_br[hi] += w
    return float(np.einsum("i,j,k,ijk", w_dp, w_dt, w_br, table.tables[key]))


def _capture_table(mode):
    """A separable table, steep along every axis, so that a units slip on any
    coordinate moves E[p] by several times the test's interval."""
    f = np.array([0.1, 0.55, 0.9])  # over dp_axis; the lone cell is 0.9
    h = np.array([1.0, 0.6, 0.15])  # over dt_axis
    q = np.array([1.0, 0.75, 0.2])  # over br_axis
    return LinkTable([0.0, 2.0, 5.0], [0.0, 0.02, 0.06], [0.0, 0.6, 1.6],
                     {(mode, True): np.einsum("i,j,k->ijk", f, h, q)})


def test_capture_path_matches_the_exact_oracle():
    # Many "V"s in one flood: the initiator reaches two relays, and only those
    # two reach a listener. A relay hears the lone initiator in slot 0 with
    # the table's lone cell. In a round where both relays of a V did, their
    # listener hears exactly those two, each at jitter depth 1, in slot 1,
    # and decodes with the oracle's E[p]; every V and slot draws afresh, so
    # the trials are independent. Going through mesh.run puts the jitter
    # depth under test too, and at the coded 500K rate the bit period differs
    # from the symbol period, so a delta_t in the wrong unit shows.
    mode = get_mode("500K")
    table, key = _capture_table(mode.name), (mode.name, True)
    fading, rounds = 2.0, 200
    v_types = [(0.0, 450.0), (2.0, 1000.0)]  # (gain difference dB, CFO difference Hz)
    copies = 40
    edges, cfo, triples = [], [0.0], []
    for delta_g, delta_cfo in v_types:
        for _ in range(copies):
            a, b, c = len(cfo), len(cfo) + 1, len(cfo) + 2
            edges += [(0, a, -60.0), (0, b, -60.0), (a, c, -60.0 + delta_g), (b, c, -60.0)]
            cfo += [0.0, delta_cfo, 0.0]
            triples.append((a, b, c))
    topo = mesh.Topology.build(edges, len(cfo), cfo=cfo, symmetric=False)
    pol = NodePolicy(n_tx=1, diameter=1, hop_sequence=(37,), resync_threshold=10 ** 9)
    cfg = mesh.SimConfig(topology=topo, policy=pol, table=table, mode=mode,
                         rounds=rounds, seed=7, fading_std=fading)
    _, log = mesh.run(cfg)
    first = np.array([[m.first_slot.get(v) or 0 for v in range(len(cfo))] for m in log])

    def inside(hits, trials, p):  # exact (Clopper-Pearson) 99.9% interval
        ci = binomtest(hits, trials).proportion_ci(0.999)
        return ci.low <= p <= ci.high

    relays = np.array([(a, b) for a, b, _ in triples]).ravel()
    lone = table.tables[key][-1, 0, 0]
    assert inside(int((first[:, relays] == 1).sum()), relays.size * rounds, lone)
    jitter_bits = mesh.JITTER_STD * math.sqrt(1 + 1) / mode.bit_period
    for t, (delta_g, delta_cfo) in enumerate(v_types):
        part = triples[t * copies:(t + 1) * copies]
        a, b, c = (np.array(col) for col in zip(*part))
        both = (first[:, a] == 1) & (first[:, b] == 1)
        hits = int(((first[:, c] == 2) & both).sum())
        want = _capture_oracle(table, key, delta_g, fading, jitter_bits,
                               cfg.air_time * delta_cfo)
        assert inside(hits, int(both.sum()), want)
