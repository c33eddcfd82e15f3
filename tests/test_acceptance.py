"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite output doubles as an
acceptance report. Statistical checks run with frozen seeds and are
deterministic.
"""

import math
import zlib

import numpy as np

from ctflood import cli, mesh
from ctflood.airtime import get_mode
from ctflood.linkmodel import LinkTable, paper_default_table
from ctflood.models import (
    ber_2ct_equal,
    ber_bfsk,
    ber_crossover_ratio,
    bessel_i0,
    nmax_concurrent,
    per_from_ber,
)
from ctflood.montecarlo import PhyExperimentSpec, run_ber_point, run_per_point, wilson_ci
from ctflood.node import NodePolicy
from ctflood import node as nd
from ctflood.phy import ModulationParams, TransmitterSpec, envelope_analytic, measured_envelope, modulate, superpose

MOD = ModulationParams(symbol_period=1e-6)


def report(num, desc, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_01_analytic_anchors():
    checks = [
        abs(ber_bfsk(1.0) - 0.30327) <= 1e-5,
        abs(ber_2ct_equal(1.0) - 0.2329) <= 1e-4,
        abs(bessel_i0(1.0) - 1.2660658) <= 1e-7,
        nmax_concurrent(16e6, 1e-6) == 28,
        abs(per_from_ber(0.01, 128) - (1.0 - 0.99 ** 128)) <= 1e-12,
        abs(per_from_ber(0.01, 128) - 0.72375) <= 1e-4,
    ]
    report(1, "closed-form anchor values", all(checks))


def test_acceptance_02_crossover():
    root = ber_crossover_ratio()
    root_db = 10 * math.log10(root)
    in_band = 3.8 <= root_db <= 4.8
    sign_ok = True
    for db, below in ((2.0, True), (3.0, True), (6.0, False), (8.0, False)):
        spec1 = PhyExperimentSpec(mod=MOD, packet_bits=128,
                                  power_delta=None, replicas=800, seed=101)
        spec2 = PhyExperimentSpec(mod=MOD, packet_bits=128,
                                  power_delta=0.0, beat_ratio=1.0,
                                  replicas=800, seed=102)
        mc1 = run_ber_point(spec1, db).point
        mc2 = run_ber_point(spec2, db).point
        sign_ok &= (mc2 < mc1) if below else (mc2 > mc1)
    report(2, "1-TX/2-CT BER crossover near 4.3 dB with matching Monte Carlo "
              "ordering", in_band and sign_ok)


def test_acceptance_03_monte_carlo_vs_closed_form():
    ok = True
    for db in range(0, 13):
        x = 10 ** (db / 10)
        spec1 = PhyExperimentSpec(mod=MOD, packet_bits=128,
                                  power_delta=None, replicas=800, seed=201)
        est1 = run_ber_point(spec1, float(db))
        ok &= est1.ci_low <= ber_bfsk(x) <= est1.ci_high
        spec2 = PhyExperimentSpec(mod=MOD, packet_bits=128,
                                  power_delta=0.0, time_delta=0.0, beat_ratio=1.0,
                                  same_data=True, replicas=800, seed=202)
        est2 = run_ber_point(spec2, float(db))
        ok &= est2.ci_low <= ber_2ct_equal(x) <= est2.ci_high
    report(3, "Monte Carlo BER matches both closed forms across 0-12 dB", ok)


def test_acceptance_04_envelope():
    f_beat = 1.0 / (512 * MOD.symbol_period)
    bits = [0] * 512
    s1 = modulate(bits, MOD, TransmitterSpec(cfo=+f_beat / 2, phase=0.0))
    s2 = modulate(bits, MOD, TransmitterSpec(cfo=-f_beat / 2, phase=0.0))
    total = superpose([s1, s2])
    window = 2 * MOD.symbol_period  # one tone period, T_beat/256
    env = measured_envelope(total, window)
    t, got = env[:, 0], env[:, 1]
    want = envelope_analytic(1.0, 1.0, f_beat, t)
    peak = 2.0
    mask = want >= 0.2 * peak  # compare away from the deep fade
    rel = np.max(np.abs(got[mask] - want[mask]) / want[mask])
    valley_idx = np.argmin(np.abs(t - 1 / (2 * f_beat)))
    valley_ok = got[valley_idx] < 0.05 * peak
    report(4, "windowed envelope matches the analytic beat within 5% and "
              "fades below 5% of peak", rel < 0.05 and valley_ok)


def test_acceptance_05_per_trends():
    common = dict(mod=MOD, packet_bits=128)
    # (a) 1 dB of power margin lowers PER by at least two CI widths
    a0 = run_per_point(PhyExperimentSpec(power_delta=0.0, beat_ratio=0.1,
                                         replicas=150_000, seed=301, **common), 12.0)
    a1 = run_per_point(PhyExperimentSpec(power_delta=1.0, beat_ratio=0.1,
                                         replicas=150_000, seed=302, **common), 12.0)
    gap = a0.point - a1.point
    ok_a = gap >= 2 * max(a0.width, a1.width)
    # (b) half-symbol offset is indistinguishable from different payloads
    b_same = run_per_point(PhyExperimentSpec(power_delta=0.0, time_delta=0.5,
                                             beat_ratio=0.5, same_data=True,
                                             replicas=8000, seed=303, **common), 12.0)
    b_diff = run_per_point(PhyExperimentSpec(power_delta=0.0, time_delta=0.5,
                                             beat_ratio=0.5, same_data=False,
                                             replicas=8000, seed=304, **common), 12.0)
    ok_b = b_same.overlaps(b_diff)
    # (c) two aligned equal transmitters are worse than one at high SNR
    c1 = run_per_point(PhyExperimentSpec(power_delta=None, replicas=8000,
                                         seed=305, **common), 12.0)
    c2 = run_per_point(PhyExperimentSpec(power_delta=0.0, beat_ratio=1.0,
                                         replicas=8000, seed=306, **common), 12.0)
    ok_c = c2.point > c1.point + c1.width
    report(5, f"PER trends: 1 dB margin gap={gap:.4f} (a={ok_a}), "
              f"half-symbol~different-data (b={ok_b}), 2-CT worse than 1-TX "
              f"(c={ok_c})", ok_a and ok_b and ok_c)


def test_acceptance_06_airtime_table(tmp_path):
    assert cli.main(["airtime", "--out", str(tmp_path), "--seed", "0"]) == 0
    rows = {}
    with open(tmp_path / "airtime.csv") as fh:
        header = None
        for line in fh:
            if line.startswith("#"):
                continue
            parts = line.strip().split(",")
            if header is None:
                header = parts
                continue
            rows[parts[0]] = dict(zip(header, parts))
    want_air = {"2M": 0.188, "1M": 0.368, "500K": 1.134, "125K": 3.408,
                "802154": 1.440}
    want_slot = {"2M": 0.4016, "1M": 0.5705, "500K": 1.362, "125K": 3.715,
                 "802154": 1.867}
    ok = all(
        abs(float(rows[m]["air_time_ms"]) - want_air[m]) < 1e-9
        and abs(float(rows[m]["slot_ms"]) - want_slot[m]) <= 1e-3
        for m in want_air
    )
    report(6, "air-time column exact and slot column within 1 us", ok)


def test_acceptance_07_duty_cycle():
    r_avg = mesh.avg_radio_time(2.5, 0.032e-3, 0.188e-3, 3)
    dc200 = mesh.duty_cycle_est(2.5, 0.001, 0.188e-3, 0.032e-3, 3, 13, 0.2)
    dc1000 = mesh.duty_cycle_est(2.5, 0.001, 0.188e-3, 0.032e-3, 3, 13, 1.0)
    ok = (
        abs(r_avg - 0.832e-3) < 1e-9
        and abs(dc200 * 100 - 0.42) <= 0.01
        and abs(dc1000 * 100 - 0.08) <= 0.01
    )
    report(7, f"R_Avg={r_avg*1e3:.3f} ms, duty cycle {dc200*100:.3f}% / "
              f"{dc1000*100:.3f}%", ok)


# --- criterion 8: exhaustive forward-probability oracle ---------------------

def _oracle_delivery(adj, p, n_tx, wait_slots, init):
    """Exact per-node delivery probability of one flooding round."""
    n = len(adj)
    others = [v for v in range(n) if v != init]
    dist = {tuple([-1] * len(others)): 1.0}
    for s in range(wait_slots + n_tx):
        new = {}
        for state, prob in dist.items():
            txers = set()
            if s < wait_slots:
                txers.add(init)
            for i, v in enumerate(others):
                if state[i] > 0:
                    txers.add(v)
            base = [st - 1 if st > 0 else st for st in state]
            eligible = [
                i for i, v in enumerate(others)
                if state[i] == -1 and s < wait_slots
                and any(adj[t][v] for t in txers)
            ]
            for mask in range(1 << len(eligible)):
                pr = prob
                st2 = list(base)
                for bi, i in enumerate(eligible):
                    if (mask >> bi) & 1:
                        pr *= p
                        st2[i] = n_tx
                    else:
                        pr *= 1.0 - p
                key = tuple(st2)
                new[key] = new.get(key, 0.0) + pr
        dist = new
    out = {}
    for i, v in enumerate(others):
        out[v] = sum(pr for st, pr in dist.items() if st[i] != -1)
    return out


TOPOLOGIES = {
    "pair": (2, [(0, 1)], 0.6),
    "chain3": (3, [(0, 1), (1, 2)], 0.7),
    "chain4": (4, [(0, 1), (1, 2), (2, 3)], 0.8),
    "star5": (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 0.5),
    "diamond5": (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 0.7),
    "braid6": (6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)], 0.6),
}


def test_acceptance_08_mesh_matches_dp_oracle():
    rounds = 30_000
    ok = True
    details = []
    for name, (n, edges, p) in TOPOLOGIES.items():
        adj = [[False] * n for _ in range(n)]
        for a, b in edges:
            adj[a][b] = adj[b][a] = True
        diameter = n - 1
        pol = NodePolicy(n_tx=3, diameter=diameter, hop_sequence=(37,),
                         resync_threshold=10 ** 9)
        table = LinkTable([0.0], [0.0], [1.0],
                          {("2M", True): np.full((1, 1, 1), p)})
        topo = mesh.Topology.build([(a, b, -60.0) for a, b in edges], n,
                                   cfo=[1e3 * i for i in range(n)])
        cfg = mesh.SimConfig(topology=topo, policy=pol, table=table,
                             rounds=rounds, seed=zlib.crc32(name.encode()) & 0xFFFF)
        summary, _ = mesh.run(cfg)
        oracle = _oracle_delivery(adj, p, pol.n_tx, pol.wait_slots, 0)
        for v, want in oracle.items():
            got = summary.per_node_delivery[v]
            # 99.9% per-node interval: 25 checks run per call, so a 99%
            # interval would false-alarm on a quarter of all runs.
            lo, hi = wilson_ci(round(got * rounds), rounds, 0.999)
            if not lo <= want <= hi:
                ok = False
                details.append(f"{name}/node{v}: sim={got:.4f} oracle={want:.4f}")
    report(8, "simulated delivery matches the exact round oracle on all "
              f"topologies {list(TOPOLOGIES)} ({'; '.join(details) or 'all within CI'})",
           ok)


def test_acceptance_09_protocol_invariants():
    rng = np.random.default_rng(424242)
    violations = 0
    cases = 10_000
    for _ in range(cases):
        n_tx = int(rng.integers(1, 5))
        diameter = int(rng.integers(0, 4))
        r_thresh = int(rng.integers(1, 5))
        seq = tuple(int(x) for x in rng.choice([37, 38, 39], size=rng.integers(1, 4)))
        pol = NodePolicy(n_tx=n_tx, diameter=diameter,
                         resync_threshold=r_thresh, hop_sequence=seq)
        state = nd.NodeState()
        peer = nd.NodeState(is_initiator=True)
        silent_rounds = int(rng.integers(0, r_thresh + 2))
        for rnd in range(silent_rounds + 1):
            hear = rnd == silent_rounds  # silent prefix, then one reception
            rx_slot = int(rng.integers(0, pol.wait_slots))
            tx_count = 0
            first_tx = None
            first_rx = None
            for s in range(pol.slots_per_round):
                if state.phase == nd.PHASE_SYNCED and peer.phase == nd.PHASE_SYNCED:
                    if state.round == peer.round:
                        ka, ca = nd.next_action(state, pol, s)
                        kb, cb = nd.next_action(peer, pol, s)
                        # channel agreement for equal counters
                        if ca is not None and cb is not None and ca != cb:
                            violations += 1
                kind, _ = nd.next_action(state, pol, s)
                if kind == nd.ACT_TX:
                    tx_count += 1
                    if first_tx is None:
                        first_tx = s
                elif kind == nd.ACT_RX and hear and s == rx_slot:
                    state = nd.handle_reception(state, rnd, s)
                    first_rx = s
            # causality: transmissions strictly follow the reception
            if first_tx is not None and (first_rx is None or first_tx <= first_rx):
                violations += 1
            # at most n_tx transmissions per round
            if tx_count > pol.n_tx:
                violations += 1
            state = nd.round_end(state, pol, rng)
            peer = nd.round_end(peer, pol, rng)
        # resync after the configured number of silent rounds
        probe = nd.NodeState()
        for _r in range(r_thresh):
            probe = nd.round_end(probe, pol, rng)
        if probe.phase != nd.PHASE_SCANNING:
            violations += 1
        if probe.phase == nd.PHASE_SCANNING:
            # scan dwell: exactly 2C periods on one channel before rehopping,
            # C the number of hop channels
            c = len(seq)
            dwell = 0
            chan = probe.scan_channel
            for _p in range(2 * c):
                if probe.scan_channel != chan:
                    break
                dwell += 1
                probe = nd.scan_step(probe, pol, rng)
            if dwell != 2 * c:
                violations += 1
    report(9, f"protocol invariants over {cases} randomized traces "
              f"({violations} violations)", violations == 0)


def test_acceptance_10_retransmission_sweep():
    table = paper_default_table()
    edges = [(0, 1, -60.0), (0, 2, -60.0), (1, 3, -60.0), (2, 3, -60.0)]
    topo = mesh.Topology.build(edges, 4, cfo=[0.0, 0.0, 9645.0, 20000.0])
    losses = []
    for n_tx in (1, 2, 3, 7):
        pol = NodePolicy(n_tx=n_tx, diameter=2, hop_sequence=(37,),
                         resync_threshold=10 ** 9)
        cfg = mesh.SimConfig(topology=topo, policy=pol, table=table,
                             mode=get_mode("1M"), rounds=2000, seed=77)
        summary, _ = mesh.run(cfg)
        losses.append(summary.end_to_end_per)
    ok = all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    report(10, f"end-to-end loss non-increasing over N_Tx sweep {losses}", ok)
