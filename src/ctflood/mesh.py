"""Slot-level simulation of a flooding round over a radio topology.

Every slot, each node picks transmit/listen/sleep from its state machine.
Reception of a listener is resolved from the two strongest concurrent
arrivals: their received-power difference, their relative timing jitter,
and the beat period of their carrier offsets index the link table, and a
Bernoulli draw decides the outcome. Arrivals are gathered from each
transmitter's out-links, so only listeners that a transmitter on their
channel reaches are resolved. A node that receives adopts the round and
slot counters the beacon carries.

Edge gains are the received power in dB at the reference transmit power
that every node uses; per-slot fading perturbs them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import node as nd
from .airtime import DEFAULT_GUARD, MODES, PhyMode, air_time, slot_length
from .linkmodel import LinkTable, reception_probability
from .models import jitter_sigma

NEG_INF = float("-inf")
F_CLOCK = 16e6  # Hz, slot timer clock of every node
JITTER_STD = jitter_sigma(F_CLOCK)  # seconds, per-hop timing jitter of every node


@dataclass(frozen=True, eq=False)
class Topology:
    """Directed link gains in dB (-inf = no link) plus per-node carrier offsets.

    gains and cfo are read-only copies of the arrays given, so the link
    lists derived from them below never go stale. A topology, like the
    SimConfig that holds it, is equal only to itself and hashes by identity.
    """

    gains: np.ndarray  # (n, n) dB
    cfo: np.ndarray  # (n,) Hz
    initiator: int = 0

    def __post_init__(self):
        gains = np.array(self.gains, dtype=float)
        cfo = np.array(self.cfo, dtype=float)
        if cfo.ndim != 1 or gains.shape != (len(cfo),) * 2:
            raise ValueError("topology arrays do not match node count")
        if not 0 <= self.initiator < len(cfo):
            raise ValueError("initiator out of range")
        if np.any(np.isnan(gains) | np.isposinf(gains)):
            raise ValueError("gains must be finite or -inf")
        if not np.all(np.isfinite(cfo)):
            raise ValueError("cfo must be finite")
        for name, arr in (("gains", gains), ("cfo", cfo)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.cfo)

    @cached_property
    def out_links(self) -> List[List[int]]:
        """out_links[t]: every node that t reaches, ascending."""
        return [np.flatnonzero(row > NEG_INF).tolist() for row in self.gains]

    @cached_property
    def in_gains(self) -> List[Dict[int, float]]:
        """in_gains[v][t]: gain in dB of the link t->v, for every t that reaches v."""
        linked = [{} for _ in range(self.n_nodes)]
        for t, listeners in enumerate(self.out_links):
            for v, g in zip(listeners, self.gains[t, listeners].tolist()):
                linked[v][t] = g
        return linked

    @classmethod
    def build(
        cls,
        edges: Sequence[Tuple[int, int, float]],
        n_nodes: int,
        cfo: Sequence[float],
        initiator: int = 0,
        symmetric: bool = True,
    ) -> "Topology":
        """Assemble a topology from an edge list and per-node CFOs (Hz)."""
        gains = np.full((n_nodes, n_nodes), NEG_INF)
        for src, dst, g in edges:
            if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
                raise ValueError(f"edge {src}->{dst} names an unknown node")
            gains[src, dst] = g
            if symmetric:
                gains[dst, src] = g
        return cls(gains, cfo, initiator)

    def hop_distances(self) -> np.ndarray:
        """Unweighted shortest-path distance from the initiator (BFS over the
        out-links), -1 for a node it does not reach."""
        dist = [-1] * self.n_nodes
        dist[self.initiator] = 0
        frontier = [self.initiator]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.out_links[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return np.array(dist)


@dataclass(frozen=True, eq=False)
class SimConfig:
    topology: Topology
    policy: nd.NodePolicy
    table: LinkTable
    mode: PhyMode = MODES["2M"]
    pdu_len: int = 38
    rounds: int = 100
    seed: int = 0
    fading_std: float = 1.0  # dB, per-slot gain perturbation

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.fading_std < math.inf:
            raise ValueError("fading_std must be finite and >= 0")

    @cached_property
    def air_time(self) -> float:
        return air_time(self.mode, self.pdu_len)

    @property
    def slot_length(self) -> float:
        return slot_length(self.mode, self.pdu_len)


@dataclass
class RoundMetrics:
    first_slot: Dict[int, Optional[int]]  # 1-based reception ordinal, None if missed
    active_slots: int

    @property
    def success(self) -> bool:
        """Every node other than the initiator received in this round."""
        return all(fs is not None for fs in self.first_slot.values())


@dataclass
class Summary:
    rounds: int
    end_to_end_per: float
    per_node_delivery: Dict[int, float]
    avg_hop: float
    avg_latency: float
    avg_radio_time: float
    duty_cycle: float


def resolve_slot(
    listener: int,
    transmitters: Sequence[int],
    topology: Topology,
    cfg: SimConfig,
    jitter: np.ndarray,
    rng: np.random.Generator,
) -> bool:
    """Bernoulli reception outcome of one listener in one slot.

    A transmitter without a link to the listener does not arrive. Every
    transmitter of a flood sends the same beacon, so the table's same-data
    entry applies.
    """
    linked = topology.in_gains[listener]
    arrivals = [(linked[t], t) for t in transmitters if t in linked]
    if not arrivals:
        return False
    if cfg.fading_std > 0:
        fades = rng.normal(0.0, cfg.fading_std, len(arrivals)).tolist()
        arrivals = [(g + f, t) for (g, t), f in zip(arrivals, fades)]
    arrivals.sort(reverse=True)
    table = cfg.table
    key = (cfg.mode.name, True)
    if len(arrivals) == 1:
        # a lone transmitter behaves like the strongest capture, aligned, no beat
        p = reception_probability(table, key, float(table.dp_axis[-1]), 0.0, 0.0)
    else:
        (p1, t1), (p2, t2) = arrivals[0], arrivals[1]
        p = reception_probability(
            table, key, p1 - p2,
            abs(jitter[t1] - jitter[t2]) / cfg.mode.bit_period,
            cfg.air_time * abs(topology.cfo[t1] - topology.cfo[t2]))
    return bool(rng.random() < p)


def run(cfg: SimConfig) -> Tuple[Summary, List[RoundMetrics]]:
    """Simulate cfg.rounds flooding rounds; deterministic for a given seed.

    Every node starts synchronized; a node that misses resync_threshold
    rounds in a row scans until it hears a beacon again.
    """
    topo = cfg.topology
    policy = cfg.policy
    n = topo.n_nodes
    out_links = topo.out_links
    rng = np.random.default_rng(cfg.seed)
    states = [nd.NodeState()] * n
    states[topo.initiator] = nd.NodeState(is_initiator=True)

    rounds_log: List[RoundMetrics] = []
    for r in range(cfg.rounds):
        active = 0
        for s in range(policy.slots_per_round):
            txers = []  # (transmitter, channel), ascending
            rx_chan = [None] * n  # channel of each listener
            for v, st in enumerate(states):
                kind, chan = nd.next_action(st, policy, s)
                if kind == nd.ACT_TX:
                    txers.append((v, chan))
                elif kind == nd.ACT_RX:
                    rx_chan[v] = chan
                    active += 1
            active += len(txers)

            # fresh per-slot timing jitter, widening with hop depth, the
            # 1-based slot of the node's reception (0 for the initiator)
            depth = [0 if st.rx_slot is None else st.rx_slot + 1 for st in states]
            jitter = rng.normal(0.0, 1.0, n) * JITTER_STD * np.sqrt(depth)

            # each listener's arrivals, in ascending transmitter order; a
            # listener that no transmitter on its channel reaches draws nothing
            heard: Dict[int, List[int]] = {}
            for t, chan in txers:
                for v in out_links[t]:
                    if rx_chan[v] == chan:
                        heard.setdefault(v, []).append(t)
            for v in sorted(heard):
                if resolve_slot(v, heard[v], topo, cfg, jitter, rng):
                    states[v] = nd.handle_reception(states[v], r, s)

        first_slot = {v: None if st.rx_slot is None else st.rx_slot + 1
                      for v, st in enumerate(states) if not st.is_initiator}
        rounds_log.append(RoundMetrics(first_slot, active))
        states = [nd.round_end(st, policy, rng) for st in states]

    return summarize(cfg, rounds_log), rounds_log


def summarize(cfg: SimConfig, rounds_log: Sequence[RoundMetrics]) -> Summary:
    n_rounds = len(rounds_log)
    listeners = sorted(rounds_log[0].first_slot)
    delivery = {
        v: sum(m.first_slot[v] is not None for m in rounds_log) / n_rounds
        for v in listeners
    }
    failures = sum(1 for m in rounds_log if not m.success)
    per = failures / n_rounds
    hops = [m.first_slot[v] for m in rounds_log for v in listeners if m.first_slot[v]]
    avg_hop = float(np.mean(hops)) if hops else 0.0
    pol = cfg.policy
    r_avg = avg_radio_time(avg_hop, DEFAULT_GUARD, cfg.air_time, pol.n_tx)
    dc = duty_cycle_est(avg_hop, per, cfg.air_time, DEFAULT_GUARD, pol.n_tx,
                        pol.wait_slots, pol.round_period)
    return Summary(n_rounds, per, delivery, avg_hop, avg_hop * cfg.slot_length, r_avg, dc)


def avg_radio_time(avg_hop_count: float, guard: float, air: float, n_tx: int) -> float:
    """Mean radio-on time per successful round: listen guard per hop plus
    one reception and n_tx retransmissions at full air time."""
    return avg_hop_count * guard + (n_tx + 1) * air


def duty_cycle_est(
    avg_hop_count: float,
    per: float,
    air: float,
    guard: float,
    n_tx: int,
    wait_slots: int,
    round_period: float,
) -> float:
    """Radio duty cycle, conservative on failures: a failed round listens
    for wait_slots full-length packets before giving up."""
    r_avg = avg_radio_time(avg_hop_count, guard, air, n_tx)
    on_time = r_avg * (1.0 - per) + wait_slots * air * per
    return on_time / round_period


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def load_topology(edge_path, node_path) -> Topology:
    """Edge list CSV `src,dst,gain_db` plus node CSV `id,cfo_hz,is_initiator`.

    gain_db is the received power at the reference transmit power; edges
    must name existing node ids, each (src, dst) pair at most once, and
    is_initiator is 0 or 1.
    """
    nodes = []
    with open(node_path, newline="") as fh:
        for row in csv.DictReader(fh):
            is_init = int(row["is_initiator"])
            if is_init not in (0, 1):
                raise ValueError(f"is_initiator must be 0 or 1, not {is_init}")
            nodes.append((int(row["id"]), float(row["cfo_hz"]), is_init))
    if not nodes:
        raise ValueError("node table is empty")
    nodes.sort()
    ids = [i for i, _, _ in nodes]
    if ids != list(range(len(ids))):
        raise ValueError("node ids must be contiguous from 0")
    initiators = [i for i, _, is_init in nodes if is_init]
    if len(initiators) != 1:
        raise ValueError("exactly one initiator required")
    edges, links = [], set()
    with open(edge_path, newline="") as fh:
        for row in csv.DictReader(fh):
            link = int(row["src"]), int(row["dst"])
            if link in links:
                raise ValueError(f"edge {link[0]}->{link[1]} is listed twice")
            links.add(link)
            edges.append((*link, float(row["gain_db"])))
    return Topology.build(edges, len(ids), cfo=[c for _, c, _ in nodes],
                          initiator=initiators[0], symmetric=False)
