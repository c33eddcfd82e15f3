"""Seeded inputs of the benchmark workloads.

Everything the program sees is generated here from the workload seed: the
random geometric graphs of `flood_synced` with their carrier offsets, and
the per-batch seeds passed to the program.
The same seed always gives the same inputs; `digest` hashes them so that
two runs can be shown to have used identical inputs.

This module imports numpy only; it never imports ctflood.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

CARRIER_HZ = 2.4e9
CFO_PPM = 10.0

RGG_NODES = 200
RGG_RADIUS = 0.225  # unit disk; mean degree about 9, diameter about 11
RGG_GAIN_NEAR_DB = -55.0
RGG_GAIN_EDGE_DB = -75.0


@dataclass(frozen=True)
class Graph:
    """An undirected radio graph: edges (u < v, gain dB), CFOs, initiator."""

    n_nodes: int
    edges: Tuple[Tuple[int, int, float], ...]
    cfo_hz: Tuple[float, ...]
    initiator: int

    def directed_edges(self) -> List[Tuple[int, int, float]]:
        out = []
        for u, v, g in self.edges:
            out.append((u, v, g))
            out.append((v, u, g))
        return out

    def hop_distances(self) -> List[int]:
        """BFS hop distance from the initiator (-1 when unreachable)."""
        adj = [[] for _ in range(self.n_nodes)]
        for u, v, _g in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = [-1] * self.n_nodes
        dist[self.initiator] = 0
        frontier = [self.initiator]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def mean_degree(self) -> float:
        return 2.0 * len(self.edges) / self.n_nodes

    def write_csvs(self, edge_path, node_path) -> None:
        """The `ctflood flood` input files: directed edges and node traits."""
        with open(edge_path, "w") as fh:
            fh.write("src,dst,gain_db\n")
            for u, v, g in self.directed_edges():
                fh.write(f"{u},{v},{g!r}\n")
        with open(node_path, "w") as fh:
            fh.write("id,cfo_hz,is_initiator\n")
            for i, c in enumerate(self.cfo_hz):
                fh.write(f"{i},{c!r},{int(i == self.initiator)}\n")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one purpose, keyed by the workload seed."""
    return np.random.default_rng([seed, *key])


def batch_seed(seed: int, purpose: int, index: int) -> int:
    """A 31-bit program seed for batch `index` of one purpose."""
    return int(stream(seed, purpose, index).integers(0, 2**31 - 1))


def _cfos(rng: np.random.Generator, n: int) -> Tuple[float, ...]:
    return tuple(float(x) for x in rng.normal(0.0, CFO_PPM * 1e-6 * CARRIER_HZ, n))


def _connected(n: int, edges) -> bool:
    return min(Graph(n, tuple(edges), (0.0,) * n, 0).hop_distances()) >= 0


def random_geometric_graph(seed: int, variant: int) -> Graph:
    """Connected random geometric graph number `variant` of a seed, in the
    unit disk.

    Points are redrawn from the same seeded stream until the graph is
    connected; nothing else about a draw is ever rejected. Link gain falls
    linearly in dB from RGG_GAIN_NEAR_DB at distance 0 to RGG_GAIN_EDGE_DB
    at the radio range. The initiator is the westernmost node, so a flood
    crosses the whole graph.
    """
    n, radius = RGG_NODES, RGG_RADIUS
    rng = stream(seed, 1, variant)
    while True:
        rad = np.sqrt(rng.random(n))
        ang = rng.uniform(0.0, 2 * np.pi, n)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        iu, ju = np.nonzero(np.triu(d <= radius, k=1))
        span = RGG_GAIN_EDGE_DB - RGG_GAIN_NEAR_DB
        edges = [
            (int(u), int(v), float(RGG_GAIN_NEAR_DB + span * d[u, v] / radius))
            for u, v in zip(iu, ju)
        ]
        if _connected(n, edges):
            break
    initiator = int(np.argmin(pts[:, 0]))
    return Graph(n, tuple(edges), _cfos(rng, n), initiator)


def digest(*parts) -> str:
    """SHA-256 over the repr of the generated inputs, in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()
