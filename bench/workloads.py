"""The benchmark workloads.

Each workload generates its inputs from the seed (benchmark side), runs
measured batches through `ctflood`'s CLI, and checks every operation of
every batch outside the timed region.

The program is reached only through `prog`, a namespace of freshly
imported ctflood modules, so set-up can be timed from a cold import.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Tuple

import checks
import gen

PURPOSE_CAL, PURPOSE_BER, PURPOSE_CT, PURPOSE_FLOOD, PURPOSE_CHECK = 10, 11, 12, 13, 14
REFERENCE_GRAPH_SEED = 0  # the fixed inputs the statistical flood references use
INPUT_BATCHES = 256  # batch seeds covered by the input digest; a run uses fewer

# mc_calibrate
CAL_DP = (0.0, 2.0, 8.0)
CAL_DT = (0.0, 0.25, 0.5, 1.5)  # symbols; 0.25 and 1.5 split the sample offset
CAL_BR = (0.1, 1.0, 3.6)
CAL_EBN0_DB = 12.0
CAL_REPLICAS = 100
PACKET_BITS = 128
BER_POINTS_DB = (0.0, 4.0, 8.0, 12.0)
BER_REPLICAS = 4000  # two 2000-packet chunks per sweep point
CANARY_REPLICAS = 200

# flood_synced: round-robin hopping on the three advertising channels
CHANNELS = (37, 38, 39)
N_TX = 3
FLOOD_GRAPHS = 6
FLOOD_DIAMETER = 11
FLOOD_ROUNDS = 20
FLOOD_RESYNC_THRESHOLD = 4  # NodePolicy's default; `ctflood flood` sets no other
FADING_DB = 1.0
CANARY_ROUNDS = 3
REFERENCE_ROUNDS = 40

PACKAGE = "ctflood"
PROGRAM_MODULES = ("cli", "montecarlo", "mesh", "node", "linkmodel", "models", "phy")


def import_program() -> SimpleNamespace:
    """Import ctflood afresh: drop every loaded module of it, then import."""
    import importlib
    import sys

    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in PROGRAM_MODULES})


def wait_slots(diameter: int) -> int:
    return N_TX + 2 * diameter  # NodePolicy's default listen window


def p1_table(prog):
    """A link table in which every reception succeeds."""
    import numpy as np

    return prog.linkmodel.LinkTable([0.0], [0.0], [1.0],
                                    {("2M", True): np.ones((1, 1, 1))})


def sim_config(prog, graph: gen.Graph, table, seed: int, rounds: int,
               fading: float = FADING_DB):
    """The mesh.run configuration `ctflood flood` builds for flood_synced."""
    topo = prog.mesh.Topology.build(graph.directed_edges(), graph.n_nodes,
                                    cfo=list(graph.cfo_hz), initiator=graph.initiator,
                                    symmetric=False)
    policy = prog.node.NodePolicy(n_tx=N_TX, diameter=FLOOD_DIAMETER, round_period=0.2,
                                  hop_sequence=CHANNELS, channel_count=len(CHANNELS))
    return prog.mesh.SimConfig(topology=topo, policy=policy, table=table,
                               rounds=rounds, seed=seed, fading_std=fading)


def reference_graph() -> gen.Graph:
    return gen.random_geometric_graph(REFERENCE_GRAPH_SEED, 0)


def reference_flood(prog, graph: gen.Graph, seed: int) -> Tuple[float, float]:
    """(delivery, mean first slot) of one reference run."""
    cfg = sim_config(prog, graph, prog.linkmodel.paper_default_table(), seed,
                     REFERENCE_ROUNDS)
    _summary, log = prog.mesh.run(cfg)
    return checks.delivery_and_hop(checks.rounds_from_log(log))


@dataclass
class Workload:
    seed: int
    work: str  # directory for this run's files

    name = ""
    unit = ""
    variants = 1  # input sets drawn from the seed; batch i uses variant i % variants

    def variant(self, i: int) -> int:
        return i % self.variants

    def path(self, *parts) -> str:
        p = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def batch_seed(self, purpose: int, i: int) -> int:
        return gen.batch_seed(self.seed, purpose, i)


class McCalibrate(Workload):
    """`ctflood calibrate` (72 small cells), `ctflood ber` and `ctflood ber
    --ct`: one of the three commands per batch, in turn."""

    name = "mc_calibrate"
    unit = "packet"
    variants = 3  # calibrate, ber, ber --ct
    cal_packets = len(CAL_DP) * len(CAL_DT) * len(CAL_BR) * 2 * CAL_REPLICAS
    ber_packets = len(BER_POINTS_DB) * BER_REPLICAS
    # variant -> (output dir, seed purpose, extra flags, closed form in models)
    ber_runs = {1: ("ber", PURPOSE_BER, [], "ber_bfsk"),
                2: ("ber_ct", PURPOSE_CT, ["--ct"], "ber_2ct_equal")}

    def inputs(self) -> Tuple:
        return (self.name, CAL_DP, CAL_DT, CAL_BR, CAL_EBN0_DB, CAL_REPLICAS,
                BER_POINTS_DB, BER_REPLICAS,
                [[self.batch_seed(p, i) for p in (PURPOSE_CAL, PURPOSE_BER, PURPOSE_CT)]
                 for i in range(INPUT_BATCHES)])

    def units(self, i: int) -> int:
        return self.cal_packets if self.variant(i) == 0 else self.ber_packets

    def argv(self, i: int) -> List[str]:
        csv = lambda xs: ",".join(f"{x:g}" for x in xs)
        if self.variant(i) == 0:
            return ["calibrate", "--out", self.path("cal", ""), "--mode", "1m",
                    "--ebn0-db", f"{CAL_EBN0_DB:g}", "--delta-p", csv(CAL_DP),
                    "--delta-t", csv(CAL_DT), "--beat-ratio", csv(CAL_BR),
                    "--bits-per-packet", str(PACKET_BITS), "--replicas", str(CAL_REPLICAS),
                    "--seed", str(self.batch_seed(PURPOSE_CAL, i))]
        sub, purpose, flags, _oracle = self.ber_runs[self.variant(i)]
        return ["ber", "--start-db", f"{BER_POINTS_DB[0]:g}", "--stop-db",
                f"{BER_POINTS_DB[-1]:g}", "--step-db", f"{BER_POINTS_DB[1] - BER_POINTS_DB[0]:g}",
                "--bits", str(BER_REPLICAS * PACKET_BITS), "--out", self.path(sub, ""),
                "--seed", str(self.batch_seed(purpose, i))] + flags

    def run_batch(self, prog, i: int) -> int:
        self.code = prog.cli.main(self.argv(i))
        return self.units(i)

    def check_batch(self, prog, i: int, ledger: checks.Ledger, ref: Dict) -> None:
        tag = f"{self.name}/batch{i}"
        if self.code:
            ledger.op(f"{tag}/exit", [f"exit code {self.code}"])
        elif self.variant(i) == 0:
            self.check_calibrate(tag, ledger, ref["calibrate"])
        else:
            sub, _purpose, _flags, oracle = self.ber_runs[self.variant(i)]
            self.check_ber(tag, sub, getattr(prog.models, oracle), ledger)

    def check_calibrate(self, tag: str, ledger: checks.Ledger, cal: Dict) -> None:
        cells = checks.link_table_cells(
            checks.read_csv_rows(self.path("cal", "link_table.csv")))
        for key, ref_k in sorted(cal["decoded"].items()):
            p = cells.get(key)
            if p is None:
                ledger.op(f"{tag}/cell {key}", ["cell missing from link_table.csv"])
                continue
            k = round(p * CAL_REPLICAS)
            errs = [] if abs(k - p * CAL_REPLICAS) < 1e-6 else [
                f"probability {p} is not a count over {CAL_REPLICAS} packets"]
            ledger.op(f"{tag}/cell {key}", errs, [
                checks.proportion_check(f"cell {key}", k, CAL_REPLICAS, ref_k, cal["replicas"])])

    def check_ber(self, tag: str, sub: str, oracle, ledger: checks.Ledger) -> None:
        n_bits = BER_REPLICAS * PACKET_BITS
        rows = {float(r["ebn0_db"]): float(r["ber_mc"])
                for r in checks.read_csv_rows(self.path(sub, "ber.csv"))}
        for db in BER_POINTS_DB:
            name = f"{tag}/{sub} {db:g} dB"
            if db not in rows:
                ledger.op(name, ["sweep point missing from ber.csv"])
                continue
            ledger.op(name, stats=[checks.ber_point_check(
                db, rows[db], n_bits, oracle(10.0 ** (db / 10.0)))])

    def check_once(self, prog, ledger: checks.Ledger, ref: Dict) -> None:
        mod = prog.phy.ModulationParams(symbol_period=1e-6)
        spec = prog.montecarlo.PhyExperimentSpec
        s = self.batch_seed(PURPOSE_CHECK, 0)
        canaries = {
            "single_tx": spec(mod=mod, packet_bits=PACKET_BITS, power_delta=None,
                              replicas=CANARY_REPLICAS, seed=s),
            "capture_20db_diff": spec(mod=mod, packet_bits=PACKET_BITS, power_delta=20.0,
                                      same_data=False, replicas=CANARY_REPLICAS, seed=s + 1),
        }
        for label, sp in canaries.items():
            est = prog.montecarlo.run_per_point(sp, math.inf)
            ledger.op(f"{self.name}/canary {label}",
                      checks.noiseless_errors(est.point, est.n_trials, sp.replicas))


class FloodSynced(Workload):
    """`ctflood flood` on 200-node random geometric graphs, all nodes synced.

    Batches cycle through `variants` graphs drawn from the seed, so that the
    throughput averages over graphs rather than riding on one.
    """

    name = "flood_synced"
    unit = "node-slot"
    variants = FLOOD_GRAPHS

    def __init__(self, seed: int, work: str):
        super().__init__(seed, work)
        self.graphs = [gen.random_geometric_graph(seed, k) for k in range(self.variants)]
        self.csvs = []
        for k, graph in enumerate(self.graphs):
            paths = (self.path("in", f"edges{k}.csv"), self.path("in", f"nodes{k}.csv"))
            graph.write_csvs(*paths)
            self.csvs.append(paths)

    def graph(self, i: int) -> gen.Graph:
        return self.graphs[self.variant(i)]

    def shape(self, graph: gen.Graph) -> checks.FloodShape:
        wait = wait_slots(FLOOD_DIAMETER)
        return checks.FloodShape(hop=graph.hop_distances(), initiator=graph.initiator,
                                 wait_slots=wait, slots_per_round=wait + N_TX,
                                 resync_threshold=FLOOD_RESYNC_THRESHOLD)

    def units(self, i: int) -> int:
        return FLOOD_ROUNDS * (wait_slots(FLOOD_DIAMETER) + N_TX) * self.graph(i).n_nodes

    def inputs(self) -> Tuple:
        return (self.name, [(g.edges, g.cfo_hz, g.initiator) for g in self.graphs],
                FLOOD_ROUNDS, [self.batch_seed(PURPOSE_FLOOD, i) for i in range(INPUT_BATCHES)])

    def run_batch(self, prog, i: int) -> int:
        edges, nodes = self.csvs[self.variant(i)]
        self.code = prog.cli.main([
            "flood", "--topology", edges, "--nodes", nodes,
            "--out", self.path("out", ""), "--rounds", str(FLOOD_ROUNDS),
            "--n-tx", str(N_TX), "--diameter", str(FLOOD_DIAMETER), "--mode", "2m",
            "--channels", ",".join(map(str, CHANNELS)), "--fading-std", f"{FADING_DB:g}",
            "--seed", str(self.batch_seed(PURPOSE_FLOOD, i))])
        return self.units(i)

    def check_batch(self, prog, i: int, ledger: checks.Ledger, ref: Dict) -> None:
        tag = f"{self.name}/batch{i}"
        if self.code:
            ledger.op(f"{tag}/exit", [f"exit code {self.code}"])
            return
        rounds = checks.rounds_from_csv(
            checks.read_csv_rows(self.path("out", "flood_rounds.csv")))
        if len(rounds) != FLOOD_ROUNDS:
            ledger.op(f"{tag}/log", [f"{len(rounds)} rounds logged, expected {FLOOD_ROUNDS}"])
            return
        for r, errs in enumerate(checks.flood_log_errors(rounds, self.shape(self.graph(i)))):
            ledger.op(f"{tag}/round{r}", errs)

    def check_once(self, prog, ledger: checks.Ledger, ref: Dict) -> None:
        for k, graph in enumerate(self.graphs):
            cfg = sim_config(prog, graph, p1_table(prog), self.batch_seed(PURPOSE_CHECK, k),
                             CANARY_ROUNDS, fading=0.0)
            _summary, log = prog.mesh.run(cfg)
            rounds = checks.rounds_from_log(log)
            errs = checks.exact_hop_errors(rounds, self.shape(graph))
            if len(rounds) != CANARY_ROUNDS:
                errs.append(f"{len(rounds)} rounds logged, expected {CANARY_ROUNDS}")
            ledger.op(f"{self.name}/canary p=1 graph{k}", errs)
        r = ref[self.name]
        delivery, hop = reference_flood(prog, reference_graph(),
                                        self.batch_seed(PURPOSE_CHECK, self.variants))
        ledger.op(f"{self.name}/reference", stats=[
            checks.reference_check("delivery", delivery, *r["delivery"], r["runs"]),
            checks.reference_check("avg_hop", hop, *r["avg_hop"], r["runs"]),
        ])


WORKLOADS = {w.name: w for w in (McCalibrate, FloodSynced)}
