"""Tests of the benchmark itself: input generation, every output checker
(each with a planted wrong result it must catch), the tracer, and the
result line of run.py.

Run from the repository root: `PYTHONPATH=src python -m pytest bench -q`.
"""

import json
import os
import shutil
import subprocess
import sys
from types import ModuleType

import pytest

import checks
import gen
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SHAPE = checks.FloodShape(hop=[0, 1, 2, 2], initiator=0, wait_slots=5,
                          slots_per_round=7, resync_threshold=2)


def good_round(changes=None):
    """A round consistent with SHAPE, with some first slots replaced."""
    fs = {1: 1, 2: 2, 3: 3}
    fs.update(changes or {})
    return checks.FloodRound(all(v is not None for v in fs.values()), 10, fs)


# -- inputs -------------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    a, b = gen.random_geometric_graph(5, 0), gen.random_geometric_graph(5, 0)
    assert a == b
    assert gen.digest(a) == gen.digest(b)
    assert gen.digest(a) != gen.digest(gen.random_geometric_graph(6, 0))
    assert gen.digest(a) != gen.digest(gen.random_geometric_graph(5, 1))
    assert gen.batch_seed(1, 13, 0) == gen.batch_seed(1, 13, 0) != gen.batch_seed(1, 13, 1)


def test_random_geometric_graph_is_connected_with_target_density():
    g = gen.random_geometric_graph(0, 0)
    assert g.n_nodes == gen.RGG_NODES
    assert min(g.hop_distances()) == 0 and -1 not in g.hop_distances()
    assert 7.0 < g.mean_degree() < 11.0
    assert all(gen.RGG_GAIN_EDGE_DB <= gain <= gen.RGG_GAIN_NEAR_DB for _, _, gain in g.edges)


def test_graph_csvs_round_trip_through_the_program(tmp_path):
    from ctflood import mesh

    g = gen.random_geometric_graph(1, 0)
    g.write_csvs(tmp_path / "e.csv", tmp_path / "n.csv")
    topo = mesh.load_topology(tmp_path / "e.csv", tmp_path / "n.csv")
    assert topo.initiator == g.initiator
    assert list(topo.hop_distances()) == g.hop_distances()


# -- statistics ---------------------------------------------------------------

def test_student_t_quantiles_match_tables():
    # two-sided critical values: t(0.05, 19) and t(0.001, 5), t(0.05, 1)
    assert checks.student_t_quantile(0.05, 19) == pytest.approx(2.093024, abs=1e-5)
    assert checks.student_t_quantile(0.001, 5) == pytest.approx(6.868827, abs=1e-5)
    assert checks.student_t_quantile(0.05, 1) == pytest.approx(12.706205, abs=1e-5)
    assert checks.normal_quantile(0.05) == pytest.approx(1.959964, abs=1e-6)


def test_wilson_interval_contains_the_estimate():
    lo, hi = checks.wilson(30, 100, 1.96)
    assert lo < 0.3 < hi
    assert checks.wilson(0, 100, 3.0)[0] == 0.0
    assert checks.wilson(100, 100, 3.0)[1] == 1.0


# -- every checker passes a correct result and catches a planted wrong one ------

def test_ber_check_catches_a_wrong_ber():
    n = 512_000
    truth = 0.0213
    assert checks.ber_point_check(8.0, truth, n, truth)(1e-6) is None
    assert checks.ber_point_check(8.0, 1.5 * truth, n, truth)(1e-6) is not None


def test_calibration_cell_check_catches_a_wrong_cell():
    assert checks.proportion_check("c", 62, 100, 6100, 10000)(1e-6) is None
    assert checks.proportion_check("c", 5, 100, 6100, 10000)(1e-6) is not None


def test_noiseless_canary_catches_an_error():
    assert checks.noiseless_errors(0.0, 200, 200) == []
    assert checks.noiseless_errors(0.005, 200, 200)
    assert checks.noiseless_errors(0.0, 100, 200)


def test_flood_invariants_pass_a_correct_round():
    assert checks.flood_log_errors([good_round()], SHAPE) == [[]]
    assert checks.flood_log_errors([good_round({3: None})], SHAPE) == [[]]


@pytest.mark.parametrize("planted", [
    good_round({2: 1}),  # faster than one hop per slot
    good_round({3: 6}),  # synced node heard outside its listen window
    checks.FloodRound(False, 10, {1: 1, 2: 2, 3: 3}),  # all received, not success
    checks.FloodRound(True, 10, {1: 1, 2: 2, 3: None}),  # success with a miss
    checks.FloodRound(True, 29, {1: 1, 2: 2, 3: 3}),  # more active node-slots than exist
    checks.FloodRound(True, 10, {1: 1, 2: 2}),  # a listener left out of the log
])
def test_flood_invariants_catch_planted_rounds(planted):
    assert checks.flood_log_errors([planted], SHAPE)[0]


def test_scanning_nodes_may_hear_past_the_listen_window():
    missed = checks.FloodRound(False, 10, {1: 1, 2: 2, 3: None})
    late = checks.FloodRound(True, 10, {1: 1, 2: 2, 3: 6})
    # node 3 misses resync_threshold=2 rounds, so it scans in round 2
    assert checks.flood_log_errors([missed, missed, late], SHAPE) == [[], [], []]
    assert checks.flood_log_errors([missed, late], SHAPE)[1]


def test_exact_hop_check_catches_a_late_node():
    assert checks.exact_hop_errors([good_round({3: 2})], SHAPE) == []
    assert checks.exact_hop_errors([good_round()], SHAPE)


def test_reference_check_catches_a_shifted_statistic():
    assert checks.reference_check("d", 0.91, 0.90, 0.01, 40)(1e-6) is None
    assert checks.reference_check("d", 0.70, 0.90, 0.01, 40)(1e-6) is not None


def test_flood_round_csv_parsing(tmp_path):
    path = tmp_path / "flood_rounds.csv"
    path.write_text("# manifest\nround,success,active_slots,first_slot_1,first_slot_2,"
                    "first_slot_3\n0,1,10,1,2,3\n1,0,9,1,,3\n")
    rounds = checks.rounds_from_csv(checks.read_csv_rows(path))
    assert rounds[1] == checks.FloodRound(False, 9, {1: 1, 2: None, 3: 3})
    assert checks.flood_log_errors(rounds, SHAPE) == [[], []]
    assert checks.delivery_and_hop(rounds) == (5 / 6, 2.0)


def test_ledger_counts_failed_operations():
    ledger = checks.Ledger()
    ledger.op("exact ok")
    ledger.op("exact bad", ["wrong"])
    ledger.op("stat ok", stats=[lambda a: None])
    ledger.op("stat bad", stats=[lambda a: None, lambda a: "off"])
    alpha = ledger.settle()
    assert alpha == pytest.approx(checks.FAMILY_ALPHA / 3)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert [f.split(":")[0] for f in ledger.failures] == ["exact bad", "stat bad"]


def test_reference_values_cover_the_checked_grid():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    keys = {checks.cell_key(same, dp, dt, br) for same in (True, False)
            for dp in workloads.CAL_DP for dt in workloads.CAL_DT for br in workloads.CAL_BR}
    assert set(ref["calibrate"]["decoded"]) == keys
    flood = ref["flood_synced"]
    assert flood["runs"] >= 2 and flood["rounds"] == workloads.REFERENCE_ROUNDS


# -- tracer ---------------------------------------------------------------------

def test_tracer_counts_a_flood_and_restores_the_program():
    import numpy as np
    from ctflood import linkmodel, mesh, node

    orig = mesh.run, node.next_action, mesh.reception_probability
    topo = mesh.Topology.build([(0, 1, -60.0), (1, 2, -60.0)], 3, cfo=[0.0, 1e3, 2e3])
    table = linkmodel.LinkTable([0.0], [0.0], [1.0], {("2M", True): np.ones((1, 1, 1))})
    cfg = mesh.SimConfig(topology=topo, policy=node.NodePolicy(n_tx=1, diameter=2),
                         table=table, rounds=2, fading_std=0.0)
    t = tracing.Tracer()
    t.install()
    try:
        mesh.run(cfg)
    finally:
        t.uninstall()
    assert (mesh.run, node.next_action, mesh.reception_probability) == orig
    m = tracing.layer_metrics(t, 1, 0.0)
    assert set(m) == set(tracing.UNITS)
    slots = cfg.rounds * cfg.policy.slots_per_round
    assert m["node.rx_actions"] + m["node.tx_actions"] + m["node.sleep_actions"] == 3 * slots
    # p=1 table: every attempt with an arrival looks the table up and decodes
    successes = round(m["mesh.resolve_success_ratio"] * m["mesh.resolve_calls"])
    assert 0 < m["linkmodel.lookups"] == successes <= m["mesh.resolve_calls"]
    assert m["montecarlo.cells"] == 0 and m["montecarlo.busy_s"] == 0.0
    assert 0.0 < m["mesh.self_s"] <= m["mesh.run_s"]
    assert m["node.busy_s"] + m["linkmodel.busy_s"] < m["mesh.run_s"]
    assert len(t.spans) == sum(t.calls.values())


def test_tracer_skips_missing_hooks(monkeypatch):
    pkg = ModuleType("fakeflood")
    mesh_mod = ModuleType("fakeflood.mesh")
    mesh_mod.run = lambda cfg: ("summary", [])
    for name, mod in (("fakeflood", pkg), ("fakeflood.mesh", mesh_mod)):
        monkeypatch.setitem(sys.modules, name, mod)
    t = tracing.Tracer(package="fakeflood")
    assert t.install() == ["mesh.run"]
    t.uninstall()
    m = tracing.layer_metrics(t, 1, 0.0)
    assert m["node.calls"] == 0 and m["mesh.resolve_calls"] == 0


def test_per_layer_figures_are_per_pass():
    import numpy as np
    from ctflood import linkmodel, mesh, node

    topo = mesh.Topology.build([(0, 1, -60.0), (1, 2, -60.0)], 3, cfo=[0.0, 1e3, 2e3])
    table = linkmodel.LinkTable([0.0], [0.0], [1.0], {("2M", True): np.ones((1, 1, 1))})
    cfg = mesh.SimConfig(topology=topo, policy=node.NodePolicy(n_tx=1, diameter=2),
                         table=table, rounds=2, fading_std=0.0)
    metrics = []
    for passes in (1, 3):
        t = tracing.Tracer()
        t.install()
        try:
            for _ in range(passes):
                mesh.run(cfg)
        finally:
            t.uninstall()
        metrics.append(tracing.layer_metrics(t, passes, 0.0))
    one, three = metrics
    counts = [k for k, unit in tracing.UNITS.items() if unit == "count"]
    assert all(one[k] == three[k] for k in counts)
    assert one["node.calls"] > 0


def test_percentile_is_nearest_rank():
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert tracing.percentile([4.0, 1.0, 3.0, 2.0], 10) == 1.0
    assert tracing.percentile([], 90) == 0.0


def test_host_speed_scaling_cancels_a_uniform_slowdown():
    import run

    def phase(slowdown):
        p = run.Phase()
        p.batches = [(0.5 * slowdown, 100, 0), (1.5 * slowdown, 300, 1)]
        p.setups = [0.06 * slowdown, 0.07 * slowdown]
        p.probes = [run.PROBE_REF_S * slowdown] * 3
        return p

    fast, slow = phase(1.0), phase(2.0)
    assert fast.work_per_s() == pytest.approx(200.0)
    assert slow.wall_work_per_s() == pytest.approx(100.0)
    assert slow.work_per_s() == pytest.approx(fast.work_per_s())
    assert slow.setup_s() == pytest.approx(fast.setup_s()) == pytest.approx(0.065)


def test_host_probe_takes_time_and_keeps_its_data():
    import run

    assert run.host_probe() > 0
    table = run._PROBE["table"]
    assert run.host_probe() > 0 and run._PROBE["table"] is table


# -- run.py ---------------------------------------------------------------------

def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_run_prints_the_result_line():
    proc = _run(ROOT, "--workload", "flood_synced", "--seed", "3", "--seconds", "0.1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one batch of 20 rounds, a p=1 canary per graph and one reference run
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.FLOOD_ROUNDS + workloads.FLOOD_GRAPHS + 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc_calibrate", "--seed", "1", "--seconds", "1",
                timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
