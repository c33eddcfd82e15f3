"""Record the reference values the statistical checks compare against.

Run from the repository root, on the code whose results are the
reference (the committed file was recorded from ctflood 0.1.0, before any
kernel change):

    python3 bench/record_reference.py

It rewrites bench/reference.json with:
- calibrate: decoded packets per link-table cell of the mc_calibrate grid,
  from one `ctflood calibrate` run with REFERENCE_REPLICAS replicas per
  cell;
- flood_synced: mean and standard deviation of delivery and mean first
  slot over REFERENCE_RUNS independent reference runs on the reference graph
  (workloads.reference_graph), seeds 1000, 1001, ...

It also prints the ber sweep's agreement with the closed forms at a large
sample, as a sanity check of the oracle the ber checks use.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_SEED = 20260
REFERENCE_REPLICAS = 10000
REFERENCE_RUNS = 40
OUT = os.path.join(HERE, "reference.json")


def record(replicas: int, runs: int) -> dict:
    prog = wl.import_program()
    out = {"source": f"ctflood {getattr(sys.modules['ctflood'], '__version__', '?')}"}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        csv = lambda xs: ",".join(f"{x:g}" for x in xs)
        code = prog.cli.main([
            "calibrate", "--out", tmp, "--mode", "1m", "--ebn0-db", f"{wl.CAL_EBN0_DB:g}",
            "--delta-p", csv(wl.CAL_DP), "--delta-t", csv(wl.CAL_DT),
            "--beat-ratio", csv(wl.CAL_BR), "--bits-per-packet", str(wl.PACKET_BITS),
            "--replicas", str(replicas), "--seed", str(REFERENCE_SEED)])
        assert code == 0, code
        cells = checks.link_table_cells(checks.read_csv_rows(os.path.join(tmp, "link_table.csv")))
        out["calibrate"] = {"replicas": replicas, "seed": REFERENCE_SEED,
                            "decoded": {k: round(p * replicas) for k, p in sorted(cells.items())}}
        for ct in (False, True):
            code = prog.cli.main(["ber", "--out", tmp, "--start-db", "0", "--stop-db", "12",
                                  "--step-db", "4", "--bits", str(5 * replicas * wl.PACKET_BITS),
                                  "--seed", str(REFERENCE_SEED)] + (["--ct"] if ct else []))
            assert code == 0, code
            oracle = prog.models.ber_2ct_equal if ct else prog.models.ber_bfsk
            for r in checks.read_csv_rows(os.path.join(tmp, "ber.csv")):
                db, ber = float(r["ebn0_db"]), float(r["ber_mc"])
                n = 5 * replicas * wl.PACKET_BITS
                lo, hi = checks.wilson(round(ber * n), n, checks.normal_quantile(1e-3 / 8))
                want = oracle(10.0 ** (db / 10.0))
                print(f"ber ct={ct} {db:g} dB: mc={ber:.6g} [{lo:.6g}, {hi:.6g}] "
                      f"closed form={want:.6g} {'ok' if lo <= want <= hi else 'OUTSIDE'}")
    graph = wl.reference_graph()
    stats = [wl.reference_flood(prog, graph, 1000 + j) for j in range(runs)]
    flood = out["flood_synced"] = {"runs": runs, "rounds": wl.REFERENCE_ROUNDS}
    for i, name in enumerate(("delivery", "avg_hop")):
        xs = [s[i] for s in stats]
        flood[name] = [statistics.fmean(xs), statistics.stdev(xs)]
    print("flood_synced", flood)
    return out


def main() -> int:
    ref = record(REFERENCE_REPLICAS, REFERENCE_RUNS)
    with open(OUT, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
