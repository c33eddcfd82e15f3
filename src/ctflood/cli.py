"""Command-line front end: sweeps, tables, and flood runs as CSV files.

Exit codes: 0 success, 2 usage error (argparse), 3 unreadable or malformed
input file, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import math
import secrets
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, airtime, linkmodel, mesh, models, montecarlo, node
from .phy import ModulationParams, noise_variance_per_dim

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

MODE_CHOICES = [name.lower() for name in airtime.MODES]
# The Monte Carlo kernel simulates uncoded BFSK, whose table coordinates are
# in bit periods and so do not depend on the bit rate: 1M and 2M share one table.
CALIBRATE_MODES = ["1m", "2m"]


def _manifest_lines(args, sub: str):
    skip = {"func", "config"}
    pairs = [
        f"{k}={v}"
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    ]
    return [f"tool_version={__version__}", f"subcommand={sub}"] + pairs


def _open_out(args, name: str):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _write_csv(path, header, rows, manifest):
    with open(path, "w", newline="") as fh:
        for line in manifest:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(path)


def _resolve_seed(args):
    if args.seed is None:
        args.seed = secrets.randbits(32)
        print(f"seed={args.seed}")


def _default_mod():
    return ModulationParams(symbol_period=1e-6)


def cmd_ber(args) -> int:
    _resolve_seed(args)
    if not args.step_db > 0:
        raise ValueError("--step-db must be positive")
    if args.bits <= 0:
        raise ValueError("--bits must be positive")
    if not (math.isfinite(args.start_db) and math.isfinite(args.stop_db)):
        raise ValueError("--start-db and --stop-db must be finite")
    mod = _default_mod()
    # start + k*step, rounded, so that a fractional step accumulates no error
    n_points = math.floor((args.stop_db - args.start_db) / args.step_db + 1e-9) + 1
    points = tuple(round(args.start_db + k * args.step_db, 9) for k in range(n_points))
    if not points:
        raise ValueError("--stop-db is below --start-db")
    for ebn0 in points:  # reject a point the noise model cannot represent before any runs
        noise_variance_per_dim(ebn0, mod)
    spec = montecarlo.PhyExperimentSpec(
        mod=mod,
        packet_bits=128,
        power_delta=0.0 if args.ct else None,
        beat_ratio=1.0,
        replicas=max(100, args.bits // 128),
        seed=args.seed,
    )
    rows = []
    for ebn0 in points:
        est = montecarlo.run_ber_point(spec, ebn0)
        x = 10.0 ** (ebn0 / 10.0)
        rows.append([
            ebn0,
            models.ber_bfsk(x),
            models.ber_2ct_equal(x),
            est.point,
            est.ci_low,
            est.ci_high,
        ])
    path = _open_out(args, "ber.csv")
    _write_csv(path, ["ebn0_db", "ber_analytic_1t", "ber_analytic_2ct",
                      "ber_mc", "ci_low", "ci_high"], rows,
               _manifest_lines(args, "ber"))
    return EXIT_OK


def cmd_per(args) -> int:
    _resolve_seed(args)
    spec = montecarlo.PhyExperimentSpec(
        mod=_default_mod(), packet_bits=args.bits_per_packet,
        same_data=not args.different_data, replicas=args.replicas, seed=args.seed,
    )
    failures = montecarlo.count_grid(spec, args.ebn0_db, args.delta_p, args.delta_t,
                                     args.beat_ratio)
    rows = []
    for (i, j, l), k in np.ndenumerate(failures):
        est = montecarlo.estimate(int(k), spec.replicas)
        rows.append([
            "1M", int(spec.same_data), args.delta_p[i], args.delta_t[j], args.beat_ratio[l],
            args.ebn0_db, spec.replicas, int(k), est.point,
            est.ci_low, est.ci_high, args.seed,
        ])
    path = _open_out(args, "per.csv")
    _write_csv(path, ["mode", "same_data", "delta_p_db", "delta_t_frac",
                      "beat_ratio", "ebn0_db", "trials", "failures", "per",
                      "ci_low", "ci_high", "seed"], rows,
               _manifest_lines(args, "per"))
    return EXIT_OK


def cmd_airtime(args) -> int:
    rows = []
    for name, mode in airtime.MODES.items():
        symbols = airtime.symbols_on_air(mode, args.pdu_len, strict=args.strict_ble)
        air_ms = airtime.air_time(mode, args.pdu_len, strict=args.strict_ble) * 1e3
        slot_ms = airtime.slot_length(mode, args.pdu_len, strict=args.strict_ble) * 1e3
        rows.append([name, symbols, round(air_ms, 6), round(slot_ms, 6)])
    path = _open_out(args, "airtime.csv")
    _write_csv(path, ["mode", "symbols", "air_time_ms", "slot_ms"], rows,
               _manifest_lines(args, "airtime"))
    return EXIT_OK


def cmd_flood(args) -> int:
    _resolve_seed(args)
    try:
        topo = mesh.load_topology(args.topology, args.nodes)
        table = (linkmodel.load_table(args.link_table)
                 if args.link_table else linkmodel.paper_default_table())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    policy = node.NodePolicy(
        n_tx=args.n_tx,
        diameter=args.diameter,
        round_period=args.period,
        hop_sequence=tuple(args.channels),
    )
    cfg = mesh.SimConfig(
        topology=topo, policy=policy, table=table,
        mode=airtime.get_mode(args.mode), pdu_len=args.pdu_len,
        rounds=args.rounds, seed=args.seed,
        fading_std=args.fading_std,
    )
    summary, log = mesh.run(cfg)
    manifest = _manifest_lines(args, "flood")
    listeners = sorted(log[0].first_slot)
    _write_csv(
        _open_out(args, "flood_rounds.csv"),
        ["round", "success", "active_slots"] + [f"first_slot_{v}" for v in listeners],
        [[r, int(m.success), m.active_slots]
         + [m.first_slot[v] or "" for v in listeners] for r, m in enumerate(log)],
        manifest,
    )
    _write_csv(
        _open_out(args, "flood_summary.csv"),
        ["rounds", "end_to_end_per", "avg_hop", "avg_latency_ms",
         "r_avg_ms", "duty_cycle_pct"],
        [[summary.rounds, summary.end_to_end_per, round(summary.avg_hop, 4),
          round(summary.avg_latency * 1e3, 4), round(summary.avg_radio_time * 1e3, 4),
          round(summary.duty_cycle * 100, 4)]],
        manifest,
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _resolve_seed(args)
    spec = montecarlo.PhyExperimentSpec(
        mod=_default_mod(), packet_bits=args.bits_per_packet, replicas=args.replicas,
        seed=args.seed,
    )
    axes = (args.delta_p, args.delta_t, args.beat_ratio)
    # 1 - PER per cell, for the same and for different payloads
    tables = {
        (args.mode.upper(), same):
            1.0 - montecarlo.count_grid(replace(spec, same_data=same), args.ebn0_db, *axes)
            / spec.replicas
        for same in (True, False)
    }
    table = linkmodel.LinkTable(*axes, tables, provenance={
        "source": "monte-carlo-calibration", "seed": str(spec.seed),
        "replicas": str(spec.replicas), "packet_bits": str(spec.packet_bits),
        "ebn0_db": str(args.ebn0_db),
    })
    path = _open_out(args, "link_table.csv")
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in _manifest_lines(args, "calibrate"))
        fh.write(linkmodel.dumps_table(table))
    print(path)
    return EXIT_OK


def _float_list(text: str):
    return [float(x) for x in text.split(",") if x != ""]


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x != ""]


_SUBCOMMANDS = ("ber", "per", "airtime", "flood", "calibrate")


def _apply_config_file(parser: argparse.ArgumentParser, argv):
    """Expand a key=value file into flags placed before the explicit ones.

    Explicit command-line flags come later in argv and therefore win.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        parser.error("--config requires a path")
    argv = argv[:idx] + argv[idx + 2:]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    injected = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            print(f"error: bad config line {line!r}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
        k, v = (part.strip() for part in line.split("=", 1))
        flag = "--" + k.replace("_", "-")
        if v.lower() in ("true", "false"):
            if v.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, v])
    for i, tok in enumerate(argv):
        if tok in _SUBCOMMANDS:
            return argv[: i + 1] + injected + argv[i + 1:]
    return argv + injected


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ctflood",
                                description="concurrent-transmission link and flooding experiments")
    p.add_argument("--config", help="key=value defaults file (flags override)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("ber", help="analytic and Monte Carlo BER sweep")
    common(sp)
    sp.add_argument("--start-db", type=float, default=0.0)
    sp.add_argument("--stop-db", type=float, default=14.0)
    sp.add_argument("--step-db", type=float, default=1.0)
    sp.add_argument("--bits", type=int, default=20000,
                    help="Monte Carlo bits per point, in whole 128-bit packets, "
                         "at least 100 packets (12800 bits)")
    sp.add_argument("--ct", action="store_true",
                    help="Monte Carlo column simulates two aligned equal transmitters")
    sp.set_defaults(func=cmd_ber)

    sp = sub.add_parser("per", help="packet error rate grid for two transmitters")
    common(sp)
    sp.add_argument("--ebn0-db", type=float, default=12.0)
    sp.add_argument("--delta-p", type=_float_list, default=[0.0, 1.0, 2.0])
    sp.add_argument("--delta-t", type=_float_list, default=[0.0, 0.25, 0.5])
    sp.add_argument("--beat-ratio", type=_float_list, default=[0.1, 1.0, 3.6])
    sp.add_argument("--bits-per-packet", type=int, default=128)
    sp.add_argument("--replicas", type=int, default=2000)
    sp.add_argument("--different-data", action="store_true")
    sp.set_defaults(func=cmd_per)

    sp = sub.add_parser("airtime", help="per-mode symbol counts and slot budgets")
    common(sp)
    sp.add_argument("--pdu-len", type=int, default=38)
    sp.add_argument("--strict-ble", action="store_true",
                    help="standard-exact coded-mode arithmetic")
    sp.set_defaults(func=cmd_airtime)

    sp = sub.add_parser("flood", help="multi-hop flooding simulation")
    common(sp)
    sp.add_argument("--topology", required=True, help="edge CSV: src,dst,gain_db")
    sp.add_argument("--nodes", required=True, help="node CSV: id,cfo_hz,is_initiator")
    sp.add_argument("--mode", choices=MODE_CHOICES, default="2m")
    sp.add_argument("--pdu-len", type=int, default=38)
    sp.add_argument("--n-tx", type=int, default=3)
    sp.add_argument("--diameter", type=int, default=5)
    sp.add_argument("--rounds", type=int, default=1000)
    sp.add_argument("--period", type=float, default=0.2)
    sp.add_argument("--channels", type=_int_list, default=[37])
    sp.add_argument("--fading-std", type=float, default=1.0)
    sp.add_argument("--link-table", default=None,
                    help="link table CSV; omit for the built-in default")
    sp.set_defaults(func=cmd_flood)

    sp = sub.add_parser("calibrate", help="Monte Carlo link table generation")
    common(sp)
    sp.add_argument("--mode", choices=CALIBRATE_MODES, default="1m",
                    help="table label; the simulation is uncoded BFSK, whose "
                         "table is the same for 1m and 2m, so coded modes and "
                         "802.15.4 cannot be calibrated")
    sp.add_argument("--ebn0-db", type=float, default=12.0)
    sp.add_argument("--delta-p", type=_float_list, default=[0.0, 2.0, 8.0])
    sp.add_argument("--delta-t", type=_float_list, default=[0.0, 0.5])
    sp.add_argument("--beat-ratio", type=_float_list, default=[0.1, 1.0, 3.6])
    sp.add_argument("--bits-per-packet", type=int, default=128)
    sp.add_argument("--replicas", type=int, default=500)
    sp.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
