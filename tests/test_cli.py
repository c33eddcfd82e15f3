import csv
import math
from pathlib import Path

import numpy as np
import pytest

import ctflood
from ctflood import cli, linkmodel, montecarlo
from ctflood.linkmodel import load_table
from ctflood.models import ber_2ct_equal, ber_bfsk


def read_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(line.strip())
    header = rows[0].split(",")
    return header, [dict(zip(header, r.split(","))) for r in rows[1:]]


def manifest_lines(path):
    with open(path) as fh:
        return [l.strip() for l in fh if l.startswith("#")]


def write_topology(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,cfo_hz,is_initiator\n0,0,1\n1,2000,0\n2,-4000,0\n")
    edges.write_text(
        "src,dst,gain_db\n0,1,-60\n1,0,-60\n1,2,-60\n2,1,-60\n0,2,-60\n2,0,-60\n"
    )
    return edges, nodes


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ber", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_missing_input_file_exit_code(tmp_path):
    rc = cli.main([
        "flood", "--topology", str(tmp_path / "missing.csv"),
        "--nodes", str(tmp_path / "missing2.csv"),
        "--out", str(tmp_path), "--seed", "1",
    ])
    assert rc == cli.EXIT_INPUT


def test_airtime_table(tmp_path):
    assert cli.main(["airtime", "--out", str(tmp_path), "--seed", "0"]) == 0
    header, rows = read_csv(tmp_path / "airtime.csv")
    assert header == ["mode", "symbols", "air_time_ms", "slot_ms"]
    got = {r["mode"]: (float(r["air_time_ms"]), float(r["slot_ms"])) for r in rows}
    assert got["2M"][0] == pytest.approx(0.188)
    assert got["125K"][0] == pytest.approx(3.408)
    assert got["802154"][1] == pytest.approx(1.867, abs=1e-3)
    # strict arithmetic changes only the coded rows
    assert cli.main(["airtime", "--out", str(tmp_path), "--seed", "0",
                     "--strict-ble"]) == 0
    _, strict_rows = read_csv(tmp_path / "airtime.csv")
    strict = {r["mode"]: int(r["symbols"]) for r in strict_rows}
    assert strict["125K"] == 3024 and strict["500K"] == 1038
    assert strict["1M"] == 368 and strict["2M"] == 376


def test_airtime_pdu_sweep_monotone(tmp_path):
    airs = []
    for n in (10, 38, 100):
        cli.main(["airtime", "--out", str(tmp_path), "--pdu-len", str(n)])
        _, rows = read_csv(tmp_path / "airtime.csv")
        airs.append(float(rows[0]["air_time_ms"]))
    assert airs[0] < airs[1] < airs[2]


def test_ber_sweep(tmp_path):
    assert cli.main(["ber", "--out", str(tmp_path), "--seed", "5",
                     "--bits", "5000"]) == 0
    header, rows = read_csv(tmp_path / "ber.csv")
    assert len(rows) == 15  # 0..14 dB inclusive
    for r in rows:
        x = 10 ** (float(r["ebn0_db"]) / 10)
        assert float(r["ber_analytic_1t"]) == pytest.approx(ber_bfsk(x), abs=1e-12)
        assert float(r["ber_analytic_2ct"]) == pytest.approx(ber_2ct_equal(x), abs=1e-12)
        assert float(r["ci_low"]) <= float(r["ber_mc"]) <= float(r["ci_high"])
    # manifest header embeds the invocation
    assert any("subcommand=ber" in l for l in manifest_lines(tmp_path / "ber.csv"))
    assert any("seed=5" in l for l in manifest_lines(tmp_path / "ber.csv"))


def test_per_grid_and_determinism(tmp_path):
    args = ["per", "--out", str(tmp_path), "--seed", "3",
            "--replicas", "20000", "--delta-p", "0,1", "--delta-t", "0",
            "--beat-ratio", "0.1"]
    assert cli.main(args) == 0
    first = (tmp_path / "per.csv").read_text()
    header, rows = read_csv(tmp_path / "per.csv")
    assert len(rows) == 2  # grid cardinality
    assert {r["seed"] for r in rows} == {"3"}
    # a 1 dB margin already helps: one-sided two-proportion z-test at 0.1%
    k0, k1 = (int(r["failures"]) for r in rows)
    n0, n1 = (int(r["trials"]) for r in rows)
    pooled = (k0 + k1) / (n0 + n1)
    z = (k0 / n0 - k1 / n1) / math.sqrt(pooled * (1 - pooled) * (1 / n0 + 1 / n1))
    assert z >= 3.09
    assert cli.main(args) == 0
    assert (tmp_path / "per.csv").read_text() == first


def test_per_cell_streams_are_keyed_by_seed_and_cell(tmp_path, monkeypatch):
    # --seed 2 and --seed 3 share no replica stream key across the 27 default cells
    keys = {"2": set(), "3": set()}
    chunk_rng = montecarlo._chunk_rng

    def recording(spec, ebn0_db, chunk):
        rng = chunk_rng(spec, ebn0_db, chunk)
        keys[str(spec.seed)].add(tuple(rng.bit_generator.seed_seq.entropy))
        return rng

    monkeypatch.setattr(montecarlo, "_chunk_rng", recording)
    for s in keys:
        assert cli.main(["per", "--out", str(tmp_path / s), "--seed", s,
                         "--replicas", "100"]) == 0
    assert len(keys["2"]) == len(keys["3"]) == 27
    assert not keys["2"] & keys["3"]


def test_ber_sub_sweep_reproduces_its_rows(tmp_path):
    rows = {}
    for start in ("0", "4"):
        out = tmp_path / start
        assert cli.main(["ber", "--out", str(out), "--seed", "5", "--start-db", start,
                         "--stop-db", "8", "--step-db", "4", "--bits", "12800"]) == 0
        _, got = read_csv(out / "ber.csv")
        rows[start] = {r["ebn0_db"]: r for r in got}
    assert list(rows["0"]) == ["0.0", "4.0", "8.0"]
    assert list(rows["4"]) == ["4.0", "8.0"]
    for db in ("4.0", "8.0"):
        assert rows["4"][db] == rows["0"][db]


def test_ber_above_17_db(tmp_path):
    assert cli.main(["ber", "--out", str(tmp_path), "--seed", "5", "--start-db", "16",
                     "--stop-db", "18", "--bits", "12800"]) == 0
    _, rows = read_csv(tmp_path / "ber.csv")
    assert [r["ebn0_db"] for r in rows] == ["16.0", "17.0", "18.0"]
    for r in rows:
        x = 10 ** (float(r["ebn0_db"]) / 10)
        assert float(r["ber_analytic_2ct"]) == pytest.approx(ber_2ct_equal(x), abs=1e-12)


def test_ber_checks_every_point_before_the_first_runs(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(montecarlo, "run_ber_point", lambda spec, ebn0: ran.append(ebn0))
    assert cli.main(["ber", "--out", str(tmp_path), "--seed", "1", "--start-db", "3000",
                     "--stop-db", "4000", "--step-db", "1000"]) == cli.EXIT_INPUT
    assert ran == [] and not list(tmp_path.glob("*.csv"))


def test_per_cell_alone_equals_its_row_in_a_grid(tmp_path):
    common = ["--seed", "4", "--replicas", "300", "--ebn0-db", "10"]
    assert cli.main(["per", "--out", str(tmp_path / "grid"), "--delta-p", "0,1",
                     "--delta-t", "0,0.25", "--beat-ratio", "0.1,1"] + common) == 0
    assert cli.main(["per", "--out", str(tmp_path / "alone"), "--delta-p", "1",
                     "--delta-t", "0.25", "--beat-ratio", "0.1"] + common) == 0
    _, grid = read_csv(tmp_path / "grid" / "per.csv")
    _, alone = read_csv(tmp_path / "alone" / "per.csv")
    assert len(grid) == 8 and len(alone) == 1
    assert grid[6] == alone[0]
    assert 0 < int(alone[0]["failures"]) < 300  # both outcomes occur


def test_calibrate_cell_equals_per_cell(tmp_path):
    # the same cell gives the same count through calibrate and through per
    common = ["--seed", "6", "--replicas", "300", "--ebn0-db", "10",
              "--delta-t", "0", "--beat-ratio", "1"]
    assert cli.main(["calibrate", "--out", str(tmp_path), "--delta-p", "0,4"] + common) == 0
    assert cli.main(["per", "--out", str(tmp_path), "--delta-p", "4",
                     "--different-data"] + common) == 0
    table = load_table(tmp_path / "link_table.csv")
    _, rows = read_csv(tmp_path / "per.csv")
    failures = int(rows[0]["failures"])
    assert 0 < failures < 300
    assert table.tables[("1M", False)][1, 0, 0] == 1.0 - failures / 300


@pytest.mark.parametrize("argv", [
    ["per", "--ebn0-db", "nan"],
    ["per", "--ebn0-db=-inf"],
    ["per", "--delta-p", "nan"],
    ["per", "--delta-p", "inf"],
    ["per", "--beat-ratio", "nan"],
    ["per", "--delta-t", "200"],
    ["calibrate", "--ebn0-db", "nan"],
    ["ber", "--step-db", "0"],
    ["ber", "--step-db", "nan"],
    ["ber", "--start-db", "14", "--stop-db", "0"],
    ["ber", "--bits", "0"],
    ["ber", "--bits=-5"],
    ["per", "--delta-p", ""],
    ["per", "--delta-t", ""],
    ["per", "--beat-ratio", ""],
    ["calibrate", "--delta-p", "8,0,2"],
    ["per", "--delta-p", "4,4"],
    ["per", "--delta-t", "0.5,0.25"],
    ["ber", "--start-db", "nan"],
    ["ber", "--stop-db", "inf"],
    ["ber", "--start-db", "4000", "--stop-db", "4000"],
    ["per", "--ebn0-db", "4000"],
    ["calibrate", "--ebn0-db", "4000"],
    ["per", "--ebn0-db=-4000"],
    ["ber", "--start-db=-3100", "--stop-db=-3100"],
    ["per", "--ebn0-db=-3200"],
    ["calibrate", "--ebn0-db=-3100"],
    ["per", "--delta-p", "7000"],
    ["calibrate", "--delta-p", "0,6000"],
])
def test_bad_monte_carlo_input_exit_code(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path), "--seed", "1"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["per", "calibrate"])
@pytest.mark.parametrize("ebn0_db", ["nan", "-3074", "4000"])
def test_bad_ebn0_simulates_no_packet(tmp_path, monkeypatch, command, ebn0_db):
    # the noise model's check runs before a cell's first draw, with no CLI pre-check
    calls = []
    monkeypatch.setattr(montecarlo, "_correlate", lambda *a: calls.append(a))
    assert cli.main([command, f"--ebn0-db={ebn0_db}", "--out", str(tmp_path),
                     "--seed", "1"]) == cli.EXIT_INPUT
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["ber", "--start-db=-3073", "--stop-db=-3073", "--bits", "12800"],
    ["per", "--ebn0-db=-3073"],
    ["calibrate", "--ebn0-db=-3073"],
])
def test_lowest_accepted_ebn0_runs(tmp_path, argv):
    # pyproject.toml makes RuntimeWarning an error, so an overflowing energy fails here
    grid = [] if argv[0] == "ber" else ["--replicas", "100", "--delta-p", "0",
                                        "--delta-t", "0", "--beat-ratio", "1"]
    assert cli.main(argv + grid + ["--out", str(tmp_path), "--seed", "1"]) == cli.EXIT_OK
    assert len(list(tmp_path.glob("*.csv"))) == 1
    if argv[0] == "per":  # every packet fails: the estimate and its interval end are exact
        _, rows = read_csv(tmp_path / "per.csv")
        assert (rows[0]["failures"], rows[0]["per"], rows[0]["ci_high"]) == ("100", "1.0", "1.0")


@pytest.mark.parametrize("argv", [
    ["ber", "--start-db=3070", "--stop-db=3081", "--bits", "12800"],
    ["per", "--ebn0-db=3060", "--delta-p", "0,20", "--replicas", "100"],
])
def test_highest_accepted_ebn0_runs(tmp_path, argv):
    # a strong signal over a tiny noise sigma must not overflow either
    assert cli.main(argv + ["--out", str(tmp_path), "--seed", "1"]) == cli.EXIT_OK
    assert len(list(tmp_path.glob("*.csv"))) == 1


@pytest.mark.parametrize("argv", [
    ["per", "--ebn0-db=3060"],
    ["per", "--ebn0-db=6"],
    ["per", "--ebn0-db=-3073"],
    ["calibrate", "--ebn0-db=12"],
])
def test_highest_accepted_power_delta_runs(tmp_path, argv):
    # 3055 dB is the most a spec accepts at 16 samples per symbol; with a tiny,
    # a moderate or a huge noise sigma no branch energy may overflow
    grid = ["--delta-p", "0,3055", "--delta-t", "0,0.5,1.25", "--beat-ratio", "1",
            "--replicas", "100"]
    assert cli.main(argv + grid + ["--out", str(tmp_path), "--seed", "1"]) == cli.EXIT_OK
    assert len(list(tmp_path.glob("*.csv"))) == 1


@pytest.mark.parametrize("edges_text, nodes_text, table_text, flags", [
    pytest.param("src,dst,gain_db\n0,5,-60\n", None, None, [], id="unknown-node"),
    pytest.param("src,dst,gain_db\n0,1,nan\n1,0,-60\n", None, None, [], id="nan-gain"),
    pytest.param(None, "id,cfo_hz,is_initiator\n0,0,1\n1,nan,0\n2,-4000,0\n", None, [],
                 id="nan-cfo"),
    pytest.param(None, None, None, ["--channels", "99,-4"], id="channels"),
    pytest.param(None, None, None, ["--period", "0"], id="period-0"),
    pytest.param(None, None, None, ["--period", "nan"], id="period-nan"),
    pytest.param(None, None, None, ["--fading-std", "nan"], id="fading-nan"),
    pytest.param(None, None, None, ["--fading-std=-1"], id="fading-negative"),
    pytest.param(None, None, "2M,1,0.0,0.0,1.0,1.0\n2M,1,0.0,0.0,1.0,0.0\n", [],
                 id="link-table-duplicate-row"),
    pytest.param("src,dst,gain_db\n0,1,-60\n1,0,-60\n0,1,-95\n", None, None, [],
                 id="repeated-edge"),
    pytest.param(None, "id,cfo_hz,is_initiator\n0,0,0\n1,2000,7\n2,-4000,0\n", None, [],
                 id="initiator-flag-7"),
    pytest.param(None, None, None, ["--rounds", "0"], id="rounds-0"),
    pytest.param(None, "", None, [], id="empty-node-file"),
    pytest.param(None, "id,cfo_hz,is_initiator\n", None, [], id="node-header-only"),
    pytest.param(None, "id,cfo_hz,is_initiator\n0,0,1\n1,2000,0\n3,-4000,0\n", None, [],
                 id="node-ids-gap"),
    pytest.param(None, None, "2M,1,0.0,0.0,1.0,1.0\n2M,1,0.0,0.0,2.0,1.0\n"
                 "2M,1,1.0,0.0,1.0,1.0\n", [], id="link-table-incomplete-grid"),
])
def test_bad_flood_input_exit_code(tmp_path, edges_text, nodes_text, table_text, flags):
    edges, nodes = write_topology(tmp_path)
    if edges_text is not None:
        edges.write_text(edges_text)
    if nodes_text is not None:
        nodes.write_text(nodes_text)
    if table_text:
        table = tmp_path / "table.csv"
        table.write_text(linkmodel.CSV_HEADER + "\n" + table_text)
        flags = flags + ["--link-table", str(table)]
    rc = cli.main(["flood", "--topology", str(edges), "--nodes", str(nodes),
                   "--out", str(tmp_path / "out"), "--seed", "1", "--rounds", "5",
                   "--diameter", "2"] + flags)
    assert rc == cli.EXIT_INPUT
    assert not list(tmp_path.glob("out/*.csv"))


def test_ber_fractional_step_grid(tmp_path):
    assert cli.main(["ber", "--out", str(tmp_path), "--seed", "1", "--bits", "1280",
                     "--start-db", "0", "--stop-db", "0.5", "--step-db", "0.1"]) == 0
    _, rows = read_csv(tmp_path / "ber.csv")
    assert [r["ebn0_db"] for r in rows] == ["0.0", "0.1", "0.2", "0.3", "0.4", "0.5"]


def test_flood_run(tmp_path):
    edges, nodes = write_topology(tmp_path)
    rc = cli.main([
        "flood", "--topology", str(edges), "--nodes", str(nodes),
        "--out", str(tmp_path), "--seed", "7", "--rounds", "100",
        "--diameter", "2",
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "flood_summary.csv")
    assert header[0] == "rounds"
    assert rows[0]["rounds"] == "100"
    assert 0.0 <= float(rows[0]["end_to_end_per"]) <= 1.0
    header, rounds = read_csv(tmp_path / "flood_rounds.csv")
    assert len(rounds) == 100


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken_run(cfg):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli.mesh, "run", broken_run)
    edges, nodes = write_topology(tmp_path)
    rc = cli.main(["flood", "--topology", str(edges), "--nodes", str(nodes),
                   "--out", str(tmp_path), "--seed", "1"])
    assert rc == cli.EXIT_INTERNAL == 4
    assert "internal error: broken invariant" in capsys.readouterr().err
    assert not list(tmp_path.glob("flood_*.csv"))


def test_round_log_csv(tmp_path):
    edges, nodes = write_topology(tmp_path)
    assert cli.main(["flood", "--topology", str(edges), "--nodes", str(nodes),
                     "--out", str(tmp_path), "--seed", "3", "--rounds", "5",
                     "--diameter", "2"]) == 0
    manifest = manifest_lines(tmp_path / "flood_rounds.csv")
    assert manifest == manifest_lines(tmp_path / "flood_summary.csv")
    assert "# seed=3" in manifest
    lines = (tmp_path / "flood_rounds.csv").read_bytes().decode().splitlines(keepends=True)
    # the csv module's line ends, like every other CSV
    assert lines[len(manifest)] == "round,success,active_slots,first_slot_1,first_slot_2\r\n"
    assert len(lines) == len(manifest) + 1 + 5
    header, rows = read_csv(tmp_path / "flood_rounds.csv")
    assert [r["round"] for r in rows] == ["0", "1", "2", "3", "4"]
    for r in rows:
        slots = [r["first_slot_1"], r["first_slot_2"]]
        assert all(fs == "" or int(fs) >= 1 for fs in slots)
        assert r["success"] == str(int("" not in slots))


def test_calibrate_modes(tmp_path):
    # the kernel simulates uncoded BFSK; in table units 1m and 2m are one table
    common = ["--seed", "2", "--replicas", "100", "--delta-p", "0", "--delta-t", "0",
              "--beat-ratio", "1"]
    tables = {}
    for mode in ("1m", "2m"):
        assert cli.main(["calibrate", "--out", str(tmp_path / mode), "--mode", mode]
                        + common) == 0
        tables[mode] = load_table(tmp_path / mode / "link_table.csv").tables
    for same in (True, False):
        np.testing.assert_array_equal(tables["1m"][("1M", same)], tables["2m"][("2M", same)])
    for mode in ("125k", "500k", "802154"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", "--out", str(tmp_path / mode), "--mode", mode] + common)
        assert exc.value.code == cli.EXIT_USAGE
        assert not (tmp_path / mode).exists()


def test_calibrate_roundtrip(tmp_path):
    rc = cli.main([
        "calibrate", "--out", str(tmp_path), "--seed", "9",
        "--replicas", "150", "--delta-p", "0,8", "--delta-t", "0",
        "--beat-ratio", "0.1,1",
    ])
    assert rc == 0
    # the table carries the manifest every other CSV carries, then its provenance
    manifest = manifest_lines(tmp_path / "link_table.csv")
    assert manifest[:2] == [f"# tool_version={ctflood.__version__}", "# subcommand=calibrate"]
    assert "# replicas=150" in manifest and "# source=monte-carlo-calibration" in manifest
    table = load_table(tmp_path / "link_table.csv")
    assert table.provenance["seed"] == "9"
    assert table.provenance["subcommand"] == "calibrate"
    assert list(table.dp_axis) == [0.0, 8.0]
    assert list(table.br_axis) == [0.1, 1.0]
    # parse(emit(x)) = x
    from ctflood.linkmodel import dumps_table, loads_table
    again = loads_table(dumps_table(table))
    assert again.provenance == table.provenance
    for key in table.tables:
        np.testing.assert_array_equal(again.tables[key], table.tables[key])


def test_version_has_one_source(tmp_path):
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert ctflood.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]
    assert cli.main(["airtime", "--out", str(tmp_path)]) == 0
    assert f"# tool_version={ctflood.__version__}" in manifest_lines(tmp_path / "airtime.csv")


def test_seed_printed_when_omitted(tmp_path, capsys):
    assert cli.main(["airtime", "--out", str(tmp_path)]) == 0
    # airtime takes no randomness; the ber command derives and reports one
    assert cli.main(["ber", "--out", str(tmp_path), "--bits", "5000",
                     "--start-db", "10", "--stop-db", "10"]) == 0
    out = capsys.readouterr().out
    assert "seed=" in out


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pdu-len=100\nstrict-ble=true\n")
    assert cli.main(["--config", str(cfg), "airtime", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "airtime.csv")
    by_mode = {r["mode"]: int(r["symbols"]) for r in rows}
    assert by_mode["1M"] == 8 * (1 + 4 + 100 + 3)
    assert by_mode["500K"] == 376 + 16 * (100 + 3) + 6  # strict, no surcharge
    # an explicit flag overrides the file
    assert cli.main(["--config", str(cfg), "airtime", "--out", str(tmp_path),
                     "--pdu-len", "38"]) == 0
    _, rows = read_csv(tmp_path / "airtime.csv")
    by_mode = {r["mode"]: int(r["symbols"]) for r in rows}
    assert by_mode["1M"] == 368
    # unreadable config file
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(tmp_path / "nope.cfg"), "airtime"])
    assert exc.value.code == cli.EXIT_INPUT
    # comment and blank lines are skipped
    cfg.write_text("# airtime defaults\n\n   \npdu-len=100\n")
    assert cli.main(["--config", str(cfg), "airtime", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "airtime.csv")
    assert {r["mode"]: int(r["symbols"]) for r in rows}["1M"] == 8 * (1 + 4 + 100 + 3)
    # a line without '='
    cfg.write_text("pdu-len 100\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "airtime", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_INPUT
