import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctflood.linkmodel import (
    LinkTable,
    dumps_table,
    load_table,
    loads_table,
    paper_default_table,
    reception_probability,
)

TABLE = paper_default_table()


def _p(mode, same, dp, dt_frac, br, table=TABLE):
    return reception_probability(table, (mode, same), dp, dt_frac, br)


def test_axes_and_shapes_validated():
    with pytest.raises(ValueError):
        LinkTable([1.0, 0.0], [0.0], [1.0], {("1M", True): np.ones((2, 1, 1))})
    with pytest.raises(ValueError):
        LinkTable([0.0], [0.0], [1.0], {("1M", True): np.ones((2, 1, 1))})
    with pytest.raises(ValueError):
        LinkTable([0.0], [0.0], [1.0], {("1M", True): np.full((1, 1, 1), 1.5)})
    with pytest.raises(ValueError):
        LinkTable([0.0], [0.0], [1.0], {})
    # a NaN cell would fail every reception there without a word
    with pytest.raises(ValueError):
        LinkTable([0.0], [0.0], [1.0], {("1M", True): np.full((1, 1, 1), np.nan)})
    for axes in (([-1.0, 0.0], [0.0], [1.0]), ([0.0], [-0.5], [1.0]), ([0.0], [0.0], [-1.0])):
        with pytest.raises(ValueError):
            LinkTable(*axes, {("1M", True): np.ones(tuple(len(a) for a in axes))})


def test_grid_point_exactness():
    grid = TABLE.tables[("1M", True)]
    for i, dp in enumerate(TABLE.dp_axis):
        for j, dt in enumerate(TABLE.dt_axis):
            for k, br in enumerate(TABLE.br_axis):
                assert _p("1M", True, float(dp), float(dt), float(br)) == pytest.approx(
                    grid[i, j, k], abs=1e-12
                )


def test_measured_anchor_values():
    assert _p("125K", True, 0.0, 0.0, 29.44) == pytest.approx(0.9914, abs=1e-3)
    assert _p("1M", True, 0.0, 0.0, 3.6) == pytest.approx(0.0604, abs=1e-3)
    # strong same-data link at a 2 dB margin, slow beating
    assert _p("1M", True, 2.0, 0.0, 0.009) >= 0.9
    # half-symbol offset at 4 dB margin in the fastest uncoded mode
    assert _p("2M", True, 4.0, 0.5, 0.0045) == pytest.approx(0.6, abs=0.05)


def test_capture_thresholds_different_data():
    for mode in ("2M", "1M"):
        for dp in (0.0, 2.0, 4.0):
            assert _p(mode, False, dp, 0.0, 1.0) < 0.5
        assert _p(mode, False, 8.0, 0.0, 1.0) >= 0.8
    # heavy FEC survives equal power different payloads up to half a symbol
    for dt in (0.0, 0.25, 0.5):
        assert _p("125K", False, 0.0, dt, 1.0) >= 0.5


def test_default_monotonicity():
    for mode in ("2M", "1M"):
        grid = TABLE.tables[(mode, True)]
        # non-increasing in beat ratio at perfect alignment
        assert np.all(np.diff(grid[:, 0, :], axis=1) <= 1e-12)
        # non-decreasing in power delta everywhere at perfect alignment
        assert np.all(np.diff(grid[:, 0, :], axis=0) >= -1e-12)


@given(
    dp=st.floats(-2.0, 12.0),
    dt=st.floats(0.0, 2.0),
    br=st.floats(0.001, 50.0),
    mode=st.sampled_from(["2M", "1M", "500K", "125K", "802154"]),
    same=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_interpolation_bounds_and_clamping(dp, dt, br, mode, same):
    p = _p(mode, same, dp, dt, br)
    assert 0.0 <= p <= 1.0
    clamped = _p(
        mode,
        same,
        min(max(dp, TABLE.dp_axis[0]), TABLE.dp_axis[-1]),
        min(max(dt, TABLE.dt_axis[0]), TABLE.dt_axis[-1]),
        min(max(br, TABLE.br_axis[0]), TABLE.br_axis[-1]),
    )
    assert p == pytest.approx(clamped, abs=1e-12)


def test_interpolation_stays_within_cell():
    grid = TABLE.tables[("1M", True)]
    p = _p("1M", True, 0.5, 0.1, 1.0)
    cell = grid[0:2, 0:2, 5:8]
    assert cell.min() - 1e-12 <= p <= cell.max() + 1e-12


def _searchsorted_probability(table, key, delta_p, dt_frac, beat_ratio):
    """reception_probability with numpy's left-side search for the cell."""
    def weights(axis, value):
        if value <= axis[0]:
            return 0, 0, 0.0
        if value >= axis[-1]:
            return axis.size - 1, axis.size - 1, 0.0
        hi = int(np.searchsorted(axis, value))
        lo = hi - 1
        return lo, hi, float((value - axis[lo]) / (axis[hi] - axis[lo]))

    grid = table.tables[key]
    ilo, ihi, wi = weights(table.dp_axis, delta_p)
    jlo, jhi, wj = weights(table.dt_axis, dt_frac)
    klo, khi, wk = weights(table.br_axis, beat_ratio)
    total = 0.0
    for i, pi in ((ilo, 1 - wi), (ihi, wi)):
        for j, pj in ((jlo, 1 - wj), (jhi, wj)):
            for k, pk in ((klo, 1 - wk), (khi, wk)):
                w = pi * pj * pk
                if w:
                    total += w * grid[i, j, k]
    return float(total)


def test_lookup_equals_the_searchsorted_lookup_exactly():
    def probes(axis):
        # grid points, points between them, and points outside the hull
        mids = (axis[:-1] + axis[1:]) / 2
        thirds = axis[:-1] + (axis[1:] - axis[:-1]) / 3
        return [*axis, *mids, *thirds, axis[0] - 1.0, axis[-1] + 1.0, 1e9]

    for key in (("2M", True), ("1M", False), ("125K", True)):
        for dp in probes(TABLE.dp_axis):
            for dt in probes(TABLE.dt_axis):
                for br in probes(TABLE.br_axis):
                    got = reception_probability(TABLE, key, dp, dt, br)
                    assert got == _searchsorted_probability(TABLE, key, dp, dt, br)


def test_missing_mode_rejected():
    small = LinkTable([0.0], [0.0], [1.0], {("2M", True): np.ones((1, 1, 1))})
    assert _p("2M", True, 0.0, 0.0, 1.0, table=small) == 1.0
    with pytest.raises(ValueError):
        _p("1M", True, 0.0, 0.0, 1.0, table=small)
    with pytest.raises(ValueError):
        _p("2M", False, 0.0, 0.0, 1.0, table=small)


def test_nan_query_rejected():
    with pytest.raises(ValueError):
        _p("1M", True, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        _p("1M", True, 0.0, math.nan, 1.0)
    with pytest.raises(ValueError):
        _p("1M", True, 0.0, 0.0, math.nan)


def test_csv_roundtrip_exact(tmp_path):
    text = dumps_table(TABLE)
    back = loads_table(text)
    np.testing.assert_array_equal(back.dp_axis, TABLE.dp_axis)
    np.testing.assert_array_equal(back.dt_axis, TABLE.dt_axis)
    np.testing.assert_array_equal(back.br_axis, TABLE.br_axis)
    assert set(back.tables) == set(TABLE.tables)
    for key in TABLE.tables:
        np.testing.assert_array_equal(back.tables[key], TABLE.tables[key])
    assert back.provenance == TABLE.provenance
    path = tmp_path / "table.csv"
    path.write_text(dumps_table(TABLE))
    again = load_table(path)
    np.testing.assert_array_equal(again.tables[("1M", True)], TABLE.tables[("1M", True)])


def test_loads_rejects_bad_input():
    with pytest.raises(ValueError):
        loads_table("")
    with pytest.raises(ValueError):
        loads_table("wrong,header\n1,2\n")
    head = "mode,same_data,delta_p_db,delta_t_frac,beat_ratio,probability\n"
    row = "1M,1,0.0,0.0,1.0,"
    assert loads_table(head + row + "0.5\n").tables[("1M", True)][0, 0, 0] == 0.5
    with pytest.raises(ValueError, match="duplicate"):
        loads_table(head + row + "0.5\n" + row + "0.25\n")
    with pytest.raises(ValueError, match="same_data"):
        loads_table(head + "1M,7,0.0,0.0,1.0,0.5\n")
    with pytest.raises(ValueError, match="NaN"):
        loads_table(head + row + "nan\n")
