"""Reception probability of a concurrent BFSK link.

A LinkTable stores, per radio mode and per same/different payload, the
probability that a listener decodes the superposition, on a grid over
power delta (dB), time delta (fraction of a symbol) and the packet/beat
period ratio. Queries interpolate trilinearly and clamp to the grid hull.

Two table sources exist: the built-in default below, hand-encoded from
over-the-air measurements of two concurrently transmitting radios, and
tables produced by the Monte Carlo calibrator.
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


def check_axes(*axes: Sequence[float]) -> None:
    """Raise ValueError unless every axis is non-empty, finite, non-negative
    and strictly increasing."""
    for ax in map(np.asarray, axes):
        if (ax.size == 0 or not np.all(np.isfinite(ax)) or ax[0] < 0
                or np.any(np.diff(ax) <= 0)):
            raise ValueError(
                "axes must be non-empty, finite, non-negative and strictly increasing")


@dataclass
class LinkTable:
    """Dense reception-probability tensors over (delta_p, delta_t, beat_ratio)."""

    dp_axis: np.ndarray
    dt_axis: np.ndarray  # fractions of the symbol period
    br_axis: np.ndarray  # t_packet / t_beat
    tables: Dict[Tuple[str, bool], np.ndarray]
    provenance: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.dp_axis = np.asarray(self.dp_axis, dtype=float)
        self.dt_axis = np.asarray(self.dt_axis, dtype=float)
        self.br_axis = np.asarray(self.br_axis, dtype=float)
        check_axes(self.dp_axis, self.dt_axis, self.br_axis)
        shape = (self.dp_axis.size, self.dt_axis.size, self.br_axis.size)
        if not self.tables:
            raise ValueError("table has no entries")
        for key, grid in self.tables.items():
            grid = np.asarray(grid, dtype=float)
            if grid.shape != shape:
                raise ValueError(f"tensor shape mismatch for {key}")
            if not np.all((grid >= 0) & (grid <= 1)):
                raise ValueError("probabilities must lie in [0, 1] and not be NaN")
            self.tables[key] = grid


def _interp_weights(axis: np.ndarray, value: float):
    """Clamped linear interpolation: (low index, high index, high weight)."""
    if value <= axis[0]:
        return 0, 0, 0.0
    if value >= axis[-1]:
        return axis.size - 1, axis.size - 1, 0.0
    hi = bisect.bisect_left(axis, value)
    lo = hi - 1
    w = (value - axis[lo]) / (axis[hi] - axis[lo])
    return lo, hi, float(w)


def reception_probability(table: LinkTable, key: Tuple[str, bool], delta_p: float,
                          dt_frac: float, beat_ratio: float) -> float:
    """Trilinear interpolation of the decode probability at table coordinates.

    key is (mode name, same payload); delta_p is the power difference of the
    two strongest arrivals in dB, dt_frac their time offset as a fraction of
    the mode's bit period, and beat_ratio the packet air time over the beat
    period (0 for no beating).
    """
    if key not in table.tables:
        raise ValueError(f"table has no entry for {key}")
    if math.isnan(delta_p) or math.isnan(dt_frac) or math.isnan(beat_ratio):
        raise ValueError("delta_p, dt_frac and beat_ratio must not be NaN")
    grid = table.tables[key]
    ilo, ihi, wi = _interp_weights(table.dp_axis, delta_p)
    jlo, jhi, wj = _interp_weights(table.dt_axis, dt_frac)
    klo, khi, wk = _interp_weights(table.br_axis, beat_ratio)
    total = 0.0
    for i, pi in ((ilo, 1 - wi), (ihi, wi)):
        for j, pj in ((jlo, 1 - wj), (jhi, wj)):
            for k, pk in ((klo, 1 - wk), (khi, wk)):
                w = pi * pj * pk
                if w:
                    total += w * grid[i, j, k]
    return float(total)


# ---------------------------------------------------------------------------
# Built-in default table.
#
# Anchors below are decode ratios measured over the air for two radios
# sending the same payload at equal power, perfect alignment, indexed by
# the packet/beat ratio. Between anchors the base curve is interpolated
# in log(beat ratio) and held flat beyond the measured range.
# ---------------------------------------------------------------------------

DP_AXIS = np.array([0.0, 1.0, 2.0, 4.0, 6.0, 8.0])
DT_AXIS = np.array([0.0, 0.25, 0.5, 1.0])
BR_AXIS = np.array(
    [0.0045, 0.009, 0.024, 0.0736, 0.33, 0.65, 1.74, 1.8, 3.6, 5.35, 9.58, 29.44]
)

_BASE_SAME = {
    "2M": [(0.0045, 0.7514), (0.33, 0.6119), (1.8, 0.2644)],
    "1M": [(0.009, 0.9134), (0.65, 0.2312), (3.6, 0.0604)],
    "500K": [(0.024, 0.9321), (1.74, 0.5255), (9.58, 0.8343)],
    "125K": [(0.0736, 0.9613), (5.35, 0.9016), (29.44, 0.9914)],
}

# Extra headroom gained once one signal dominates: p = base + (1-base)*lift.
_POWER_LIFT = {0.0: 0.0, 1.0: 0.7, 2.0: 0.9, 4.0: 0.95, 6.0: 0.97, 8.0: 0.98}

# Multiplicative penalty of mis-alignment, rows = DP_AXIS, cols = DT_AXIS.
# Uncoded 1 Mbps class has a knee at a quarter symbol; at 4 dB and beyond
# it partially recovers past the symbol boundary. The 0.5 us-symbol mode
# keeps a penalty even under strong capture; the 8 us-symbol coded mode
# barely notices sub-symbol misalignment.
_TF_2M = np.array(
    [
        [1.0, 0.70, 0.30, 0.25],
        [1.0, 0.75, 0.40, 0.35],
        [1.0, 0.80, 0.50, 0.50],
        [1.0, 0.85, 0.60, 0.60],
        [1.0, 0.90, 0.75, 0.75],
        [1.0, 0.92, 0.85, 0.85],
    ]
)
_TF_GEN = np.array(
    [
        [1.0, 0.55, 0.35, 0.30],
        [1.0, 0.65, 0.45, 0.40],
        [1.0, 0.75, 0.55, 0.55],
        [1.0, 0.90, 0.75, 0.85],
        [1.0, 0.97, 0.90, 0.95],
        [1.0, 1.00, 1.00, 1.00],
    ]
)
_TF_125 = np.array(
    [
        [1.0, 0.95, 0.85, 0.70],
        [1.0, 0.98, 0.92, 0.85],
        [1.0, 1.00, 1.00, 1.00],
        [1.0, 1.00, 1.00, 1.00],
        [1.0, 1.00, 1.00, 1.00],
        [1.0, 1.00, 1.00, 1.00],
    ]
)
_TF_FLAT = np.ones((6, 4))

_TIME_FACTOR_SAME = {"2M": _TF_2M, "1M": _TF_GEN, "500K": _TF_GEN, "125K": _TF_125}

# Different payloads: decoding rides on capture of the stronger signal.
# Roughly unusable below 6 dB, usable from 8 dB; the heavy-FEC mode keeps
# working at equal power unless misaligned by a full symbol.
_CAPTURE_DIFF = {
    "2M": {0.0: 0.05, 1.0: 0.07, 2.0: 0.10, 4.0: 0.25, 6.0: 0.50, 8.0: 0.90},
    "1M": {0.0: 0.05, 1.0: 0.07, 2.0: 0.10, 4.0: 0.25, 6.0: 0.50, 8.0: 0.90},
    "500K": {0.0: 0.10, 1.0: 0.12, 2.0: 0.15, 4.0: 0.30, 6.0: 0.55, 8.0: 0.90},
    "125K": {0.0: 0.70, 1.0: 0.72, 2.0: 0.75, 4.0: 0.80, 6.0: 0.85, 8.0: 0.95},
}
_TF_DIFF_125 = np.array(
    [
        [1.0, 1.0, 1.0, 0.5],
        [1.0, 1.0, 1.0, 0.5],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
    ]
)

P_802154_SAME = 0.99
P_802154_DIFF = 0.10


def _base_curve(anchors, br_axis: np.ndarray) -> np.ndarray:
    xs = np.log10([a for a, _ in anchors])
    ys = np.array([p for _, p in anchors])
    return np.interp(np.log10(br_axis), xs, ys)


def paper_default_table() -> LinkTable:
    """The built-in measurement-derived table for all five radio modes."""
    tables = {}
    for mode, anchors in _BASE_SAME.items():
        base = _base_curve(anchors, BR_AXIS)  # (br,)
        lift = np.array([_POWER_LIFT[dp] for dp in DP_AXIS])  # (dp,)
        lifted = base[None, :] + (1.0 - base[None, :]) * lift[:, None]  # (dp, br)
        tf = _TIME_FACTOR_SAME[mode]  # (dp, dt)
        tables[(mode, True)] = lifted[:, None, :] * tf[:, :, None]

        ramp = np.array([_CAPTURE_DIFF[mode][dp] for dp in DP_AXIS])  # (dp,)
        tf_diff = _TF_DIFF_125 if mode == "125K" else _TF_FLAT
        diff = ramp[:, None] * tf_diff  # (dp, dt)
        tables[(mode, False)] = np.repeat(diff[:, :, None], BR_AXIS.size, axis=2)

    tables[("802154", True)] = np.full((6, 4, BR_AXIS.size), P_802154_SAME)
    tables[("802154", False)] = np.full((6, 4, BR_AXIS.size), P_802154_DIFF)
    return LinkTable(
        DP_AXIS.copy(), DT_AXIS.copy(), BR_AXIS.copy(), tables,
        provenance={"source": "builtin-default"},
    )


# ---------------------------------------------------------------------------
# CSV round trip. One data row per grid cell; provenance and axis listings
# live in '#'-prefixed comment lines.
# ---------------------------------------------------------------------------

CSV_HEADER = "mode,same_data,delta_p_db,delta_t_frac,beat_ratio,probability"


def dumps_table(table: LinkTable) -> str:
    out = io.StringIO()
    for k, v in sorted(table.provenance.items()):
        out.write(f"# {k}={v}\n")
    out.write(CSV_HEADER + "\n")
    for (mode, same), grid in sorted(table.tables.items()):
        for i, dp in enumerate(table.dp_axis):
            for j, dt in enumerate(table.dt_axis):
                for k, br in enumerate(table.br_axis):
                    out.write(
                        f"{mode},{int(same)},{float(dp)!r},{float(dt)!r},"
                        f"{float(br)!r},{float(grid[i, j, k])!r}\n"
                    )
    return out.getvalue()


def loads_table(text: str) -> LinkTable:
    provenance = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                provenance[k.strip()] = v.strip()
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError("unexpected CSV header for link table")
            header_seen = True
            continue
        mode, same, dp, dt, br, p = line.split(",")
        if same not in ("0", "1"):
            raise ValueError(f"same_data must be 0 or 1, not {same!r}")
        prob = float(p)
        if math.isnan(prob):
            raise ValueError(f"NaN probability in row {line!r}")
        rows.append((mode, same == "1", float(dp), float(dt), float(br), prob))
    if not rows:
        raise ValueError("empty link table file")
    dp_axis = np.array(sorted({r[2] for r in rows}))
    dt_axis = np.array(sorted({r[3] for r in rows}))
    br_axis = np.array(sorted({r[4] for r in rows}))
    shape = (dp_axis.size, dt_axis.size, br_axis.size)
    tables = {}
    for mode, same, dp, dt, br, p in rows:
        key = (mode, same)
        if key not in tables:
            tables[key] = np.full(shape, np.nan)
        cell = (int(np.searchsorted(dp_axis, dp)), int(np.searchsorted(dt_axis, dt)),
                int(np.searchsorted(br_axis, br)))
        if not math.isnan(tables[key][cell]):
            raise ValueError(f"duplicate row for {key} at {(dp, dt, br)}")
        tables[key][cell] = p
    for key, grid in tables.items():
        if np.any(np.isnan(grid)):
            raise ValueError(f"incomplete grid for {key}")
    return LinkTable(dp_axis, dt_axis, br_axis, tables, provenance)


def load_table(path) -> LinkTable:
    with open(path) as fh:
        return loads_table(fh.read())
