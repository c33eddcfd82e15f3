"""Output checks and operation accounting.

An operation is one Monte Carlo cell or sweep point, one flood round, one
canary or one reference run. Every operation a run attempts is entered in
a `Ledger`; it fails when any check on its output fails.

Exact checks hold for every output of a correct program and are decided
at once. Statistical checks compare an estimate with an oracle or with a
reference recorded from the seed code; they are decided at the end of the
run, when the number of statistical checks m is known, each at a
two-sided Bonferroni level of FAMILY_ALPHA / m, so that a correct program
fails a whole run with probability below FAMILY_ALPHA.

The checks never trust numbers the program computes about itself: closed
forms come from `ctflood.models` (the test oracle, passed in by the
caller), intervals are computed here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

FAMILY_ALPHA = 1e-5


def normal_quantile(alpha: float) -> float:
    """z with P(|Z| > z) = alpha for a standard normal Z."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def student_t_two_sided(t: float, df: int) -> float:
    """P(|T| > t) for Student's t with integer df >= 1 (closed form series)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2:
        term, total = math.cos(theta), 0.0
        for k in range(1, (df - 1) // 2 + 1):
            total += term
            term *= c2 * (2 * k) / (2 * k + 1)
        inside = 2.0 / math.pi * (theta + math.sin(theta) * total)
    else:
        term, total = 1.0, 0.0
        for k in range(1, df // 2 + 1):
            total += term
            term *= c2 * (2 * k - 1) / (2 * k)
        inside = math.sin(theta) * total
    return max(0.0, 1.0 - inside)


def student_t_quantile(alpha: float, df: int) -> float:
    """t with P(|T| > t) = alpha, by bisection."""
    lo, hi = 0.0, 1.0
    while student_t_two_sided(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def wilson(k: int, n: int, z: float) -> Tuple[float, float]:
    """Wilson score interval of k successes in n trials at normal quantile z."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n and n >= 1")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed in one run."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    _pending: List[Tuple[str, List[Callable[[float], Optional[str]]]]] = field(
        default_factory=list)
    _failed_ops: int = 0

    def op(self, name: str, errors: Iterable[str] = (),
           stats: Sequence[Callable[[float], Optional[str]]] = ()) -> None:
        """Enter one operation with its exact-check errors and its statistical
        checks (callables of the per-check alpha that return an error
        message or None)."""
        self.attempted += 1
        errors = list(errors)
        if errors:
            self._fail(name, errors)
        elif stats:
            self._pending.append((name, list(stats)))

    def _fail(self, name: str, errors: List[str]) -> None:
        self._failed_ops += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {'; '.join(errors[:3])}")

    @property
    def n_stat_checks(self) -> int:
        return sum(len(s) for _, s in self._pending)

    def settle(self) -> float:
        """Decide every pending statistical check; returns the per-check alpha."""
        alpha = FAMILY_ALPHA / max(self.n_stat_checks, 1)
        pending, self._pending = self._pending, []
        for name, stats in pending:
            errors = [e for e in (s(alpha) for s in stats) if e]
            if errors:
                self._fail(name, errors)
        return alpha

    @property
    def failed(self) -> int:
        return self._failed_ops


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def read_csv_rows(path) -> List[Dict[str, str]]:
    """Data rows of a ctflood CSV, skipping the '#' manifest lines."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def ber_point_check(ebn0_db: float, ber_mc: float, n_bits: int,
                    oracle: float) -> Callable[[float], Optional[str]]:
    """The Monte Carlo BER's Wilson interval must contain the closed form."""
    k = round(ber_mc * n_bits)

    def check(alpha: float) -> Optional[str]:
        lo, hi = wilson(k, n_bits, normal_quantile(alpha))
        if lo <= oracle <= hi:
            return None
        return (f"BER {ber_mc:.6g} at {ebn0_db} dB: interval [{lo:.6g}, {hi:.6g}] "
                f"excludes closed form {oracle:.6g}")
    return check


def proportion_check(label: str, k: int, n: int, ref_k: int,
                     ref_n: int) -> Callable[[float], Optional[str]]:
    """Two proportions agree when their Wilson intervals overlap."""

    def check(alpha: float) -> Optional[str]:
        z = normal_quantile(alpha)
        lo, hi = wilson(k, n, z)
        rlo, rhi = wilson(ref_k, ref_n, z)
        if lo <= rhi and rlo <= hi:
            return None
        return (f"{label}: {k}/{n} [{lo:.4f}, {hi:.4f}] disagrees with reference "
                f"{ref_k}/{ref_n} [{rlo:.4f}, {rhi:.4f}]")
    return check


def noiseless_errors(per: float, n_trials: int, replicas: int) -> List[str]:
    """A noiseless cell whose stronger signal always captures loses no packet."""
    if per == 0.0 and n_trials == replicas:
        return []
    return [f"noiseless PER {per} over {n_trials} packets, expected 0 over {replicas}"]


def cell_key(same_data: bool, dp: float, dt: float, br: float) -> str:
    return f"{int(same_data)}/{dp:g}/{dt:g}/{br:g}"


def link_table_cells(rows: Sequence[Dict[str, str]]) -> Dict[str, float]:
    """Decode probability per calibrated cell, keyed by cell_key."""
    return {
        cell_key(bool(int(r["same_data"])), float(r["delta_p_db"]),
                 float(r["delta_t_frac"]), float(r["beat_ratio"])): float(r["probability"])
        for r in rows
    }


# ---------------------------------------------------------------------------
# Flood
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloodRound:
    """What a flood round reports, independent of how it was read."""

    success: bool
    active_slots: int
    first_slot: Dict[int, Optional[int]]  # listener -> 1-based slot or None


@dataclass(frozen=True)
class FloodShape:
    """Protocol facts the invariants need."""

    hop: Sequence[int]  # BFS hop distance from the initiator per node
    initiator: int
    wait_slots: int
    slots_per_round: int
    resync_threshold: int

    @property
    def n_nodes(self) -> int:
        return len(self.hop)


def rounds_from_csv(rows: Sequence[Dict[str, str]]) -> List[FloodRound]:
    """Round log rows of `ctflood flood` (flood_rounds.csv)."""
    out = []
    for r in rows:
        first = {
            int(k[len("first_slot_"):]): (int(v) if v else None)
            for k, v in r.items() if k.startswith("first_slot_")
        }
        out.append(FloodRound(bool(int(r["success"])), int(r["active_slots"]), first))
    return out


def rounds_from_log(log) -> List[FloodRound]:
    """Round log of `mesh.run` (RoundMetrics records)."""
    return [FloodRound(bool(m.success), int(m.active_slots), dict(m.first_slot))
            for m in log]


def scanning_at_start(rounds: Sequence[FloodRound], shape: FloodShape) -> List[set]:
    """Nodes in the scanning phase at the start of each round.

    Replays the protocol's resync rule from the reception record: every
    node starts synced, falls back to scanning after resync_threshold
    silent rounds in a row, and is synced again by any reception.
    """
    listeners = [v for v in range(shape.n_nodes) if v != shape.initiator]
    scanning = {v: False for v in listeners}
    missed = {v: 0 for v in listeners}
    out = []
    for rnd in rounds:
        out.append({v for v in listeners if scanning[v]})
        for v in listeners:
            if rnd.first_slot.get(v) is not None:
                scanning[v] = False
                missed[v] = 0
            elif not scanning[v]:
                missed[v] += 1
                if missed[v] >= shape.resync_threshold:
                    scanning[v] = True
    return out


def flood_round_errors(rnd: FloodRound, shape: FloodShape,
                       scanning: set) -> List[str]:
    """Exact invariants of one flood round.

    A reception cannot beat the hop distance, since each hop takes a slot.
    A synced listener only listens inside the wait window; a scanning one
    listens in every slot of the round. A round succeeds exactly when every
    listener received, and no more node-slots are active than exist.
    """
    errors = []
    listeners = {v for v in range(shape.n_nodes) if v != shape.initiator}
    if set(rnd.first_slot) != listeners:
        return [f"round reports listeners {sorted(rnd.first_slot)[:5]}..., "
                f"expected every node but the initiator"]
    for v, fs in rnd.first_slot.items():
        if fs is None:
            continue
        limit = shape.slots_per_round if v in scanning else shape.wait_slots
        if fs < shape.hop[v]:
            errors.append(f"node {v} received in slot {fs} < hop distance {shape.hop[v]}")
        if fs > limit:
            errors.append(f"node {v} received in slot {fs} > {limit}")
    all_rx = all(fs is not None for fs in rnd.first_slot.values())
    if rnd.success != all_rx:
        errors.append(f"success={rnd.success} but all received={all_rx}")
    if not 0 <= rnd.active_slots <= shape.n_nodes * shape.slots_per_round:
        errors.append(f"active_slots {rnd.active_slots} outside "
                      f"[0, {shape.n_nodes * shape.slots_per_round}]")
    return errors


def flood_log_errors(rounds: Sequence[FloodRound], shape: FloodShape) -> List[List[str]]:
    """Per-round invariant errors of one contiguous round log."""
    scan = scanning_at_start(rounds, shape)
    return [flood_round_errors(r, shape, s) for r, s in zip(rounds, scan)]


def exact_hop_errors(rounds: Sequence[FloodRound], shape: FloodShape) -> List[str]:
    """With p=1 links and no fading, a node hears the flood exactly at its hop distance."""
    errors = []
    for i, rnd in enumerate(rounds):
        for v, fs in rnd.first_slot.items():
            if fs != shape.hop[v]:
                errors.append(f"round {i} node {v}: first slot {fs} != hop {shape.hop[v]}")
    return errors


def delivery_and_hop(rounds: Sequence[FloodRound]) -> Tuple[float, float]:
    """Share of listener-rounds delivered, and the mean first slot of deliveries."""
    got = [fs for r in rounds for fs in r.first_slot.values()]
    hops = [fs for fs in got if fs is not None]
    delivery = len(hops) / len(got) if got else 0.0
    return delivery, (sum(hops) / len(hops) if hops else 0.0)


def reference_check(label: str, value: float, ref_mean: float, ref_std: float,
                    ref_runs: int) -> Callable[[float], Optional[str]]:
    """A run statistic must lie in the reference's prediction interval.

    The reference holds the mean and standard deviation of the statistic
    over ref_runs independent runs of the same configuration on the seed
    code. A new run then lies within t * std * sqrt(1 + 1/runs) of the
    mean, t from Student's t with runs - 1 degrees of freedom.
    """

    def check(alpha: float) -> Optional[str]:
        t = student_t_quantile(alpha, ref_runs - 1)
        tol = t * ref_std * math.sqrt(1.0 + 1.0 / ref_runs)
        if abs(value - ref_mean) <= tol:
            return None
        return (f"{label} {value:.5g} differs from reference {ref_mean:.5g} "
                f"by more than {tol:.3g}")
    return check
