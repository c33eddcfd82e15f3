"""Per-layer tracing from outside the program.

The tracer replaces module attributes of ctflood that the program looks
up at call time with wrappers that record a span (name, start, end, parent
span, batch) and count what the call did. A function imported by name
into another module is patched there too, since that is where the caller
looks it up. A hook whose target no longer exists is skipped, so its
counts read 0 instead of failing.

Spans are kept in memory, up to SPAN_CAP of them, and written out when the
run ends. Self time is accounted on the fly for every span: a span's
duration minus the part of it its child spans cover. The wrappers' own
bookkeeping counts as child time, so it lands in no layer's self time; it
shows up in the traced phase's wall time (`trace.overhead_frac`).
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN_CAP = 100_000
SMALL_CELL_MAX_PACKETS = 2000  # a cell that fits one Monte Carlo chunk
TAIL_PERCENTILE = 90  # of Monte Carlo cell time: 8 of the 80 cells of a pass lie beyond it


def _arg(args, kwargs, i: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else None


# -- hooks: (tracer, args, kwargs, result, duration) -> None -----------------

def _on_run_point(t, args, kwargs, result, dur):
    n = getattr(_arg(args, kwargs, 0, "spec"), "replicas", 0)
    t.counts["montecarlo.cells"] += 1
    t.counts["montecarlo.packets"] += n
    t.cells.append((n, dur))


def _on_chunk(t, args, kwargs, result, dur):
    t.counts["montecarlo.chunks"] += 1


def _on_mesh_run(t, args, kwargs, result, dur):
    cfg = _arg(args, kwargs, 0, "cfg")
    t.counts["mesh.slots"] += cfg.rounds * cfg.policy.slots_per_round


def _on_resolve(t, args, kwargs, result, dur):
    listener = _arg(args, kwargs, 0, "listener")
    txers = _arg(args, kwargs, 1, "transmitters")
    gains = _arg(args, kwargs, 2, "topology").gains
    t.counts["mesh.resolve_calls"] += 1
    t.counts["mesh.arrivals"] += sum(1 for x in txers if gains[x, listener] > -math.inf)
    t.counts["mesh.resolve_success"] += bool(result)


def _on_next_action(t, args, kwargs, result, dur):
    t.counts[t.action_counter.get(result[0], "node.other_actions")] += 1


def _on_round_end(t, args, kwargs, result, dur):
    before = _arg(args, kwargs, 0, "state").phase
    if result.phase == t.scanning and before != t.scanning:
        t.counts["node.to_scanning"] += 1


def _on_reception(t, args, kwargs, result, dur):
    before = _arg(args, kwargs, 0, "state").phase
    if before == t.scanning and result.phase != t.scanning:
        t.counts["node.resyncs"] += 1


def _on_scan_step(t, args, kwargs, result, dur):
    t.counts["node.scan_steps"] += 1


def _on_lookup(t, args, kwargs, result, dur):
    q = _arg(args, kwargs, 1, "q")
    t.counts["linkmodel.lookups"] += 1
    if math.isinf(getattr(q, "t_beat", 0.0)) and getattr(q, "delta_t", 1.0) == 0.0:
        t.counts["linkmodel.lone"] += 1


def _on_encode(t, args, kwargs, result, dur):
    t.counts["airtime.encode_calls"] += 1


def _chunk_memory(t, fn):
    """Run a Monte Carlo chunk under tracemalloc; keep the peak growth."""
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            t.chunk_peak_bytes = max(t.chunk_peak_bytes, peak)
    return measured


# (module, attribute) -> (span name, hook, inner wrapper)
TARGETS: Dict[Tuple[str, str], Tuple[str, Optional[Callable], Optional[Callable]]] = {
    ("cli", "main"): ("cli.main", None, None),
    ("montecarlo", "_run_point"): ("montecarlo.cell", _on_run_point, None),
    ("montecarlo", "_simulate_chunk"): ("montecarlo.chunk", _on_chunk, _chunk_memory),
    ("mesh", "run"): ("mesh.run", _on_mesh_run, None),
    ("mesh", "resolve_slot"): ("mesh.resolve_slot", _on_resolve, None),
    ("node", "next_action"): ("node.next_action", _on_next_action, None),
    ("node", "after_transmit"): ("node.after_transmit", None, None),
    ("node", "handle_reception"): ("node.handle_reception", _on_reception, None),
    ("node", "scan_step"): ("node.scan_step", _on_scan_step, None),
    ("node", "start_round"): ("node.start_round", None, None),
    ("node", "round_end"): ("node.round_end", _on_round_end, None),
    ("linkmodel", "reception_probability"): ("linkmodel.lookup", _on_lookup, None),
    ("linkmodel", "paper_default_table"): ("linkmodel.table_build", None, None),
    ("airtime", "encode_beacon"): ("airtime.encode_beacon", _on_encode, None),
    ("airtime", "decode_beacon"): ("airtime.decode_beacon", None, None),
    ("airtime", "air_time"): ("airtime.air_time", None, None),
    ("airtime", "slot_length"): ("airtime.slot_length", None, None),
}


class Tracer:
    """Spans and counters of one traced phase. Install, run, uninstall."""

    def __init__(self, package: str = "ctflood"):
        self.package = package
        self.counts: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)  # name -> summed duration
        self.exclusive: Dict[str, float] = defaultdict(float)  # name -> self time
        self.calls: Counter = Counter()
        self.layer_busy: Dict[str, float] = defaultdict(float)  # outermost spans per layer
        self.cells: List[Tuple[int, float]] = []  # (packets, seconds) per Monte Carlo cell
        self.chunk_peak_bytes = 0
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.batch = -1
        self.scanning = "scanning"
        self.action_counter: Dict[str, str] = {}
        self._stack: List[list] = []  # open spans: [span id, child seconds]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []
        self.installed: List[str] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self) -> List[str]:
        """Patch every target that exists; returns the span names installed."""
        node = sys.modules.get(f"{self.package}.node")
        self.scanning = getattr(node, "PHASE_SCANNING", "scanning")
        self.action_counter = {
            getattr(node, "ACT_RX", "listen"): "node.rx_actions",
            getattr(node, "ACT_TX", "transmit"): "node.tx_actions",
            getattr(node, "ACT_SLEEP", "sleep"): "node.sleep_actions",
        }
        modules = self._modules()
        installed = []
        for (mod_name, attr), (span, hook, inner) in TARGETS.items():
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            orig = getattr(mod, attr, None)
            if not callable(orig):
                continue
            fn = inner(self, orig) if inner else orig
            wrapper = self._wrap(span, fn, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))
            installed.append(span)
        self.installed = installed
        return installed

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        layer = name.split(".", 1)[0]
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            outermost = depth[layer] == 0
            depth[layer] += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                self.calls[name] += 1
                self.total[name] += dur
                self.exclusive[name] += dur - frame[1]
                if outermost:
                    self.layer_busy[layer] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self.batch, name, t0, t1))
                if stack:
                    stack[-1][1] += t1 - t_in
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            if stack:
                # the wrapper's own work is tracing cost, not the caller's self time
                stack[-1][1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,batch,name,start_s,end_s\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f}\n")


UNITS = {
    "montecarlo.cells": "count",
    "montecarlo.packets": "count",
    "montecarlo.chunks": "count",
    "montecarlo.busy_s": "s",
    "montecarlo.chunk_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.us_per_packet.small": "us",
    "montecarlo.us_per_packet.large": "us",
    "montecarlo.cell_p50_ms": "ms",
    "montecarlo.cell_tail_ms": "ms",
    "montecarlo.chunk_rss_mb": "MB",
    "mesh.run_s": "s",
    "mesh.us_per_slot": "us",
    "mesh.self_s": "s",
    "mesh.resolve_calls": "count",
    "mesh.resolve_us": "us",
    "mesh.arrivals_per_resolve": "ratio",
    "mesh.resolve_success_ratio": "ratio",
    "node.calls": "count",
    "node.busy_s": "s",
    "node.rx_actions": "count",
    "node.tx_actions": "count",
    "node.sleep_actions": "count",
    "node.to_scanning": "count",
    "node.resyncs": "count",
    "node.scan_steps": "count",
    "linkmodel.lookups": "count",
    "linkmodel.lookups_per_s": "1/s",
    "linkmodel.busy_s": "s",
    "linkmodel.lone_share": "ratio",
    "linkmodel.table_build_s": "s",
    "airtime.encode_calls": "count",
    "airtime.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[min(len(xs) - 1, max(0, math.ceil(p / 100.0 * len(xs)) - 1))]


def layer_metrics(t: Tracer, passes: int, overhead_frac: float) -> Dict[str, float]:
    """Every per-layer metric of the traced phase, by name (units in UNITS).

    The phase ran the same batches `passes` times, so counts and busy or
    self times are given per pass; they do not depend on how many passes
    fit into the run."""
    c = t.counts
    per_pass = lambda x: x / passes
    small = [(n, d) for n, d in t.cells if n <= SMALL_CELL_MAX_PACKETS]
    large = [(n, d) for n, d in t.cells if n > SMALL_CELL_MAX_PACKETS]
    cell_ms = [d * 1e3 for _n, d in t.cells]
    mc_busy = t.layer_busy["montecarlo"]
    chunk_s = t.total["montecarlo.chunk"]
    node_calls = sum(v for k, v in t.calls.items() if k.startswith("node."))
    lookup_s = t.total["linkmodel.lookup"]
    mesh_self = t.exclusive["mesh.run"] + t.exclusive["mesh.resolve_slot"]
    resolves = c["mesh.resolve_calls"]
    return {
        "montecarlo.cells": per_pass(c["montecarlo.cells"]),
        "montecarlo.packets": per_pass(c["montecarlo.packets"]),
        "montecarlo.chunks": per_pass(c["montecarlo.chunks"]),
        "montecarlo.busy_s": per_pass(mc_busy),
        "montecarlo.chunk_s": per_pass(chunk_s),
        "montecarlo.self_s": per_pass(max(0.0, mc_busy - chunk_s)),
        "montecarlo.us_per_packet.small": 1e6 * _ratio(sum(d for _, d in small),
                                                       sum(n for n, _ in small)),
        "montecarlo.us_per_packet.large": 1e6 * _ratio(sum(d for _, d in large),
                                                       sum(n for n, _ in large)),
        "montecarlo.cell_p50_ms": percentile(cell_ms, 50),
        "montecarlo.cell_tail_ms": percentile(cell_ms, TAIL_PERCENTILE),
        "montecarlo.chunk_rss_mb": t.chunk_peak_bytes / 2**20,
        "mesh.run_s": per_pass(t.total["mesh.run"]),
        "mesh.us_per_slot": 1e6 * _ratio(t.total["mesh.run"], c["mesh.slots"]),
        "mesh.self_s": per_pass(mesh_self),
        "mesh.resolve_calls": per_pass(resolves),
        "mesh.resolve_us": 1e6 * _ratio(t.total["mesh.resolve_slot"], resolves),
        "mesh.arrivals_per_resolve": _ratio(c["mesh.arrivals"], resolves),
        "mesh.resolve_success_ratio": _ratio(c["mesh.resolve_success"], resolves),
        "node.calls": per_pass(node_calls),
        "node.busy_s": per_pass(t.layer_busy["node"]),
        "node.rx_actions": per_pass(c["node.rx_actions"]),
        "node.tx_actions": per_pass(c["node.tx_actions"]),
        "node.sleep_actions": per_pass(c["node.sleep_actions"]),
        "node.to_scanning": per_pass(c["node.to_scanning"]),
        "node.resyncs": per_pass(c["node.resyncs"]),
        "node.scan_steps": per_pass(c["node.scan_steps"]),
        "linkmodel.lookups": per_pass(c["linkmodel.lookups"]),
        "linkmodel.lookups_per_s": _ratio(c["linkmodel.lookups"], lookup_s),
        "linkmodel.busy_s": per_pass(lookup_s),
        "linkmodel.lone_share": _ratio(c["linkmodel.lone"], c["linkmodel.lookups"]),
        "linkmodel.table_build_s": _ratio(t.total["linkmodel.table_build"],
                                          t.calls["linkmodel.table_build"]),
        "airtime.encode_calls": per_pass(c["airtime.encode_calls"]),
        "airtime.busy_s": per_pass(t.layer_busy["airtime"]),
        "cli.self_s": per_pass(t.exclusive["cli.main"]),
        "trace.overhead_frac": overhead_frac,
    }
