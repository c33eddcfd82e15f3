"""ctflood benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. One run:

1. generates the workload's inputs from --seed (bench/gen.py);
2. runs batches until --seconds of batch time have passed, each after a
   cold set-up (a fresh import of ctflood) and a host-speed probe;
3. reports work_per_s as the run's work over its batch time and setup_s as
   the median set-up time, both scaled to the reference host's speed by
   the probes, and peak_rss_mb;
4. checks every operation of every batch, plus canaries and reference
   runs, outside the timed region (bench/checks.py);
5. with --trace 1, instead runs every input variant's first batch
   untraced and then traced, in passes until --seconds of batch time have
   passed, and reports the per-layer metrics per pass.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it, and .bench_work/result-*.json, hold the full record:
input hash, host facts, per-batch figures and any check failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_SETUPS = 7
# host_probe's median time within runs on the host the benchmark was built on
# (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); see README, "Host speed"
PROBE_REF_S = 0.067
PROBE_ITEMS = 10_000
PROBE_SAMPLES = 100_000
PROBE_PASSES = 16
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Cap BLAS/OpenMP threads at `limit`; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= limit:
            os.environ[var] = str(limit)


def host_facts() -> dict:
    import numpy

    blas = {}
    with contextlib.suppress(TypeError, KeyError, AttributeError):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    src_lines = 0
    for base, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "src_py_lines": src_lines,
    }


_PROBE: dict = {}


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work (reading a dict of
    small objects in a fixed shuffled order) and numpy work (normal draws
    and arithmetic). Its data is built on the first call and kept, and the
    timed part allocates nothing, so that the probe adds a small constant
    to peak RSS rather than fragmenting the heap between batches."""
    import numpy as np

    if not _PROBE:
        _PROBE.update(table={k: (k, 0.5 * k) for k in range(PROBE_ITEMS)},
                      order=np.random.default_rng(0).permutation(PROBE_ITEMS).tolist(),
                      buf=np.empty(PROBE_SAMPLES))
    table, order, buf = _PROBE["table"], _PROBE["order"], _PROBE["buf"]
    rng = np.random.default_rng(1)
    t0 = perf_counter()
    total = 0.0
    for _ in range(PROBE_PASSES):
        for k in order:
            total += table[k][1]
        rng.standard_normal(out=buf)
        buf *= 1.5
        buf += 2.0
        total += float(np.abs(buf, out=buf).sum())
    return perf_counter() - t0


class Phase:
    """Batches of one measured phase: (seconds, work units, input variant)
    per batch, the set-up time before each, and host-speed probe times."""

    def __init__(self):
        self.batches, self.setups, self.probes = [], [], []
        self.prog = None

    @property
    def seconds(self) -> float:
        return sum(b[0] for b in self.batches)

    def host_speed(self) -> float:
        """How much faster than the reference host this run's host ran:
        PROBE_REF_S over the mean probe time."""
        return PROBE_REF_S * len(self.probes) / sum(self.probes)

    def wall_work_per_s(self) -> float:
        return sum(b[1] for b in self.batches) / self.seconds

    def work_per_s(self) -> float:
        """The run's work over its batch time at the reference host's speed:
        each batch's time is scaled by PROBE_REF_S over the mean of the
        probes just before and just after it."""
        p = self.probes
        seconds = sum(b[0] * 2.0 * PROBE_REF_S / (p[i] + p[i + 1])
                      for i, b in enumerate(self.batches))
        return sum(b[1] for b in self.batches) / seconds

    def setup_s(self) -> float:
        """The median set-up time, at the reference host's speed."""
        return median(self.setups) * self.host_speed()


def set_up(phase: Phase) -> None:
    """One cold set-up: a fresh import of ctflood."""
    from workloads import import_program

    t0 = perf_counter()
    phase.prog = import_program()
    phase.setups.append(perf_counter() - t0)


def run_one(workload, phase: Phase, i: int, ledger, ref, tracer=None,
            probe: bool = False) -> None:
    """Set up, probe host speed if asked, run batch i on the program that
    set-up imported, then check it. Only the batch itself is timed."""
    set_up(phase)
    if probe:
        phase.probes.append(host_probe())
    if tracer is not None:
        tracer.install()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            units = workload.run_batch(phase.prog, i)
            dt = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.batches.append((dt, units, workload.variant(i)))
    workload.check_batch(phase.prog, i, ledger, ref)
    # free the replaced program's module cycles now, so that neither peak
    # RSS nor the next batch depends on how many batches ran
    gc.collect()


def measure(workload, ledger, ref, seconds: float) -> Phase:
    """Batches 0, 1, ... until `seconds` of batch time have passed, with a
    host-speed probe before each batch and one after the last."""
    phase = Phase()
    host_probe()  # warm-up: the first call also builds the probe's data
    while phase.seconds < seconds:
        run_one(workload, phase, len(phase.batches), ledger, ref, probe=True)
    phase.probes.append(host_probe())
    return phase


def measure_traced(workload, ledger, ref, seconds: float, tracer):
    """Passes over batches 0 .. variants-1, each batch run untraced and then
    traced, until `seconds` of batch time have passed (at least one pass).
    Every pass repeats the same batches, so per-pass figures do not depend
    on how many passes fit. Returns (untraced phase, traced phase, passes)."""
    plain, traced, passes = Phase(), Phase(), 0
    while passes == 0 or plain.seconds + traced.seconds < seconds:
        for i in range(workload.variants):
            run_one(workload, plain, i, ledger, ref)
            tracer.batch = passes * workload.variants + i
            run_one(workload, traced, i, ledger, ref, tracer)
        passes += 1
    return plain, traced, passes


def run(args) -> dict:
    import checks
    import gen
    from tracing import UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        workload = WORKLOADS[args.workload](args.seed, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "inputs_sha256": gen.digest(*workload.inputs()),
                  "host": host_facts(), "unit": workload.unit}
        ledger = checks.Ledger()

        if args.trace:
            tracer = Tracer()
            phase, traced, passes = measure_traced(workload, ledger, ref, args.seconds, tracer)
        else:
            phase = measure(workload, ledger, ref, args.seconds)
            while len(phase.setups) < MIN_SETUPS:
                set_up(phase)
        workload.check_once(phase.prog, ledger, ref)
        record.update(setup_times_s=phase.setups, batch_s=[b[0] for b in phase.batches],
                      batch_variant=[b[2] for b in phase.batches],
                      work_units=sum(b[1] for b in phase.batches))

        if args.trace:
            values = layer_metrics(tracer, passes, traced.seconds / phase.seconds - 1.0)
            units = UNITS
            tracer.write_spans(os.path.join(WORK_ROOT, f"spans-{tag}.csv"))
            record.update(hooks=tracer.installed, passes=passes,
                          traced_batch_s=[b[0] for b in traced.batches])
        else:
            values = {
                "work_per_s": phase.work_per_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": phase.setup_s(),
            }
            record.update(probe_s=phase.probes, host_speed=phase.host_speed(),
                          wall_work_per_s=phase.wall_work_per_s(),
                          wall_setup_s=median(phase.setups))
            units = END_TO_END
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

        record["alpha_per_check"] = ledger.settle()
        record.update(attempted=ledger.attempted, failed=ledger.failed,
                      failed_op_share=ledger.failed / ledger.attempted,
                      failures=ledger.failures, metrics=metrics)
        with open(os.path.join(WORK_ROOT, f"result-{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ctflood benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "ctflood", "__init__.py")):
        print(f"error: no ctflood sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads(nproc())
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    record = run(args)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
