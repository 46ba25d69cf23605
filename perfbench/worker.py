"""One workload process: import, warm up, then a closed loop of operations.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It prints JSON lines on standard output:

* ``--setup-only``: one line, the monotonic clock reading when set-up ended
  and a machine-speed probe taken right after;
* otherwise one line per round with that round's records (kind, input,
  output) for the oracles and its failed operations, then a last line with
  the set-up reading, the per-operation times of each round, the probes
  taken before the first round and after each round, the attempted and
  failed counts, the peak resident memory and, with ``--trace 1``, the
  per-layer figures.  Records leave the process each round, so the peak
  resident memory does not grow with the number of operations completed.

Set-up is ``import diskabc`` plus one untimed warm-up of each kind of
operation.  The loop runs whole rounds until ``--seconds`` of wall time
have passed since set-up ended.  One operation is timed from its call to its
return; building its input objects and encoding its output stay outside.

The probe times a fixed piece of work, a Python integer loop and a numpy
FFT, that does not involve the program.  On a shared machine its time
follows the speed the machine gives this process, which ``run.py`` divides
out of the operation times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# small enough that numpy's buffers come from the heap and not from fresh
# pages, whose cost depends on what the process allocated before
_PROBE_SIGNAL = np.random.default_rng(0).standard_normal(1024)


def probe_unit_s(units=5):
    """Median wall time of one unit of fixed work (about 4 ms): 40000 steps
    of a Python integer loop and 40 FFTs of 1024 doubles."""
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i
        for _ in range(40):
            np.fft.fft(_PROBE_SIGNAL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", default=None)
    return p.parse_args(argv)


def run_round(ops, workloads, tracer=None):
    """Run one round; returns (records, times, failures)."""
    records, times, failures = [], [], []
    for kind, data in ops:
        call = workloads.prepare(kind, data)
        idx = tracer.open("op:" + kind) if tracer else None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append({"kind": kind, "input": data, "error": repr(exc)})
            continue
        finally:
            if tracer:
                tracer.close(idx)
        times.append(time.perf_counter() - t0)
        records.append({"kind": kind, "input": data, "output": workloads.encode(result)})
    return records, times, failures


def layer_metrics(tracer, n_ops, traced_s, untraced_s):
    """Per-operation self times (ms) and work counts of the traced passes."""
    self_s, calls = tracer.self_times()
    per_op = {}
    for name, seconds in self_s.items():
        if not name.startswith("op:"):
            per_op[name + ".ms"] = 1e3 * seconds / n_ops
    for name, n in calls.items():
        per_op[name + ".calls"] = n / n_ops
    for name, n in tracer.points.items():
        per_op[name + ".points"] = n / n_ops
    for name, n in tracer.counts.items():
        per_op[name] = n / n_ops
    op_s = sum(t1 - t0 for name, t0, t1, _ in tracer.spans if name.startswith("op:"))
    bench_s = sum(s for name, s in self_s.items() if name.startswith("op:"))
    layers_s = sum(s for name, s in self_s.items() if not name.startswith("op:"))
    per_op["trace.op.ms"] = 1e3 * op_s / n_ops
    per_op["trace.bench.ms"] = 1e3 * bench_s / n_ops
    per_op["trace.layers.ms"] = 1e3 * layers_s / n_ops
    per_op["trace.overhead"] = 100.0 * (traced_s / untraced_s - 1.0)
    return per_op


def main(argv=None):
    args = _parse(argv)
    import diskabc  # noqa: F401  (the import is part of set-up)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    for kind, data in workloads.warmup_ops(args.workload):
        workloads.prepare(kind, data)()
    ready = time.monotonic()
    probes = [probe_unit_s()]
    if args.setup_only:
        print(json.dumps({"ready": ready, "probes": probes}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    times, attempted, failed = [], 0, 0   # times: one list per round
    untraced_s = traced_s = 0.0
    index = 0
    start = time.perf_counter()
    while True:
        ops = workloads.make_round(args.workload, args.seed, index)
        if tracer:
            # the same inputs, rebuilt, untraced and then traced, so the two
            # passes give the tracing overhead
            _, t_plain, _ = run_round(ops, workloads)
            untraced_s += sum(t_plain)
            tracer.install()
            try:
                recs, ts, fails = run_round(ops, workloads, tracer)
            finally:
                tracer.uninstall()
            traced_s += sum(ts)
        else:
            recs, ts, fails = run_round(ops, workloads)
        probes.append(probe_unit_s())
        print(json.dumps({"records": recs, "failures": fails}))
        times.append(ts)
        attempted += len(recs) + len(fails)
        failed += len(fails)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"ready": ready, "rounds": index, "times": times, "probes": probes,
           "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb}
    if tracer:
        n_ops = sum(len(ts) for ts in times)
        out["layers"] = layer_metrics(tracer, n_ops, traced_s, untraced_s)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
