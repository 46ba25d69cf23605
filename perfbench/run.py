"""Benchmark of ``diskabc``: one seeded workload, timed, traced or checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of the repository.  Each workload runs in a fresh Python
process (``worker.py``), one operation at a time, with BLAS pinned to one
thread.  Set-up time is measured from process start to the end of the
warm-up in five fresh processes; the run itself is a closed loop of whole
rounds.  Afterwards every output is checked against ``oracles.py``, which
never calls the program.

Times are reported at a reference machine speed: the worker times a fixed
probe (Python and numpy work that does not involve the program) before the
first round and after each round, and each round's operation times are
scaled by ``REFERENCE_UNIT_S`` over the mean of the two probes around it.
Set-up time is scaled by the probe taken right after it.  On a shared
machine whose speed drifts by tens of percent within a minute this removes
most of the run-to-run spread; the unscaled wall-time figures go to the
results file as ``wall_metrics``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The first line is
a header with versions and the machine; both go to
``perfbench/results/`` as well.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("certify", "exact", "dalpha")

#: fresh processes whose set-up is timed; the worker's own is one of them
SETUP_RUNS = 5
#: ``python -X importtime`` runs for the import breakdown of a traced run
IMPORT_RUNS = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT = 150
#: Probe unit time (s) at the reference machine speed.  Reported times are
#: wall times rescaled to a machine on which one probe unit takes this long.
REFERENCE_UNIT_S = 0.004

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p95_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "polycore.roots.ms": "ms", "polycore.roots.calls": "count",
    "polycore.aberth.calls": "count", "polycore.wronskian_float.ms": "ms",
    "polycore.wronskian_exact.ms": "ms", "polycore.gcd_exact.ms": "ms",
    "polycore.gcd_exact.calls": "count", "polycore.squarefree.ms": "ms",
    "blaschke.combine.ms": "ms", "blaschke.eval.points": "count",
    "quadrature.area.ms": "ms", "quadrature.area.points": "count",
    "quadrature.extremum.ms": "ms", "quadrature.extremum.points": "count",
    "quadrature.boundary.ms": "ms", "quadrature.boundary.points": "count",
    "quadrature.weighted_area.ms": "ms", "quadrature.weighted_area.points": "count",
    "abc_verifier.build_system.ms": "ms", "abc_verifier.lambda_mu_kappa.ms": "ms",
    "abc_verifier.divisibility.ms": "ms", "abc_verifier.verify.ms": "ms",
    "mason_stothers.theorem_A.ms": "ms", "mason_stothers.theorem_B.ms": "ms",
    "mason_stothers.degree_bound.ms": "ms", "mason_stothers.limit_R.ms": "ms",
    "dalpha.coeff_norm.ms": "ms", "dalpha.coeff_norm.samples": "count",
    "dalpha.truncation.ms": "ms", "dalpha.theorem_41.ms": "ms",
    "dalpha.r_alpha.ms": "ms", "dalpha.r_alpha_area.ms": "ms",
    "dalpha.monotonicity.ms": "ms",
    "import.diskabc_s": "s", "import.scipy_s": "s",
    "trace.op.ms": "ms", "trace.bench.ms": "ms", "trace.layers.ms": "ms",
    "trace.overhead": "%",
}


class BenchError(Exception):
    """The benchmark could not run: no program to measure, or a child failed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(cmd, env, root):
    """Run one child to its end; returns its stdout and stderr."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:4]} did not finish within {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:4]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout, proc.stderr


def _worker(args, env, root, extra=()):
    """Run one worker; returns its last line, its per-round lines, and its
    set-up time with the probe taken right after set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    out, _ = _run_child(cmd, env, root)
    *rounds, doc = [json.loads(line) for line in out.strip().splitlines()]
    return doc, rounds, (doc["ready"] - started, doc["probes"][0])


def import_times(env, root):
    """Median cumulative import time of ``diskabc`` and of all of scipy."""
    own, scipy = [], []
    for _ in range(IMPORT_RUNS):
        _, err = _run_child([sys.executable, "-X", "importtime", "-c", "import diskabc"],
                            env, root)
        a, b = parse_importtime(err)
        own.append(a)
        scipy.append(b)
    return statistics.median(own), statistics.median(scipy)


def parse_importtime(text):
    """(diskabc, scipy) cumulative seconds from ``-X importtime`` output.
    scipy modules imported inside another scipy module count once."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()) - 1, name.strip(), int(cumulative)))
    own, scipy, stack = 0, 0, []
    for depth, name, cumulative in reversed(rows):   # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        if name == "diskabc":
            own = cumulative
        stack.append((depth, is_scipy))
    return own / 1e6, scipy / 1e6


def header(root):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:   # no git on the machine
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {name: "1" for name in THREAD_ENV},
    }


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_records(records):
    """Mismatch messages over all records."""
    sys.path.insert(0, str(HERE))
    import oracles
    errors = []
    for rec in records:
        try:
            errors += [f"{rec['kind']}: {msg}" for msg in oracles.check(rec)]
        except Exception as exc:  # an output the oracle cannot process is not verified
            errors.append(f"{rec['kind']}: oracle raised {exc!r} on input {rec['input']}")
    return errors


def to_reference(seconds, probe_s):
    return seconds * REFERENCE_UNIT_S / probe_s


def end_to_end(times, setups, peak_rss_mb):
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * quantile(times, 50),
        "op_p95_ms": 1e3 * quantile(times, 95),
        "peak_rss_mb": peak_rss_mb,
    }


def measure(args, root):
    if not (root / "src" / "diskabc" / "__init__.py").is_file():
        raise BenchError(f"no diskabc sources under {root / 'src'}")
    env = child_env(root)
    head = header(root)
    head.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    print(json.dumps({"header": head}), flush=True)

    # compile the bytecode and warm the file cache once, untimed
    _run_child([sys.executable, "-c", "import diskabc"], env, root)
    setups = [_worker(args, env, root, ["--setup-only"])[2]
              for _ in range(SETUP_RUNS - 1)]
    extra = []
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        extra = ["--trace-file", str(RESULTS / f"trace-{args.workload}-{args.seed}.json")]
    doc, rounds, setup = _worker(args, env, root, extra)
    setups.append(setup)

    errors = check_records([rec for r in rounds for rec in r["records"]])
    failures = [f for r in rounds for f in r["failures"]]
    for failure in failures[:20]:
        print(f"failed {failure['kind']}: {failure['error']}", file=sys.stderr)
    for msg in errors[:20]:
        print(f"mismatch {msg}", file=sys.stderr)

    # each round at the mean of the two probes around it
    probes = doc["probes"]
    times = [to_reference(t, 0.5 * (probes[r] + probes[r + 1]))
             for r, ts in enumerate(doc["times"]) for t in ts]
    wall_times = [t for ts in doc["times"] for t in ts]
    if args.trace:
        layers = dict(doc["layers"])
        layers["import.diskabc_s"], layers["import.scipy_s"] = import_times(env, root)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(times, [to_reference(*s) for s in setups], doc["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": not errors, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"header": head, "rounds": doc["rounds"], "ops": len(times),
                   "setup_samples": setups, "probe_s": probes,
                   "wall_metrics": end_to_end(wall_times, [s for s, _ in setups],
                                              doc["peak_rss_mb"]),
                   "result": result}, fh, indent=1)
    return result


def main(argv=None):
    args = _parse(argv)
    try:
        result = measure(args, Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
