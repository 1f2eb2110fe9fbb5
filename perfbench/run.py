"""The hopfgenus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the repository root.  Each workload runs single-threaded in
fresh worker processes (worker.py) that import hopfgenus from ``src/``.
With ``--trace 0`` the last line of output is the JSON result with every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric, measured by wrapping the layers' public functions
(tracer.py).  The line before it holds the details: sample counts, the
per-operation latency percentiles where at least ten samples lie beyond
them, the failure share and the environment fingerprint.  ``--report``
runs all four workloads untraced and prints one table.

Metrics:

* ``setup_s`` -- spawn to inputs ready (interpreter start, import, input
  generation, warm-up); the median of fifteen fresh processes.
* ``wall_s`` -- the time of the measured phase per pass over the
  workload's operations (oracle checks excluded), i.e. the mean pass
  time.  Every measured pass follows the warm-up, so all of them run in
  the same cache state.  On a shared machine whose speed drifts over
  seconds, the mean over the whole phase spreads less from run to run
  than the median of a handful of multi-second passes.
* ``peak_rss_mb`` -- ``ru_maxrss`` of the measuring process (median over
  processes for the cold workload).

Oracle state stays out of the measured processes: the mpmath references
for the multizeta checks are computed here and handed to each worker, and
the manifold files of cli-session go to one temporary directory that this
process removes, also after killing a worker at the time limit.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170.0
# a fixed hash seed and single-threaded numeric libraries, so that the
# same inputs do the same work in every worker process
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a measurement."""


def _spawn(base, mode, trace, deadline):
    """Run one worker process to completion and return its JSON record."""
    env = dict(os.environ, **WORKER_ENV)
    cfg = dict(base, mode=mode, trace=trace, spawned=time.monotonic())
    workload = cfg["workload"]
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s worker ran past the time limit" % workload)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("%s worker failed (exit %s):\n%s" % (workload, proc.returncode, err[-4000:]))
    return json.loads(out.strip().splitlines()[-1])


def _percentile(samples, q):
    """Nearest-rank percentile, or None without ten samples beyond it."""
    n = len(samples)
    if n == 0 or n * (1 - q) < 10:
        return None
    ordered = sorted(samples)
    return ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]


def measure(workload, seed, seconds, trace, deadline):
    """All worker records of one run: set-up probes and measurements."""
    from oracles import mzv_reference_table
    from workloads import WORKLOADS

    cold = WORKLOADS[workload].cold
    probes, runs = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        base = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "root": ROOT,
            "workdir": workdir,
            "mzv_references": mzv_reference_table(WORKLOADS[workload].mzv_indices),
        }
        if not trace and not cold:
            for _ in range(SETUP_SAMPLES - 1):
                probes.append(_spawn(base, "setup", False, deadline))
        if cold:
            # one pass per process; a traced run alternates untraced, traced
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                traced = trace and len(runs) % 2 == 1
                runs.append(_spawn(base, "measure", traced, deadline))
                enough = len(runs) >= (2 if trace else 1)
                if enough and time.monotonic() - start + (time.monotonic() - t0) > seconds:
                    break
        else:
            runs.append(_spawn(base, "measure", trace, deadline))
        while not trace and len(probes) + len(runs) < SETUP_SAMPLES:
            probes.append(_spawn(base, "setup", False, deadline))
    return probes, runs


def end_to_end(probes, runs):
    records = probes + runs
    passes = [t for r in runs for t in r["untraced_s"]]
    op_ms = [t for r in runs for t in r["op_ms"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.fmean(passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    detail = {
        "pass_s": passes,
        "setup_samples": len(records),
        "op_samples": len(op_ms),
        "op_p50_ms": _percentile(op_ms, 0.50),
        "op_p99_ms": _percentile(op_ms, 0.99),
        "fail_frac": failed / attempted if attempted else None,
    }
    return metrics, detail, attempted, failed


def per_layer(runs):
    traced = [r for r in runs if r["traced_s"]]
    untraced = [t for r in runs for t in r["untraced_s"]]
    names = set().union(*(r["layers"] for r in traced))
    metrics = {
        name: statistics.fmean(r["layers"].get(name, 0.0) for r in traced) for name in names
    }
    traced_passes = [t for r in traced for t in r["traced_s"]]
    metrics["trace.overhead_frac"] = (
        statistics.fmean(traced_passes) / statistics.fmean(untraced) - 1.0
    )
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    missing = sorted(set().union(*(r.get("missing", []) for r in traced)))
    return metrics, {"traced_passes": len(traced_passes), "missing_layers": missing}, attempted, failed


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint(runs):
    env = dict(runs[0]["environment"])
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        git_commit=_git_commit(),
        source_sha256=_source_digest(),
    )
    return env


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args, spec):
    deadline = time.monotonic() + TIME_LIMIT_S
    probes, runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    if args.trace:
        values, detail, attempted, failed = per_layer(runs)
        wanted = spec["per_layer"]
    else:
        values, detail, attempted, failed = end_to_end(probes, runs)
        wanted = spec["end_to_end"]
    detail.update(workload=args.workload, seed=args.seed, environment=fingerprint(runs))
    detail["failures"] = [n for r in probes + runs for n in r["notes"]][:5]
    print(json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def report(args, spec):
    """Every end-to-end metric, with units, for all workloads."""
    seconds = args.seconds or spec["run_seconds"]
    env = None
    print("%-14s %10s %10s %14s %14s %12s %10s" % (
        "workload", "setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb", "fail_frac"))
    for w in spec["workloads"]:
        deadline = time.monotonic() + TIME_LIMIT_S
        probes, runs = measure(w["name"], args.seed, seconds, False, deadline)
        m, d, _, _ = end_to_end(probes, runs)
        env = env or fingerprint(runs)

        def pct(v):
            return "n/a (n=%d)" % d["op_samples"] if v is None else "%.3fms (n=%d)" % (v, d["op_samples"])

        print("%-14s %9.3fs %9.3fs %14s %14s %10.1fMB %10.4f" % (
            w["name"], m["setup_s"], m["wall_s"], pct(d["op_p50_ms"]), pct(d["op_p99_ms"]),
            m["peak_rss_mb"], d["fail_frac"]))
    print("environment: " + json.dumps(env, sort_keys=True))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true", help="all workloads, untraced, as a table")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfgenus", "__init__.py")):
        sys.stderr.write("perfbench: no hopfgenus sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    try:
        if args.report:
            return report(args, spec)
        if args.workload not in names or not args.seconds or args.seconds < 1:
            p.error("--workload must be one of %s and --seconds at least 1" % ", ".join(names))
        return run_one(args, spec)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
