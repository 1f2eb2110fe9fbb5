"""One benchmark process: set up a workload, then time passes over it.

Started by run.py as ``python3 worker.py CONFIG_JSON``; prints one JSON
object.  Set-up (interpreter start, import, input generation, warm-up)
is timed from the moment run.py spawned the process, on the shared
monotonic clock.
"""

import json
import os
import resource
import sys
import time
import traceback

import oracles
from oracles import OracleError
from workloads import WORKLOADS

MAX_FAILURE_NOTES = 5


class Tally:
    """Per-operation latencies and failures of one process."""

    def __init__(self):
        self.op_ms = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, label, message):
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append("%s: %s" % (label, message))

    def run(self, ops, record=True):
        """Run ops in order and check each result outside the timed region;
        return the summed op time.  A result is dropped once checked, so
        no operation runs alongside its predecessors' results."""
        total = 0.0
        for op in ops:
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            total += elapsed
            if record:
                self.op_ms.append(elapsed * 1000.0)
            self.attempted += 1
            if error is not None:
                self.fail(op.label, error)
                continue
            try:
                op.check(result)
            except OracleError as exc:
                self.fail(op.label, str(exc))
            except Exception:
                self.fail(op.label, "oracle could not read the result: " + traceback.format_exc(limit=3))
            del result
        return total


def _cache_stats():
    """Read symm's and qsymm's caches without touching their contents."""
    stats = {}
    symm = sys.modules.get("hopfgenus.symm")
    qsymm = sys.modules.get("hopfgenus.qsymm")
    gen = getattr(symm, "_gen_table", None)
    qs = getattr(qsymm, "_qs_words", None)
    subst = getattr(symm, "_SUBST_CACHE", None)
    if gen is not None:
        info = gen.cache_info()
        stats["gen_table"] = (info.hits, info.misses, info.currsize)
    if qs is not None:
        info = qs.cache_info()
        stats["qs_words"] = (info.hits, info.misses, info.currsize)
    if subst is not None:
        stats["subst_entries"] = sum(len(v) for v in subst.values())
    return stats


def _fingerprint():
    from importlib import metadata

    import hopfgenus
    from hopfgenus import rational

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "kernel_backend": hopfgenus.kernel_backend,
        "coefficient_type": "%s.%s" % (rational.Q.__module__, rational.Q.__name__),
    }


def _passes(tally, ops, seconds, traced_run, is_traced, min_passes):
    """Run passes while the next one should still end within ``seconds``.

    Pass i goes through ``traced_run`` when ``is_traced(i)``; returns the
    untraced and the traced pass times.
    """
    untraced, traced = [], []
    start = time.monotonic()
    i = 0
    while True:
        pass_start = time.monotonic()
        if is_traced(i):
            traced.append(traced_run.traced_pass(lambda: tally.run(ops, record=False)))
        else:
            untraced.append(tally.run(ops))
        i += 1
        last = time.monotonic() - pass_start
        if i >= min_passes and time.monotonic() - start + last > seconds:
            return untraced, traced


class TracedRun:
    """Install the tracer around single passes and collect layer metrics."""

    def __init__(self):
        import tracer

        self.tracer = tracer.Tracer()
        self.passes = 0
        self.hits = {"gen_table": [0, 0], "qs_words": [0, 0]}
        self.after = {}

    def traced_pass(self, body):
        before = _cache_stats()
        self.tracer.install()
        try:
            elapsed = body()
        finally:
            self.tracer.restore()
        self.after = _cache_stats()
        for key, acc in self.hits.items():
            if key in self.after:
                b = before.get(key, (0, 0, 0))
                acc[0] += self.after[key][0] - b[0]
                acc[1] += self.after[key][1] - b[1]
        self.passes += 1
        return elapsed

    def metrics(self):
        out = {}
        n = max(1, self.passes)
        for name, value in self.tracer.layer_metrics().items():
            keep_as_is = name.endswith(("_frac", "radius_over_target"))
            out[name] = value if keep_as_is else value / n
        for key, layer in (("gen_table", "symm.gen_table"), ("qs_words", "qsymm.qs_words")):
            hits, misses = self.hits[key]
            out[layer + ".hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        out["symm.gen_table.entries"] = self.after.get("gen_table", (0, 0, 0))[2]
        out["symm.subst_cache.entries"] = self.after.get("subst_entries", 0)
        return out


def main(argv):
    cfg = json.loads(argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    workload = WORKLOADS[cfg["workload"]]
    tally = Tally()
    out = {}
    oracles.use_references(cfg["mzv_references"])
    inputs = workload.make_inputs(cfg["seed"])
    warmup, ops = workload.prepare(inputs, cfg["workdir"])
    start = time.monotonic()
    warm_s = tally.run(warmup, record=False)
    end = time.monotonic()
    # set-up counts the warm-up calls but not their oracle checks
    out["setup_s"] = end - cfg["spawned"] - ((end - start) - warm_s)
    if cfg["mode"] == "measure":
        traced_run = TracedRun() if cfg["trace"] else None
        if workload.cold:
            # one pass per process; run.py alternates traced processes
            seconds, min_passes = 0, 1
            is_traced = lambda i: traced_run is not None  # noqa: E731
        elif traced_run is None:
            seconds, min_passes = cfg["seconds"], 1
            is_traced = lambda i: False  # noqa: E731
        else:
            # U, T, U, T, ...: after the warm-up every pass sees the same
            # cache state, so traced and untraced passes compare directly
            seconds, min_passes = cfg["seconds"], 2
            is_traced = lambda i: i % 2 == 1  # noqa: E731
        out["untraced_s"], out["traced_s"] = _passes(
            tally, ops, seconds, traced_run, is_traced, min_passes
        )
        if traced_run is not None:
            out["layers"] = traced_run.metrics()
            out["missing"] = sorted(traced_run.tracer.missing)
    out.update(
        op_ms=tally.op_ms,
        attempted=tally.attempted,
        failed=tally.failed,
        notes=tally.notes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_fingerprint(),
    )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
