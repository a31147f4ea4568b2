"""qgen benchmark: seeded workloads, end-to-end metrics, and a traced layer split.

    python3 perfbench/run.py --workload train --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Each workload is a closed loop with one client
and BLAS pinned to one thread. With `--trace 0` it sets up several times
(each set-up ends with a warm-up request: the first epoch or poem), then times
requests for `--seconds` and prints the end-to-end metrics. With `--trace 1`
it wraps qgen's public functions (see tracing.py) for one set-up and then
for every second request, and prints the per-layer split of the traced
requests and the tracing overhead (traced minus untraced time per request).
Every request's output is checked; a failed check or a failed operation
counts in `failed`. The last line of stdout is one JSON object: correct,
attempted, failed, metrics. `--workload all` runs every workload, each in
its own process.
"""

import os

# One BLAS thread, set before numpy is first imported in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs as bench_inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(SRC, "qgen", "data")
OUT_DIR = os.path.join(HERE, "out")

# An untraced run sets up at least SETUPS_MIN times, and more while the
# set-ups took under SETUP_BUDGET_S in total; setup_s is their median.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 15, 2.0
DIGEST_REQUESTS = 3     # the digest covers the warm-up and this many requests

# The issue-level name of each workload's throughput and request latency.
LABELS = {
    "train": ("train_tokens_per_s", "tokens/s", "train_epoch_ms"),
    "generate": ("gen_poems_per_s", "poems/s", "gen_poem_ms"),
    "greedy": ("greedy_poems_per_s", "poems/s", "greedy_poem_ms"),
    "embed": ("embed_pairs_per_s", "pairs/s", "embed_epoch_ms"),
}


def git_rev():
    """`git describe` of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    """Versions, BLAS and CPU facts that a timing depends on."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):       # numpy before 1.26 has no dict mode
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_rev": git_rev()}


class Loop:
    """What one timed closed loop did."""

    def __init__(self):
        self.latencies = []
        self.traced = []        # per request: whether it ran traced
        self.items = 0
        self.failed = 0
        self.wall = 0.0


def call(request, errors):
    """One request; a failed operation counts like a failed output check."""
    try:
        return request()
    except errors as e:
        return 0, False, "%s: %s" % (type(e).__name__, e)


def measure(wl, seconds, errors, digest, tracer=None):
    """Send request after request until `seconds` have passed.

    With a tracer, every second request runs traced, so traced and untraced
    requests sample the same stretch of machine time.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(loop.latencies) % 2 == 1
        if traced:
            tracer.request = str(len(loop.latencies))
            tracer.install()
        t0 = time.perf_counter()
        items, ok, out = call(wl.request, errors)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        loop.latencies.append(t1 - t0)
        loop.traced.append(traced)
        loop.items += items
        loop.failed += not ok
        if len(loop.latencies) <= DIGEST_REQUESTS:
            digest.update(out.encode("utf-8"))
        if t1 - start >= seconds:
            break
    loop.wall = t1 - start
    return loop


def set_up(cls, inputs, size, errors, digest=None):
    """Build a workload and warm it up. Returns (workload, seconds, warm-up ok)."""
    wl = cls(inputs, size, DATA_DIR, OUT_DIR)
    t0 = time.perf_counter()
    wl.setup()
    _, ok, out = call(wl.request, errors)
    elapsed = time.perf_counter() - t0
    if digest is not None:
        digest.update(out.encode("utf-8"))
    return wl, elapsed, ok


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(cls, inputs, size, errors, seconds, digest, labels):
    """Set up several times, then time requests. Returns (metrics, attempted, failed)."""
    rate_name, rate_unit, latency_name = labels
    times, failed = [], 0
    while True:
        wl, elapsed, ok = set_up(cls, inputs, size, errors, None if times else digest)
        times.append(elapsed)
        failed += not ok
        if len(times) >= SETUPS_MAX or (len(times) >= SETUPS_MIN
                                        and sum(times) >= SETUP_BUDGET_S):
            break
        wl.close()
        wl = None       # free this model before the next set-up builds one, so
        gc.collect()    # peak_rss_mb holds one workload's state, as the program does
    try:
        loop = measure(wl, seconds, errors, digest)
    finally:
        wl.close()
    lat_ms = [t * 1000.0 for t in loop.latencies]
    p90 = quantile(lat_ms, 0.9)
    metrics = {
        "setup_s": metric(statistics.median(times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": metric(loop.items / loop.wall, "items/s"),
        "request_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "request_ms_p90": metric(p90, "ms"),
    }
    print("setup_s            %.4f s (median of %d: %s)"
          % (metrics["setup_s"]["value"], len(times), ", ".join("%.4f" % t for t in times)))
    print("%-18s %.2f %s" % (rate_name, metrics["items_per_s"]["value"], rate_unit))
    print("%-18s %.2f ms" % (latency_name + "_p50", metrics["request_ms_p50"]["value"]))
    print("%-18s %.2f ms (n=%d, %d beyond p90)"
          % (latency_name + "_p90", p90, len(lat_ms), sum(t > p90 for t in lat_ms)))
    print("peak_rss_mb        %.1f MB" % metrics["peak_rss_mb"]["value"])
    return metrics, len(times) + len(lat_ms), failed + loop.failed


def run_traced(cls, inputs, size, errors, seconds, digest, spans_path):
    """A traced set-up, then requests alternately untraced and traced.

    Returns (metrics, attempted, failed).
    """
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl, _, ok = set_up(cls, inputs, size, errors, digest)
    finally:
        tracer.uninstall()
    try:
        loop = measure(wl, seconds, errors, digest, tracer)
    finally:
        wl.close()
    tracer.write(spans_path)
    traced = [t for t, on in zip(loop.latencies, loop.traced) if on]
    untraced = [t for t, on in zip(loop.latencies, loop.traced) if not on]
    metrics = tracing.layer_metrics(tracer, requests=len(traced))
    per_req_traced = sum(traced) / len(traced) if traced else 0.0
    per_req_untraced = sum(untraced) / len(untraced)
    metrics["trace.overhead_pct"] = metric(
        100.0 * (per_req_traced - per_req_untraced) / per_req_untraced if traced else 0.0,
        "%")
    metrics["trace.top_level_share"] = metric(
        tracing.top_level_seconds(tracer) / sum(traced) if traced else 0.0, "ratio")
    metrics["trace.absent"] = metric(len(tracer.absent), "count")
    metrics["trace.requests"] = metric(len(traced), "count")
    for key, m in metrics.items():
        print("%-40s %14.6g %s" % (key, m["value"], m["unit"]))
    print("trace: %d spans written to %s; absent targets: %s"
          % (len(tracer.spans), os.path.relpath(spans_path, ROOT),
             ", ".join(tracer.absent) or "none"))
    print("trace: untraced %.2f ms/request (n=%d), traced %.2f ms/request (n=%d)"
          % (per_req_untraced * 1000.0, len(untraced), per_req_traced * 1000.0, len(traced)))
    return metrics, 1 + len(loop.latencies), (not ok) + loop.failed


def run_workload(name, seed, seconds, trace, size):
    """Run one workload in this process; prints a report and returns the result."""
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOAD_CLASSES[name]
    inputs = bench_inputs.make_inputs(name, seed, size, DATA_DIR)
    print("== perfbench %s  seed %d  %g s  trace %d" % (name, seed, seconds, trace))
    print("why: " + bench_inputs.WHY[name])
    print("env: " + json.dumps(environment()))
    print("inputs: " + json.dumps({k: v if isinstance(v, int) else "%d entries" % len(v)
                                   for k, v in inputs.items()}))
    digest = hashlib.sha256()
    if trace:
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv" % (name, seed))
        metrics, attempted, failed = run_traced(cls, inputs, size, workloads.OP_ERRORS,
                                                seconds, digest, spans_path)
    else:
        metrics, attempted, failed = run_untraced(cls, inputs, size, workloads.OP_ERRORS,
                                                  seconds, digest, LABELS[name])
    print("error_rate         %g (%d failed / %d attempted)"
          % (failed / attempted, failed, attempted))
    print("digest             sha256:%s (warm-up + first %d requests)"
          % (digest.hexdigest(), DIGEST_REQUESTS))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process; a combined summary keyed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in bench_inputs.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print("perfbench: workload %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        rate_name, rate_unit, latency_name = LABELS[name]
        renamed = {"items_per_s": (rate_name, rate_unit),
                   "request_ms_p50": (latency_name + "_p50", "ms"),
                   "request_ms_p90": (latency_name + "_p90", "ms")}
        for key, m in result["metrics"].items():
            key, unit = renamed.get(key, (key, m["unit"]))
            combined["metrics"]["%s.%s" % (name, key)] = metric(m["value"], unit)
        combined["metrics"]["%s.error_rate" % name] = metric(
            result["failed"] / result["attempted"], "failed/attempted")
    print("== summary")
    for key, m in combined["metrics"].items():
        print("%-48s %14.6g %s" % (key, m["value"], m["unit"]))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=bench_inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: toy dimensions for the self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgen", "__init__.py")):
        print("perfbench: no qgen sources at %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    size = bench_inputs.TINY if args.size == "tiny" else bench_inputs.FULL
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
