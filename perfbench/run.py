"""Benchmark for hicrit: four closed-loop workloads driven through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): null-calibration, sparse-detection and
covariance call ``hicrit.cli.dispatch`` in this process; cli-requests starts
a fresh ``python -m hicrit.cli`` per request. One client sends the next
request only after the previous one returned.

A run sets up SETUPS times, then runs whole passes of the workload's fixed
request mix until the next pass would end after --seconds. Outputs are
checked after the timed phase; a non-zero exit or a failed check fails the
request. --trace 0 reports the end-to-end metrics:

  setup_s           median over the set-ups of: fresh-interpreter
                    `import hicrit.cli`, input generation and one warm-up
  wall_s            median wall time of one pass
  requests_per_s    requests completed over the timed phase's wall time
  request_p50_s     median request latency
  request_tail_s    latency at the highest percentile with at least 10
                    samples beyond it (the maximum below 11 samples)
  replicates_per_s  Monte Carlo replicates over the summed latency of the
                    requests that simulate them
  peak_rss_mb       peak RSS of the client or its largest child
  failed_ratio      failed over attempted requests (printed, and carried by
                    the JSON's attempted/failed fields: it is 0 when the
                    program is right, so it has no relative bound)

--trace 1 runs the same passes on one worker (pool children record no
spans), alternating untraced and traced copies of each pass to measure the
tracing overhead, times parallel efficiency from outside, and reports the
per-layer metrics (0 for a layer the workload does not reach). The last
stdout line is a JSON object {correct, attempted, failed, metrics}; the
lines before it print every metric by name with its unit, the environment
record and output digests. Records and traces go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
from workloads import WORKLOADS, Result

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 3
REQUEST_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "requests_per_s": "1/s", "request_p50_s": "s",
    "request_tail_s": "s", "replicates_per_s": "1/s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "calibrate.simulate_self_s": "s",
    "hc_core.kernel_s": "s", "hc_core.kernel_calls": "count",
    "hc_core.kernel_elems_per_s": "1/s", "hc_core.kernel_bytes": "bytes_computed",
    "arw.detect_self_s": "s", "arw.ndtr_s": "s", "arw.ndtr_elems": "count",
    "calibrate.parallel_efficiency": "ratio", "covtest.parallel_efficiency": "ratio",
    "calibrate.cache_read_s": "s", "calibrate.cache_write_s": "s",
    "calibrate.cache_hit_ratio": "ratio",
    "covtest.correlation_s": "s", "numerics.t_tail_s": "s", "numerics.t_tail_elems": "count",
    "covtest.profile_s": "s", "covtest.profile_replicates": "count",
    "covtest.profile_cache_read_s": "s", "covtest.profile_cache_write_s": "s",
    "hc_core.series_s": "s",
    "cli.import_s": "s", "cli.dispatch_self_s": "s",
    "_io.ingest_s": "s", "_io.ingest_mb_per_s": "MB/s",
    "arw.permutation_s": "s", "arw.shuffles_per_s": "1/s",
    "hct.train_s": "s", "hct.predict_s": "s", "pairhc.rank_s": "s", "pairhc.score_s": "s",
    "phase.table_s": "s",
    "trace.overhead_ratio": "ratio", "trace.spans": "count",
}

KNOWN_FINDINGS = [
    "cov-eigen at its default --threads runs nproc pool workers, each with nproc "
    "unpinned BLAS threads; on 2 cores a 500-replicate 120x120 profile took "
    "1.0-6.5 s (bimodal) against 0.5-0.6 s on one worker. The timed covariance "
    "requests therefore use --threads 1, and covtest.parallel_efficiency in the "
    "traced run compares the default against one worker.",
    "detect-sim at reps <= 512 (one STREAM_BLOCK) never uses its process pool.",
]


class Context:
    """What one run shares between set-up, requests and checks."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.tracer = None  # a Tracer while a traced pass runs
        self.spans = []
        self.import_s = {"setup": [], "child": []}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")


def _dispatch_in_process(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.cli.dispatch(argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        err.write(f"{type(exc).__name__}: {exc}")
    return code, time.perf_counter() - started, out.getvalue(), err.getvalue()


def _dispatch_process(ctx, argv, request_id):
    span_file = None
    if ctx.tracer is not None:
        span_file = os.path.join(ctx.workload.work, f"spans-{request_id}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), span_file, "--"] + argv
    else:
        cmd = [sys.executable, "-m", "hicrit.cli"] + argv
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, cwd=ROOT,
                              timeout=REQUEST_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, "", f"timed out after {exc.timeout} s"
    seconds = time.perf_counter() - started
    if span_file and os.path.exists(span_file):
        with open(span_file) as fh:
            doc = json.load(fh)
        os.unlink(span_file)
        ctx.import_s["child"].append(doc["import_s"])
        spans.merge(ctx.spans, doc["spans"], request_id)
    return code, seconds, out, err


def execute(ctx, request, request_id=None):
    """Run one request and return its Result (checks come later)."""
    if ctx.workload.in_process:
        if ctx.tracer is not None:
            ctx.tracer.request_id = request_id
        res = _dispatch_in_process(ctx, request.argv)
    else:
        res = _dispatch_process(ctx, request.argv, request_id)
    return Result(request, *res)


def _time_import(ctx):
    code = "import time; t = time.perf_counter(); import hicrit.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ctx.env, cwd=ROOT, timeout=REQUEST_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup(ctx, repeats):
    """Fresh-interpreter import, input generation and warm-up, ``repeats`` times.

    Returns the set-up seconds of each repetition and the warm-up results.
    """
    times, warm = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        ctx.import_s["setup"].append(_time_import(ctx))
        ctx.workload.generate()
        warm.append(execute(ctx, ctx.workload.warmup()))
        times.append(time.perf_counter() - started)
    return times, warm


def run_pass(ctx, k, tag, first_id):
    reqs = ctx.workload.plan(k, tag)
    started = time.perf_counter()
    results = [execute(ctx, r, first_id + i) for i, r in enumerate(reqs)]
    return time.perf_counter() - started, results


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with at
    least 10 samples beyond it; the maximum when there are fewer than 11."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(workload):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # In-process workloads: the client or its largest pool worker. The
    # cli-requests client only generates inputs; its children do the work.
    kib = children if not workload.in_process else max(own, children)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Environment record.

def _blas_threads():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    from hicrit.numerics import RNG_VERSION

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hicrit", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": _blas_threads(), "rng_version": RNG_VERSION,
        "commit": commit or "unknown (not a git checkout)", "src_sha256": h.hexdigest(),
        "known_findings": KNOWN_FINDINGS,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def layer_metrics(ctx, overhead, efficiency, hit_ratio):
    recs = ctx.spans
    selfs = spans.self_times(recs)

    def total(*names):
        return sum(s["end"] - s["start"] for s in spans.outermost(recs, set(names)))

    def own(name):
        return sum(t for s, t in zip(recs, selfs) if s["name"] == name)

    def count(name, key):
        return sum(s.get(key, 0) for s in recs if s["name"] == name)

    def per(num, den):
        return num / den if den > 0 else 0.0

    kernel_s, ndtr_s = total("hc_core.kernel"), total("arw.ndtr")
    ingest_s, perm_s = total("_io.ingest"), total("arw.permutation")
    cache_read = sum(s["end"] - s["start"] for s in recs if s["name"] == "calibrate.cache_read"
                     and (s["parent"] is None
                          or recs[s["parent"]]["name"] != "calibrate.cache_write"))
    m = {
        "calibrate.simulate_self_s": own("calibrate.simulate_null_scores"),
        "hc_core.kernel_s": kernel_s,
        "hc_core.kernel_calls": sum(1 for s in recs if s["name"] == "hc_core.kernel"),
        "hc_core.kernel_elems_per_s": per(count("hc_core.kernel", "elems"), kernel_s),
        "hc_core.kernel_bytes": count("hc_core.kernel", "bytes"),
        "arw.detect_self_s": own("arw.detect"),
        "arw.ndtr_s": ndtr_s,
        "arw.ndtr_elems": count("arw.ndtr", "elems"),
        "calibrate.parallel_efficiency": efficiency.get("calibrate", 0.0),
        "covtest.parallel_efficiency": efficiency.get("covtest", 0.0),
        "calibrate.cache_read_s": cache_read,
        "calibrate.cache_write_s": total("calibrate.cache_write"),
        "calibrate.cache_hit_ratio": hit_ratio,
        "covtest.correlation_s": total("covtest.correlation"),
        "numerics.t_tail_s": total("numerics.t_tail"),
        "numerics.t_tail_elems": count("numerics.t_tail", "elems"),
        "covtest.profile_s": total("covtest.profile"),
        "covtest.profile_replicates": count("covtest.profile", "reps"),
        "covtest.profile_cache_read_s": total("covtest.profile_cache_read"),
        "covtest.profile_cache_write_s": total("covtest.profile_cache_write"),
        "hc_core.series_s": total("hc_core.series"),
        "cli.import_s": statistics.median(ctx.import_s["child"] or ctx.import_s["setup"]),
        "cli.dispatch_self_s": own("cli.dispatch"),
        "_io.ingest_s": ingest_s,
        "_io.ingest_mb_per_s": per(count("_io.ingest", "bytes") / 1e6, ingest_s),
        "arw.permutation_s": perm_s,
        "arw.shuffles_per_s": per(count("arw.permutation", "reps"), perm_s),
        "hct.train_s": total("hct.train"),
        "hct.predict_s": total("hct.predict"),
        "pairhc.rank_s": total("pairhc.rank"),
        "pairhc.score_s": total("pairhc.score"),
        "phase.table_s": total("phase.table"),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(recs),
    }
    return m


# ---------------------------------------------------------------------------

def timed_phase(ctx, seconds):
    """Whole passes until the next would end past ``seconds`` (at least one)."""
    passes, next_id = [], 0
    started = time.perf_counter()
    while True:
        wall, results = run_pass(ctx, len(passes), "", next_id)
        next_id += len(results)
        passes.append((wall, results))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(w for w, _ in passes) > seconds:
            return passes, elapsed


def traced_phase(ctx, seconds):
    """Alternate untraced and traced passes of the same plan; one worker."""
    plain, traced, next_id = [], [], 0
    started = time.perf_counter()
    budget = seconds * (0.6 if ctx.workload.probe_layer else 0.9)
    while True:
        k = len(plain)
        plain.append(run_pass(ctx, k, "-u", next_id))
        next_id += len(plain[-1][1])
        ctx.tracer = spans.Tracer()
        # Out-of-process requests trace inside child.py instead.
        if ctx.workload.in_process:
            ctx.tracer.install()
        try:
            traced.append(run_pass(ctx, k, "-t", next_id))
        finally:
            ctx.tracer.uninstall()
            ctx.spans.extend(ctx.tracer.spans)
            ctx.tracer = None
        next_id += len(traced[-1][1])
        elapsed = time.perf_counter() - started
        if elapsed + (elapsed / len(plain)) > budget:
            return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "hicrit", "cli.py")):
        print(f"error: no hicrit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (SRC, os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hicrit.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        print(f"error: imported hicrit from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(args, cli, WORKLOADS[args.workload](args.seed, work, args.smoke))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, cli, workload):
    ctx = Context(workload, cli)
    setup_times, checked = setup(ctx, 1 if args.smoke else SETUPS)
    workload.prepare_checks()
    for r in checked:
        if r.code != 0:
            r.problem = f"warm-up exit code {r.code}: {r.stderr.strip()[-200:]}"

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if not args.trace:
        passes, elapsed = timed_phase(ctx, args.seconds)
        for _, results in passes:
            workload.check(results)
        results = [r for _, rs in passes for r in rs]
        lat = [r.seconds for r in results]
        value, pct, beyond = tail(lat)
        reps = sum(r.request.replicates for r in results)
        sim_s = sum(r.seconds for r in results if r.request.replicates)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(w for w, _ in passes),
            "requests_per_s": len(results) / elapsed,
            "request_p50_s": statistics.median(lat),
            "request_tail_s": value,
            "replicates_per_s": reps / sim_s,
            "peak_rss_mb": peak_rss_mb(workload),
        }
        units = END_TO_END
        notes = {"request_tail_s": f"p{pct:.1f} of {len(lat)} requests, {beyond} beyond",
                 "wall_s": f"median of {len(passes)} passes of {len(passes[0][1])} requests",
                 "replicates_per_s": f"{reps} replicates in {sim_s:.3f} s of the "
                                     "requests that simulate them"}
        kinds = {}
        for r in results:
            kinds.setdefault(r.request.kind, []).append(r.seconds)
        record["latency_by_kind"] = {k: {"count": len(v), "median_s": statistics.median(v)}
                                     for k, v in kinds.items()}
        record["digests"] = {record["environment"]["rng_version"]: workload.digest(passes[0][1])}
    else:
        plain, traced = traced_phase(ctx, args.seconds)
        for _, rs in plain + traced:
            workload.check(rs)
        results = [r for _, rs in plain + traced for r in rs]
        plain_s, traced_s = sum(w for w, _ in plain), sum(w for w, _ in traced)
        efficiency = {}
        if workload.probe_layer:
            one, many = (execute(ctx, r) for r in workload.probe())
            workload.check_probe((one, many))
            results += [one, many]
            efficiency[workload.probe_layer] = one.seconds / ((os.cpu_count() or 1) * many.seconds)
        calib = [r for _, rs in traced for r in rs if r.request.argv[0] == "calibrate"]
        hits = sum(1 for r in calib if r.request.kind == "hit")
        metrics = layer_metrics(ctx, traced_s / plain_s - 1.0, efficiency,
                                hits / len(calib) if calib else 0.0)
        units = PER_LAYER
        notes = {"trace.overhead_ratio": f"{len(traced)} traced vs {len(plain)} untraced passes",
                 "hc_core.kernel_bytes": "computed from shapes: 8 bytes per window element"}
        trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"summary": spans.summary(ctx.spans), "overhead_ratio":
                       metrics["trace.overhead_ratio"], "spans": ctx.spans}, fh)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)

    results += checked
    failed = [r for r in results if r.problem]
    for r in failed[:10]:
        print(f"FAILED {r.request.kind} {' '.join(r.request.argv)}: {r.problem}")
    record.update(metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                  attempted=len(results), failed=len(failed))
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    if "digests" in record:
        print(f"digests {json.dumps(record['digests'])}")
    print(f"failed_ratio {len(failed) / len(results):.6g} ratio "
          f"({len(failed)} of {len(results)} requests)")
    for k, v in metrics.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"{k} {v:.6g} {units[k]}{note}")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
