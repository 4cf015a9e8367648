#!/usr/bin/env python3
"""Serve-path benchmark for the etch contraction service.

Builds `servebench` from the sources beside this file and ../src, then runs
one workload and prints, as its last stdout line, one JSON object
{"correct", "attempted", "failed", "metrics"}:

    python3 servebench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports the
per-layer metrics from an untraced run plus a traced replay. Every process
gets a fresh, empty JIT cache directory that is removed when it exits. See
README.md beside this file for the workloads and the metric map.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORKLOADS = ("serve_hot", "read_after_write", "view_maintain")
# An end-to-end run splits its window over this many processes, each with
# its own set-up: latencies are pooled, set-up and RSS are medians. Spreading
# a run over processes and time damps per-process and machine-load effects.
PROCESSES = 12
# A traced run drives the writing workloads for a fixed number of rounds, so
# two runs with one seed report identical counters.
TRACE_ROUNDS = {"read_after_write": 16, "view_maintain": 64}

# The median request latency is printed but not compared: on view_maintain
# it jumps between the host's fast and slow memory modes (see README.md).
END_TO_END = {
    "request_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "serve.queries": "count",
    "serve.executions": "count",
    "serve.admission_us": "us",
    "serve.coalesced_ratio": "ratio",
    "serve.native_ratio": "ratio",
    "plancache.lookups": "count",
    "plancache.misses": "count",
    "plancache.lookup_us": "us",
    "plancache.hit_ratio": "ratio",
    "plancache.invalidations": "count",
    "plancache.evictions": "count",
    "planner.runs": "count",
    "planner.plan_us": "us",
    "planner.stats_ms": "ms",
    "compiler.lower_us": "us",
    "compiler.bytecode_us": "us",
    "jit.calls": "count",
    "jit.compiles": "count",
    "jit.mem_hits": "count",
    "jit.disk_hits": "count",
    "jit.hit_ratio": "ratio",
    "jit.compile_ms": "ms",
    "jit.lookup_us": "us",
    "bind.us": "us",
    "kernel.xd_us": "us",
    "kernel.yzw_us": "us",
    "kernel.Ad_us": "us",
    "kernel.Ax_us": "us",
    "kernel.RST_us": "us",
    "kernel.delta_us": "us",
    "catalog.appends": "count",
    "catalog.append_ms": "ms",
    "catalog.merged_nnz_per_append": "nnz",
    "catalog.delta_nnz": "nnz",
    "ivm.refresh_ms": "ms",
    "ivm.delta_refreshes": "count",
    "ivm.delta_plan_hits": "count",
    "ivm.delta_plan_builds": "count",
    "ivm.full_recomputes": "count",
    "service.queries": "count",
    "service.query_p50_ms": "ms",
    "service.query_p90_ms": "ms",
    "service.query_p99_ms": "ms",
    "service.writes": "count",
    "service.write_p50_ms": "ms",
    "service.write_p90_ms": "ms",
    "service.failed_op_ratio": "ratio",
    "replay.query_ms": "ms",
    "replay.write_ms": "ms",
    "trace.query_overhead_pct": "%",
    "trace.write_overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver in .bench_build (serialized by a
    lock, so concurrent runs in one checkout build once). Exits nonzero,
    printing no result, when the sources are missing or do not build."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "servebench",
                      "--parallel", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                # Leave no half-configured tree behind for the next run.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                log("servebench: build failed")
                sys.exit(2)
    return BUILD / "servebench"


def run_process(exe, args, mode, seconds, spans=None, rounds=0):
    """Runs one servebench process with its own empty JIT cache and TMPDIR
    (so cc's scratch files stay in the checkout) and returns (ok, result)."""
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=mode + "-", dir=runs) as tmp:
        jit = Path(tmp) / "jit"
        jit.mkdir()
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--mode", mode, "--jit-dir", str(jit)]
        if spans:
            cmd += ["--spans", str(spans)]
        if rounds:
            cmd += ["--rounds", str(rounds)]
        env = dict(os.environ, TMPDIR=tmp, ETCH_JIT_CACHE=str(jit))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"servebench: {mode} process printed nothing (exit {proc.returncode})")
        sys.exit(3)
    return proc.returncode == 0, json.loads(lines[-1])


def report(title, values, units):
    print(f"# {title}")
    for name, unit in units.items():
        print(f"#   {name:32s} {values[name]:.6g} {unit}")


# Bucket geometry of servebench's latency histograms (struct Histogram).
BUCKET_BASE_MS, BUCKET_RATIO = 1e-3, 1.01


def pool(histograms):
    """Merges sparse [[bucket, count], ...] histograms into {bucket: count}."""
    merged = {}
    for h in histograms:
        for bucket, count in h:
            merged[bucket] = merged.get(bucket, 0) + count
    return merged


def count(hist):
    return sum(hist.values())


def percentile(hist, q):
    """The q-th percentile of a pooled histogram, placing a bucket's samples
    evenly (in log scale) across its width. 0 when empty."""
    rank = q / 100 * (count(hist) - 1)
    seen = 0
    for bucket in sorted(hist):
        n = hist[bucket]
        if rank < seen + n:
            return BUCKET_BASE_MS * BUCKET_RATIO ** (bucket + (rank - seen + 0.5) / n)
        seen += n
    return 0.0


def call_metrics(results):
    """Per-call latencies of the service, pooled over the given results."""
    queries = pool(r["query_ms"] for r in results)
    writes = pool(r["write_ms"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    return {
        "service.queries": count(queries),
        "service.query_p50_ms": percentile(queries, 50),
        "service.query_p90_ms": percentile(queries, 90),
        "service.query_p99_ms": percentile(queries, 99) if count(queries) >= 1000 else 0.0,
        "service.writes": count(writes),
        "service.write_p50_ms": percentile(writes, 50),
        "service.write_p90_ms": percentile(writes, 90),
        "service.failed_op_ratio": sum(r["failed"] for r in results) / max(attempted, 1),
    }


def end_to_end(exe, args):
    runs = [run_process(exe, args, "serve", args.seconds / PROCESSES)
            for _ in range(PROCESSES)]
    results = [r for _, r in runs]
    requests = pool(r["request_ms"] for r in results)
    values = {
        "request_p50_ms": percentile(requests, 50),
        "request_p90_ms": percentile(requests, 90),
        "ops_per_s": sum(r["window_ops"] for r in results) / sum(r["wall_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    report(f"end-to-end (tracing off, {count(requests)} requests over {PROCESSES} processes)",
           values, {"request_p50_ms": "ms", **END_TO_END})
    calls = call_metrics(results)
    report("per call", calls, {k: PER_LAYER[k] for k in calls})
    return runs, {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(exe, args):
    # The untraced process gives the counters and per-call latencies; a
    # second process replays the same operation stream traced.
    half = args.seconds / 2
    spans = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
    serve_ok, serve = run_process(exe, args, "serve", half,
                                  rounds=TRACE_ROUNDS.get(args.workload, 0))
    replay_ok, replay = run_process(exe, args, "replay", half, spans)
    values = dict(serve["counters"])
    values.update(call_metrics([serve]))
    values.update({k: v for k, v in replay.items() if "." in k})
    # Admission and key building: untraced plan-cache-hit latency minus the
    # replayed kernel span, per shape, averaged over the shapes that hit.
    gaps = [percentile(pool([h]), 50) * 1e3 - replay[f"kernel.{s}_us"]
            for s, h in serve["hit_query_ms"].items() if replay.get(f"kernel.{s}_us", 0) > 0]
    values["serve.admission_us"] = statistics.mean(gaps) if gaps else 0.0

    def overhead(replayed, untraced):
        return 100.0 * (replayed - untraced) / untraced if untraced > 0 and replayed > 0 else 0.0

    values["trace.query_overhead_pct"] = overhead(values["replay.query_ms"],
                                                  values["service.query_p50_ms"])
    values["trace.write_overhead_pct"] = overhead(values["replay.write_ms"],
                                                  values["service.write_p50_ms"])
    report("per layer (counters: untraced run; times: traced replay)", values, PER_LAYER)
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return [(serve_ok, serve), (replay_ok, replay)], {
        k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    runs, metrics = (per_layer if args.trace else end_to_end)(exe, args)
    serve = runs[0][1]

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s")
    print(f"# host {json.dumps(serve['host'])}")
    print(f"# cc {serve['cc']}")
    backends = {r["backend"] for _, r in runs if "backend" in r}
    print(f"# backend {' '.join(sorted(backends))}")
    if backends != {"native"}:
        print("# WARNING: the native toolchain did not run every plan; "
              "do not compare this run with native runs")
    attempted = sum(int(r["attempted"]) for _, r in runs)
    failed = sum(int(r["failed"]) for _, r in runs)
    correct = failed == 0 and all(ok for ok, _ in runs)
    print(f"# failed_op_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
