#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The simulator library and the benchmark
program (perfbench/src) are built with CMake into $CARGO_TARGET_DIR (default
.bench_build). A run executes the workload's fixed set of instances, each
one process of stark_perfbench with a seed derived from --seed, in rounds:
another round starts while it still fits in --seconds. tenant_chaos and
memory_pressure run up to three instance processes at once, leaving one core
free. Instance 0 always runs untraced at least twice. The last line of
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 pairs every traced
instance run with an untraced one and reports the per-layer metrics, writing
the spans of instance 0 to .bench_out/<workload>.trace.json. The run exits
non-zero when an output check fails: a job check inside an instance, a digest
that differs between two untraced same-seed runs, or between a traced run
and its untraced pair. See perfbench/README.md for the metric definitions.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per workload: the number of instances, and how many instance processes
# may run at once. Each instance is a full independent simulation with its
# own derived seed. Several instances make the figures of one run steady
# across --seed values; the count is fixed so the simulated-clock figures
# are a function of --seed alone. One tenant_chaos instance's host time
# varies by about 40% (standard deviation / mean) with its seed, so that
# workload needs many instances, and side by side they fit the time a run
# has. A stream_steady instance reads memory heavily: copies side by side
# slowed each other by up to 1.7x and spread its wall_s five times wider
# than one at a time.
WORKLOADS = {
    "stream_steady": (1, 1),
    "tenant_chaos": (96, 3),
    "memory_pressure": (28, 3),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "tasks_per_s": "tasks/s",
    "peak_rss_mib": "MiB",
    "job_delay_p50_s": "s",
    "job_delay_tail_s": "s",
    "sim_makespan_s": "s",
    "jobs_completed_frac": "ratio",
}

LAYER_UNITS = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.live_events_p50": "count",
    "sim.queue_ns_per_op": "ns",
    "sched.submit_host_us_p50": "us",
    "sched.submit_host_us_p99": "us",
    "sched.submit_host_s": "s",
    "sched.stages": "count",
    "sched.stage_resubmits": "count",
    "sched.tasks_launched": "count",
    "sched.task_failures": "count",
    "sched.task_retries": "count",
    "sched.peak_pending_sets": "count",
    "sched.node_local_frac": "ratio",
    "sched.tenant_jain_index": "ratio",
    "sched.advisor_auto_frees": "count",
    "sched.advisor_auto_caches": "count",
    "sched.advisor_frees_protected": "count",
    "sched.advisor_freed_gib": "GiB",
    "cluster.block_inserts": "count",
    "cluster.block_evictions": "count",
    "cluster.block_hits": "count",
    "cluster.block_misses": "count",
    "cluster.block_hit_frac": "ratio",
    "cluster.recomputes_all": "count",
    "cluster.recomputed_gib": "GiB",
    "cluster.remote_hits": "count",
    "cluster.remote_demotions": "count",
    "cluster.remote_evictions_to_disk": "count",
    "cluster.remote_rejected_no_room": "count",
    "cluster.executors_lost": "count",
    "cluster.detection_latency_mean_s": "s",
    "phase.sched_delay_s": "s",
    "phase.compute_s": "s",
    "phase.deserialize_s": "s",
    "phase.gc_s": "s",
    "phase.shuffle_read_s": "s",
    "phase.disk_s": "s",
    "phase.remote_read_s": "s",
    "phase.overhead_s": "s",
    "rdd.build_host_us_p50": "us",
    "obs.trace_events": "count",
    "obs.trace_overhead_frac": "ratio",
}

# Per-layer ratios, percentiles and per-operation costs: the median over a
# workload's instances. Every other per-layer metric is a count, seconds or
# GiB and adds up across instances.
MEDIAN_OVER_INSTANCES = {
    "sim.host_ns_per_event", "sim.live_events_p50", "sim.queue_ns_per_op",
    "sched.submit_host_us_p50", "sched.submit_host_us_p99",
    "sched.peak_pending_sets", "sched.node_local_frac",
    "sched.tenant_jain_index", "cluster.block_hit_frac",
    "cluster.detection_latency_mean_s", "rdd.build_host_us_p50",
}

RUN_TIMEOUT_S = 120  # one instance process


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def instance_seed(seed, k):
    """Seed of instance k of a run with --seed `seed` (splitmix64 step)."""
    x = (seed + (k + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def build():
    """Configures and builds stark_perfbench; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isdir(build_dir):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    if subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "stark_perfbench")


def run_instance(binary, workload, seed, traced, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if trace_out:
            cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workers(workload):
    """Instance processes run at once: up to the workload's limit, leaving
    one core to the rest of the system."""
    limit = WORKLOADS[workload][1]
    return max(1, min(limit, len(os.sched_getaffinity(0)) - 1))


def run_rounds(binary, workload, seeds, seconds, traced):
    """Runs every instance once per round, workers(workload) processes at a
    time, each traced run paired with an untraced one; starts another round
    only while it fits in `seconds`. Returns per-instance lists of
    results."""
    def one(k, trace_out):
        rs = [run_instance(binary, workload, seeds[k], False)]
        if traced:
            rs.append(run_instance(binary, workload, seeds[k], True, trace_out))
        return rs

    runs = [[] for _ in seeds]
    start = time.monotonic()
    rounds = 0
    with concurrent.futures.ThreadPoolExecutor(workers(workload)) as pool:
        try:
            while True:
                round_start = time.monotonic()
                trace_out = None
                if traced and rounds == 0:
                    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
                    trace_out = os.path.join(ROOT, ".bench_out",
                                             f"{workload}.trace.json")
                futures = [pool.submit(one, k, trace_out if k == 0 else None)
                           for k in range(len(seeds))]
                for k, f in enumerate(futures):
                    runs[k].extend(f.result())
                rounds += 1
                now = time.monotonic()
                if now - start + (now - round_start) > seconds:
                    break
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    # The digest check needs two untraced runs of at least one instance.
    if sum(not r["traced"] for r in runs[0]) < 2:
        runs[0].append(run_instance(binary, workload, seeds[0], False))
    return runs


def check(workload, runs):
    """Output checks across runs; returns (jobs failing checks, problems)."""
    bad = 0
    problems = []
    for k, rs in enumerate(runs):
        for r in rs:
            if r["bad"] or not r["balanced"]:
                problems.append(f"{workload} seed {r['seed']}: {r['bad']} jobs "
                                f"failed checks, balanced={r['balanced']}: "
                                f"{r['messages']}")
        bad += max(r["bad"] for r in rs)
        digests = sorted({(r["traced"], r["digest"]) for r in rs})
        if len({d for _, d in digests}) != 1:
            problems.append(f"{workload} instance {k}: simulated outputs "
                            f"differ between same-seed runs "
                            f"(traced, digest): {digests}")
    return bad, problems


def per_instance(rs, key, traced=False):
    """Median of one instance's runs, untraced or traced."""
    return statistics.median(r[key] for r in rs if r["traced"] == traced)


def fastest(rs, traced=False):
    """Measured-phase time of one instance's least disturbed run. Its
    simulated work is identical in every round, so the spread between
    rounds is other load on the host."""
    return min(r["wall_s"] for r in rs if r["traced"] == traced)


def end_to_end(runs):
    first = [rs[0] for rs in runs]  # sim outputs are identical across rounds
    wall = sum(fastest(rs) for rs in runs)
    delays = sorted(d for r in first for d in r["delays"])
    q = first[0]["sim"]["tail_quantile"]
    return {
        "setup_s": sum(per_instance(rs, "setup_s") for rs in runs),
        "wall_s": wall,
        "tasks_per_s": sum(r["tasks"] for r in first) / wall,
        "peak_rss_mib": statistics.median(per_instance(rs, "peak_rss_mib")
                                          for rs in runs),
        "job_delay_p50_s": percentile(delays, 0.5),
        "job_delay_tail_s": percentile(delays, q),
        "sim_makespan_s": statistics.fmean(r["sim"]["sim_makespan_s"]
                                           for r in first),
        "jobs_completed_frac": (sum(r["completed"] for r in first) /
                                sum(r["submitted"] for r in first)),
    }


def percentile(sorted_xs, q):
    """Linear interpolation between closest ranks (stark::Distribution)."""
    if not sorted_xs:
        return 0.0
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def per_layer(runs):
    medians = []  # per instance, over its traced runs
    for rs in runs:
        traced = [r["layers"] for r in rs if r["traced"]]
        medians.append({k: statistics.median(t[k] for t in traced)
                        for k in traced[0]})
    out = {}
    for name in medians[0]:
        values = [inst[name] for inst in medians]
        out[name] = (statistics.median(values)
                     if name in MEDIAN_OVER_INSTANCES else sum(values))
    out["obs.trace_overhead_frac"] = (
        sum(fastest(rs, True) for rs in runs) /
        sum(fastest(rs) for rs in runs) - 1.0)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # On SIGTERM, unwind so that run_rounds waits for its running instances.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    seeds = [instance_seed(args.seed, k)
             for k in range(WORKLOADS[args.workload][0])]
    traced = args.trace == 1
    try:
        runs = run_rounds(binary, args.workload, seeds, args.seconds, traced)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError,
            KeyError, IndexError) as e:
        log(f"instance run failed: {e}")
        return 1
    failed, problems = check(args.workload, runs)
    for p in problems:
        log(f"output check failed: {p}")
    for rs in runs:
        r = rs[0]
        log(f"{args.workload} seed {r['seed']}: digest {r['digest']} "
            f"jobs {r['submitted']} completed {r['completed']} runs {len(rs)}")

    values = per_layer(runs) if traced else end_to_end(runs)
    units = LAYER_UNITS if traced else END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rs[0]["submitted"] for rs in runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
