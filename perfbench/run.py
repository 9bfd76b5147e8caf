#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload mesh16_2pc --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). Each run first rebuilds the program's libraries from ../src and the
two benchmark binaries into .bench_build/perfbench; if any source file
changed since the last build, the build directory is wiped first, so a run
never measures a stale library.

--trace 0 runs the untraced binary for --seconds and reports the end-to-end
metrics. --trace 1 runs the untraced and the traced binary for half of
--seconds each, checks that both simulated the same history, and reports the
per-layer metrics, including the tracing overhead (traced minus untraced
host wall time per committed transaction).

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}. A failed output check prints the reason to standard error, no
result, and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mesh16_2pc", "bank1_tcp", "storm3_2pc")
RUN_TIMEOUT_S = 170

# name -> unit, in the order they are printed.
END_TO_END = {
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "committed_per_sim_s": "txn/s",
    "commit_ratio": "fraction",
    "host_wall_us_per_txn": "us",
    "host_cpu_us_per_txn": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("sim", "net", "os", "storage", "discprocess", "audit", "tmf",
          "encompass")
SPAN_METRICS = {}
for _layer in LAYERS:
    SPAN_METRICS[_layer + ".self_us_per_txn"] = "us"
    SPAN_METRICS[_layer + ".calls_per_txn"] = "count"
    SPAN_METRICS[_layer + ".allocs_per_txn"] = "count"
COUNT_METRICS = {
    "sim.events_per_txn": "count",
    "net.sends_per_txn": "count",
    "net.route_hops_per_send": "count",
    "net.route_cache_hit_ratio": "fraction",
    "net.retransmits_per_txn": "count",
    "os.checkpoints_per_txn": "count",
    "os.bus_msgs_per_txn": "count",
    "os.call_retries_per_txn": "count",
    "os.takeovers": "count",
    "storage.cache_hit_ratio": "fraction",
    "storage.reads_per_txn": "count",
    "storage.physical_reads_per_txn": "count",
    "storage.physical_writes_per_txn": "count",
    "discprocess.ops_per_txn": "count",
    "discprocess.ckpt_messages_per_txn": "count",
    "discprocess.lock_waits_per_txn": "count",
    "discprocess.lock_wait_p50_ms": "ms",
    "discprocess.lock_wait_p99_ms": "ms",
    "discprocess.lock_aborts_per_txn": "count",
    "audit.forces_per_txn": "count",
    "audit.appends_per_txn": "count",
    "audit.group_commit_size_p50": "count",
    "tmf.phase1_sent_per_txn": "count",
    "tmf.mat_forces_per_txn": "count",
    "tmf.state_broadcasts_per_txn": "count",
    "tmf.safe_queued_per_txn": "count",
    "tmf.indoubt_blocked_on_home": "count",
    "tmf.indoubt_at_recovery": "count",
    "tmf.recovery_negotiations": "count",
    "tmf.rollforward_redo_applied": "count",
    "tmf.commit_latency_n": "count",
    "encompass.txn_restarts_per_txn": "count",
}
HOST_LAYER_METRICS = {
    "sim.host_ns_per_event": "ns",
    "trace.overhead_us_per_txn": "us",
    "trace.self_sum_share": "fraction",
}
PER_LAYER = {**SPAN_METRICS, **COUNT_METRICS, **HOST_LAYER_METRICS}
# Per-layer self times must add up to the traced wall time this closely.
SELF_SUM_TOLERANCE = 0.03


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-1 over every file the build reads: ../src and the C++ sources and
    CMakeLists.txt of this directory."""
    h = hashlib.sha1()
    paths = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(dirpath, name) for name in filenames]
    paths += [os.path.join(HERE, name) for name in os.listdir(HERE)
              if name.endswith((".cc", ".h", ".txt"))]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources at %s/src" % ROOT)
    digest = source_digest()
    stamp = os.path.join(BUILD, "source.sha1")
    previous = None
    if os.path.isfile(stamp):
        with open(stamp) as f:
            previous = f.read().strip()
    if previous != digest and os.path.isdir(BUILD):
        log("sources changed since the last build; rebuilding from scratch")
        shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "perfbench", "perfbench_traced"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return digest


def run_binary(name, workload, seed, seconds):
    cmd = [os.path.join(BUILD, name), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % name)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise BenchError("%s: output check failed: %s" %
                         (name, result.get("error", "exit %d" % done.returncode)))
    return result


def git_revision():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def measure(args, workload, digest):
    if args.trace == 0:
        runs = {"untraced": run_binary("perfbench", workload, args.seed,
                                       args.seconds)}
        source = runs["untraced"]["e2e"]
        metrics = {k: source[k] for k in END_TO_END}
        units = END_TO_END
    else:
        half = args.seconds / 2
        runs = {"untraced": run_binary("perfbench", workload, args.seed,
                                       half),
                "traced": run_binary("perfbench_traced", workload, args.seed,
                                     half)}
        plain, traced = runs["untraced"], runs["traced"]
        if plain["fingerprint"] != traced["fingerprint"]:
            raise BenchError("traced run simulated a different history")
        if plain["counts"] != traced["counts"]:
            raise BenchError("traced run changed the per-layer counts")
        share = traced["spans"]["trace.self_sum_share"]
        if abs(share - 1) > SELF_SUM_TOLERANCE:
            raise BenchError("layer self times sum to %.4f of the traced wall "
                             "time" % share)
        metrics = dict(plain["counts"])
        metrics.update({k: v for k, v in traced["spans"].items()
                        if k in SPAN_METRICS})
        metrics["sim.host_ns_per_event"] = plain["e2e"]["sim.host_ns_per_event"]
        metrics["trace.overhead_us_per_txn"] = (
            traced["e2e"]["host_wall_us_per_txn"] -
            plain["e2e"]["host_wall_us_per_txn"])
        metrics["trace.self_sum_share"] = share
        units = PER_LAYER
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError("metrics missing from the run: " + ", ".join(missing))
    first = runs["untraced"]
    context = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "git_rev": git_revision(),
        "source_sha1": digest,
        "runs": {name: {k: r[k] for k in ("repetitions", "timed_passes",
                                          "setup_samples", "fingerprint")}
                 for name, r in runs.items()},
    }
    print(json.dumps({"context": context}))
    return {
        "correct": True,
        "attempted": int(first["attempted"]),
        "failed": int(first["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        digest = build()
        for workload in workloads:
            result = measure(args, workload, digest)
            if args.workload == "all":
                result = {"workload": workload, **result}
            print(json.dumps(result), flush=True)
    except (BenchError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
