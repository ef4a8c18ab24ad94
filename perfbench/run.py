#!/usr/bin/env python3
"""Host-time benchmark of the HPMP simulator: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_sim (and the simulator libraries it links) from this
checkout into .bench_build/ on first use, runs it, checks its
deterministic work counts against perfbench/goldens.json, and prints,
as the last line of stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

With --trace 0 the metrics are the end-to-end ones, pooled over five
processes that each serve S/5 seconds (host speed shifts from process
to process on shared machines, so one process is one noisy sample);
with --trace 1 they are the per-layer ones from one process that
serves S/5 seconds untraced, then S/5 seconds traced. Names and units
come from BENCHMARK.json (see perfbench/README.md).
--update-goldens rewrites this workload's goldens from the run instead
of checking them (only at the default seed).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gap_hit", "redis_walk", "virt_walk", "fleet_switch")
PROCESSES = 5  # untraced processes per run
GOLDENS = os.path.join(HERE, "goldens.json")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build perfbench_sim; return its path."""
    build_dir = os.path.join(ROOT, ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_sim", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench_sim")


def check_goldens(workload, seed, counts, update):
    """Return (checked, mismatches) against the committed goldens."""
    goldens = load_json(GOLDENS)
    if workload not in goldens["seed_independent"] and \
            seed != goldens["default_seed"]:
        return 0, []
    if update:
        goldens["counts"][workload] = counts
        with open(GOLDENS, "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")
        log("perfbench: goldens updated for " + workload)
        return 0, []
    want = goldens["counts"].get(workload, {})
    bad = []
    for name in sorted(set(want) | set(counts)):
        if name not in want or name not in counts or not math.isclose(
                want[name], counts[name], rel_tol=1e-9, abs_tol=1e-12):
            bad.append("%s: got %r, golden %r" % (name, counts.get(name),
                                                  want.get(name)))
    return len(want), bad


def run_sim(binary, workload, seed, seconds, trace):
    """Run perfbench_sim once; echo its log lines, return its result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=120 + 4 * seconds)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        log("perfbench: perfbench_sim exited with %d" % proc.returncode)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def quantile(values, p):
    """Nearest-rank p-quantile, as perfbench_sim computes it."""
    v = sorted(values)
    return v[min(len(v) - 1, int(p * len(v)))]


def pool(raws):
    """End-to-end metrics over the processes of one untraced run.

    The host's neighbours slow some blocks and not others, and how many
    changes from run to run, so a median moves with them. Each host time
    is read at the slow tail instead, where one sample in ten lies
    beyond: throughput is the 10th percentile of the 0.2 s block rates,
    set-up time the 90th percentile of the set-ups, and request_us_p90
    the 90th percentile over the blocks of each block's p90 request
    time.
    """
    def pooled(key):
        return [v for r in raws for v in r[key]]

    log("perfbench: %d requests in %d blocks" %
        (sum(r["requests"] for r in raws), len(pooled("block_rates"))))
    return {
        "ops_per_s": quantile(pooled("block_rates"), 0.10),
        "setup_s": quantile(pooled("setups_s"), 0.90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in raws),
        "request_us_p90": quantile(pooled("block_p90_us"), 0.90),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-goldens", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    raws = []
    for _ in range(1 if args.trace else PROCESSES):
        raw = run_sim(binary, args.workload, args.seed,
                      args.seconds / PROCESSES, args.trace)
        if raw is None:
            return 1
        raws.append(raw)

    attempted = failed = 0
    for raw in raws:
        checked, bad = check_goldens(args.workload, args.seed,
                                     raw["counts"], args.update_goldens)
        for b in bad:
            print("GOLDEN MISMATCH " + b)
        attempted += raw["attempted"] + checked
        failed += raw["failed"] + len(bad)

    if args.trace:
        values = dict(raws[0]["counts"], **raws[0]["layers"])
    else:
        values = pool(raws)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        if m["name"] not in values:
            log("perfbench: metric %s was not reported" % m["name"])
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
