#!/usr/bin/env python3
"""Steadiness check for the host-time benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--record]

Runs each workload --runs times through run.py, each time with another
seed, and reports for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. Fails if any run is incorrect, or if a spread
exceeds the metric's bound in BENCHMARK.json. --record writes the
table to perfbench/spreads.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    if out.returncode or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    ok = True
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    table = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, bench["run_seconds"])
            if res is None or not res["correct"] or res["failed"]:
                print("%s seed %d: run failed or incorrect" %
                      (w, args.first_seed + i))
                ok = False
                continue
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        table[w] = {}
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bad = spread > m["bound"]
            ok = ok and not bad
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": round(spread, 4),
                                   "bound": m["bound"], "runs": len(v)}
            print("%-13s %-15s median %12.4g  q1 %12.4g  q3 %12.4g  "
                  "spread %6.3f  bound %.2f%s" %
                  (w, m["name"], med, q1, q3, spread, m["bound"],
                   "  OVER" if bad else ""), flush=True)

    if args.record:
        with open(os.path.join(HERE, "spreads.json"), "w") as f:
            json.dump({"runs": args.runs, "run_seconds": bench["run_seconds"],
                       "workloads": table}, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
