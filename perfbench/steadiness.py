#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and reports,
for every end-to-end metric, the median and the spread (distance between
the first and third quartile as a share of the median, by
statistics.quantiles(values, n=4)) against the metric's bound.

    python3 perfbench/steadiness.py --workloads session_long --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10             # every workload
    python3 perfbench/steadiness.py --workloads adapt_mail --seeds 1,1,1,7,7,7

With --compare A,B the median of seed A's runs is compared with that of
seed B (held out) against each metric's bound. Run from the root of the
repository. Raw results go to .bench_run/steadiness.jsonl.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, time.time() - started, proc.stdout


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def summarise(label, results, bounds):
    print(f"  {label}")
    ok = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        s = spread(values)
        verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
        if s > bound:
            ok = False
        print(f"    {name:<14} median {statistics.median(values):>14.4f}  "
              f"spread {s:6.3f}  bound {bound:.2f}  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(".bench_run", exist_ok=True)
    log = open(".bench_run/steadiness.jsonl", "a")
    all_ok = True
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            code, result, took, out = run_once(spec, workload, seed, seconds, args.trace)
            log.write(json.dumps({"workload": workload, "seed": seed, "exit": code,
                                  "seconds": took, "result": result}) + "\n")
            log.flush()
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, result {result}")
                print(out[-2000:])
                all_ok = False
                continue
            runs.append((seed, result))
            stolen = re.search(r"([0-9.]+)% of CPU time stolen", out)
            stolen = f"{stolen.group(1)}% stolen" if stolen else "steal unknown"
            print(f"{workload} seed {seed}: {took:.1f} s, {stolen}, " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        if args.trace:
            continue
        print(f"{workload}: {len(runs)} runs")
        all_ok &= summarise("all seeds", [r for _, r in runs], bounds)
        if args.compare:
            # Too few runs per seed for quartiles: compare the medians.
            a, b = (int(x) for x in args.compare.split(","))
            ra = [r for s, r in runs if s == a]
            rb = [r for s, r in runs if s == b]
            for name, bound in bounds.items():
                ma = statistics.median(r["metrics"][name]["value"] for r in ra)
                mb = statistics.median(r["metrics"][name]["value"] for r in rb)
                diff = abs(mb - ma) / ma if ma else float("inf")
                verdict = "agree" if diff <= bound else "DISAGREE"
                if diff > bound:
                    all_ok = False
                print(f"    {name:<14} seed {a} {ma:.4g} vs seed {b} {mb:.4g}: "
                      f"{diff:.3f} of bound {bound:.2f} {verdict}")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
