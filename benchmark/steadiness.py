#!/usr/bin/env python3
"""Steadiness record: two sets of runs of one build, in alternation.

    python3 benchmark/steadiness.py

Runs the command in BENCHMARK.json for its run_seconds on each of its
workloads, 10 runs per set. For each workload, run i of set A and run i
of set B both use seed i, and the runs go A1 B1 A2 B2 ... so that drift
of the host falls on both sets alike. For every end-to-end metric the
script prints each set's median and quartiles (Python's
statistics.quantiles, n=4), the spread (interquartile distance over the
median) and how far B's median is from A's. It also checks that both
sets printed the same simulated digest for every seed, and writes every
run's figures to benchmark/out/steadiness.json. Run it from the
repository root.
"""

import json
import os
import statistics
import subprocess
import sys

RUNS = 10
OUT = "benchmark/out/steadiness.json"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next((l.split("digest ")[1] for l in lines if "digest " in l), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    for w in workloads:
        sets = {"A": [], "B": []}
        for seed in range(1, RUNS + 1):
            for name in ("A", "B"):
                metrics, digest = run_once(command, w, seed, seconds)
                sets[name].append({"seed": seed, "digest": digest, **metrics})
                print(f"{w} set {name} seed {seed}: {digest} {metrics}", file=sys.stderr, flush=True)
        raw[w] = sets
        same = all(a["digest"] == b["digest"] for a, b in zip(sets["A"], sets["B"]))
        print(f"\n### {w}\n")
        print(f"Simulated digests equal in both sets for every seed: {'yes' if same else 'NO'}.\n")
        print("| metric | bound | A median | A q1–q3 | A spread | B median | B q1–q3 | B spread | B vs A |")
        print("|---|---|---|---|---|---|---|---|---|")
        for metric, bound in bounds.items():
            a = summary([r[metric] for r in sets["A"]])
            b = summary([r[metric] for r in sets["B"]])
            print(f"| `{metric}` | {bound} | {a[0]:.6g} | {a[1]:.6g}–{a[2]:.6g} | {a[3]:.3f} "
                  f"| {b[0]:.6g} | {b[1]:.6g}–{b[2]:.6g} | {b[3]:.3f} | {b[0] / a[0] - 1:+.3f} |")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
