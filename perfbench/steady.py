#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly and reports each metric's spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--sets 1|2]

Each run uses another seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median next
to the metric's bound from BENCHMARK.json. With --sets 2 it runs a second
set with the same seeds and prints how far the second median moved from
the first, in the worse direction, against the same bound. It also checks
that the share of failed operations is the same in every run. Exits
non-zero if a run fails, a failed share differs, or an end-to-end spread
(setup_s excepted) or median drift exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def run_set(workload, seeds, seconds, trace):
    results = []
    for seed in seeds:
        res = run_once(workload, seed, seconds, trace)
        results.append(res)
        print(f"  {workload} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
              file=sys.stderr)
    return results


def summarize(results):
    names = list(results[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (statistics.median(values), q1, q3, results[0]["metrics"][name]["unit"])
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bound = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    for workload in args.workloads.split(","):
        sets = [run_set(workload, seeds, args.seconds, args.trace) for _ in range(args.sets)]
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) != 1:
            ok = False
        print(f"{workload}: {args.runs} runs x {args.sets} set(s) of {args.seconds} s, "
              f"seeds {seeds[0]}..{seeds[-1]}, failed share {sorted(shares)}")
        first = summarize(sets[0])
        second = summarize(sets[1]) if args.sets == 2 else None
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}" + (f" {'drift':>8}" if second else ""))
        for name, (med, q1, q3, unit) in first.items():
            spread = (q3 - q1) / med if med else 0.0
            b = bound.get(name)
            line = (f"  {name:<26} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                    f"{b if b is not None else '-':>6}")
            if b is not None and name != "setup_s" and spread > b:
                ok = False
                line += "  SPREAD > BOUND"
            if second:
                med2 = second[name][0]
                worse = (med2 - med) if better[name] == "lower" else (med - med2)
                drift = worse / med if med else 0.0
                line += f" {drift:8.4f}"
                if b is not None and drift > b:
                    ok = False
                    line += "  DRIFT > BOUND"
            print(line + f"  {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
