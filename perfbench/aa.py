#!/usr/bin/env python3
"""A/A steadiness runner: is the benchmark quieter than its own bounds?

    python3 perfbench/aa.py --rounds 10 --seconds 20
    python3 perfbench/aa.py --rounds 5 --workloads daemon-mix

Runs every workload `--rounds` times through perfbench/run.py, each
round on a new seed and in the opposite workload order to the last.
Each round runs the workload twice, as set A (seed 100 + round) and set
B (seed 1100 + round), in alternating order, so the two sets are two
independent measurements of the same code on different seeds.

Per workload and end-to-end metric it prints the median and quartiles
(statistics.quantiles, n=4), the quartile spread as a share of the
median, and the metric's bound from BENCHMARK.json.  A spread above the
bound, set medians that differ by more than the bound in either
direction, or any run with failed jobs makes the exit status 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 100
SET_B_OFFSET = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",")] if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    sets = "AB"

    values = {(s, w): {m["name"]: [] for m in metrics}
              for s in sets for w in workloads}
    bad_runs = 0
    for r in range(args.rounds):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            for s in (sets if r % 2 == 0 else sets[::-1]):
                seed = SEED_BASE + r + (SET_B_OFFSET if s == "B" else 0)
                res = run_once(w, seed, seconds)
                ok = res is not None and res["correct"] and res["failed"] == 0
                bad_runs += 0 if ok else 1
                print("round %d set %s %-11s seed %d: %s" % (
                    r, s, w, seed,
                    "FAILED" if not ok else " ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in res["metrics"].items())), flush=True)
                if res is not None:
                    for m in metrics:
                        values[(s, w)][m["name"]].append(
                            res["metrics"][m["name"]]["value"])

    failed = bad_runs > 0
    print()
    print("%-11s %-12s %3s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "bound", "verdict"))
    for w in workloads:
        for m in metrics:
            meds = {}
            for s in sets:
                v = values[(s, w)][m["name"]]
                if not v:
                    continue
                q1, med, q3 = quartiles(v)
                meds[s] = med
                spread = (q3 - q1) / med if med else 0.0
                verdict = ("ok" if spread <= m["bound"] / 3 else
                           "noisy" if spread <= m["bound"] else "TOO NOISY")
                failed |= spread > m["bound"]
                print("%-11s %-12s %3s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s"
                      % (w, m["name"], s, q1, med, q3, 100 * spread,
                         100 * m["bound"], verdict))
            if len(meds) == 2:
                d = (meds["B"] - meds["A"]) / meds["A"] if meds["A"] else 0.0
                agree = abs(d) <= m["bound"]
                failed |= not agree
                print("%-11s %-12s B vs A: %+.2f%% %s" % (
                    w, m["name"], 100 * d, "agree" if agree else "DISAGREE"))
    if bad_runs:
        print("%d run(s) failed or reported failed jobs" % bad_runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
