#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady enough for
their bounds.

Runs two sets of ten untraced runs of every workload in
BENCHMARK.json (seeds 1 to 10 in each set) through run.py, exactly as
a caller of the benchmark would, and prints for each workload and
end-to-end metric each set's median and quartiles, the spread
(interquartile range over median), the bound from BENCHMARK.json and
how far the second set's median is worse than the first set's. A
metric is steady when its spread is below a third of its bound. Exits
1 if any spread exceeds its bound or the second median is worse than
the first by more than the bound.

Usage (from the checkout root):
    python3 perfbench/steadiness.py [--workloads sparse256,sharded1024]

--workloads re-checks other workloads than BENCHMARK.json's, such as
the ungated ones, against the same bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

SETS = 2
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, later, better):
    """Share of @p first by which @p later is worse (negative: better)."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated (default: BENCHMARK.json's)")
    args = parser.parse_args()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                runs.append(one_run(workload, seed, seconds))
                print(f"# {workload} set {s + 1} seed {seed}: "
                      f"cycles_per_s={runs[-1]['cycles_per_s']:.1f}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"  {'metric':<22} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'bound':>6} {'worse':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[name] for r in runs])
                if first_median is None:
                    first_median = med
                drift = worse_by(first_median, med, m["better"])
                verdict = "steady"
                if spread > bound:
                    verdict, ok = "SPREAD > BOUND", False
                elif spread >= bound / 3:
                    verdict = "spread >= bound/3"
                if drift > bound:
                    verdict, ok = "DRIFT > BOUND", False
                print(f"  {name:<22} {s + 1:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>7.4f} {bound:>6.3f} "
                      f"{drift:>+7.4f}  {verdict}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
