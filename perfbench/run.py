#!/usr/bin/env python3
"""Host-performance benchmark of the mdworm simulator.

Builds the simulator and the benchmark binary from source (into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root),
runs the decorator test, runs one workload and checks its outputs.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. The exit code is nonzero when a
correctness check fails: a message failed, a run broke an invariant,
repetitions of a traffic sub-seed disagreed, or the default seed's
digests differ from the ones recorded in digests.json.

Usage (from the checkout root):
    python3 perfbench/run.py --workload contended64 --seed 1 \\
        --seconds 25 --trace 0

--workload all runs every workload in turn, each printing its own
result line.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("contended64", "sparse256", "ib_bimodal", "sharded1024")
# Units of metrics measured in host time, and the host-time ratios;
# unresolved when the host cannot run the sharded workload's shards
# concurrently.
HOST_TIME_UNITS = ("s", "ms", "ns", "1/s", "flits/s")
HOST_TIME_RATIOS = ("trace_overhead_frac", "sim.shard.imbalance",
                    "sim.shard.parallel_frac")
# A run never takes longer than this, builds excluded.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def clean_env():
    """The environment without the simulator's MDW_* overrides, which
    would change the scheduler under test."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MDW_")}


def build():
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources missing under {ROOT}")
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=clean_env())
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, env=clean_env())
    return out


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_binary(out, args):
    """Run mdw_perfbench; pass its human lines through to stdout and
    return its JSON record (the last line)."""
    proc = subprocess.run([str(out / "mdw_perfbench")] + args,
                          capture_output=True, text=True, env=clean_env(),
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"mdw_perfbench exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def decorator_test_passes(out):
    proc = subprocess.run([str(out / "timed_workload_test")],
                          capture_output=True, text=True, env=clean_env(),
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stdout)
    return proc.returncode == 0


def check(record, decorator_ok):
    """Correctness verdict of one record, with the reasons it failed."""
    problems = []
    if not decorator_ok:
        problems.append("timed_workload_test failed")
    if not record["invariants"]:
        problems.append("a run broke an invariant (drain, watchdog, "
                        "quiescence or posted == delivered + partial)")
    if record["failed"] != 0:
        problems.append(f"{record['failed']} messages failed")
    if not record["repeatable"]:
        problems.append("repetitions of a traffic sub-seed disagree")
    ref = json.loads(DIGESTS.read_text())
    if record["seed"] == ref["seed"]:
        want = ref["digests"][record["workload"]]
        got = record["digests"]
        # A traced run may not reach every sub-seed.
        if len(got) != len(want) or any(
                g and g != w for g, w in zip(got, want)):
            problems.append(f"digests {got} != recorded {want} for "
                            f"seed {ref['seed']}")
    return problems


def run_workload(out, workload, args, wanted, decorator_ok):
    """Run one workload and print its result; True if it is correct."""
    record = run_binary(out, [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", commit_id()])
    host = record["host"]
    print(f"# host: nproc={host['nproc']} hardware_concurrency="
          f"{host['hardware_concurrency']} compiler={host['compiler']} "
          f"build={host['build_type']} commit={host['commit']}")
    print(f"# {workload} seed={args.seed} reps={record['reps']} "
          f"digests={','.join(record['digests'])}")
    problems = check(record, decorator_ok)
    for p in problems:
        print(f"# FAIL {p}")

    metrics = {}
    for m in wanted:
        name = m["name"]
        got = record["metrics"][name]
        value = got["value"]
        if not host["host_time_resolved"] and (
                got["unit"] in HOST_TIME_UNITS or name in HOST_TIME_RATIOS):
            print(f"# {name} unresolved: fewer hardware threads than "
                  "shards")
            value = None
        metrics[name] = {"value": value, "unit": got["unit"]}
    print(json.dumps({"correct": not problems,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        out = build()
        decorator_ok = decorator_test_passes(out)
        results = [run_workload(out, w, args, wanted, decorator_ok)
                   for w in workloads]
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 1
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
