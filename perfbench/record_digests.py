#!/usr/bin/env python3
"""Record the default seed's digests of every workload in digests.json.

Each digest (one per traffic sub-seed) comes from one
Experiment::run() of the workload's flat (unsharded) configuration, so
a timed run that reproduces it proves that sharding stayed
bit-identical, and a traced run that reproduces it proves that its
instrumented phase loop simulates what Experiment::run() does. Re-record only in
a change that alters simulated results on purpose, and say why.

Usage (from the checkout root): python3 perfbench/record_digests.py
"""

import json
import sys

import run

SEED = 1


def main():
    out = run.build()
    digests = {}
    for workload in run.WORKLOADS:
        record = run.run_binary(out, ["--workload", workload,
                                      "--seed", str(SEED),
                                      "--record", "1"])
        if (not record["invariants"] or record["failed"]
                or not all(record["digests"])):
            print(f"{workload}: reference run failed its checks",
                  file=sys.stderr)
            return 1
        digests[workload] = record["digests"]
        print(f"{workload}: {' '.join(digests[workload])}")
    run.DIGESTS.write_text(json.dumps({"seed": SEED, "digests": digests},
                                      indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
