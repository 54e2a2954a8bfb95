#!/usr/bin/env python3
"""Does the benchmark agree with itself?

Runs two sets of the same code (a set: ``run.RUNS`` untraced runs of every
workload, round-robin, the median per metric) and prints, per workload and
metric, both values, their relative difference and the metric's bound from
BENCHMARK.json.  Then shows that the counts are a pure function of the
seed: with ``--ops`` fixing the work, two runs of seed 2 must agree to the
last digit on every count, and differ from seed 1.

Exits non-zero if a metric differs between the sets by more than its
bound, or a count differs at all between the two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

#: main-phase operations for the fixed-work runs; ``growth`` runs on until
#: the file has left its tail window whatever the number
FIXED_OPS = {
    "steady": 40_000, "observed": 40_000, "bulk": 131_072,
    "growth": 1, "durable": 4_000, "recovery": 1_200,
}
COUNTS = ("msgs_per_op", "wire_bytes_per_op", "storage_overhead")


def medians(names: list[str], args: argparse.Namespace) -> dict[str, dict[str, float]]:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(run.RUNS):
        for name in names:
            result = run.child(name, args, trace=0)
            if not result["correct"]:
                sys.exit(f"{name}: a run gave wrong answers or died")
            runs[name].append(result["metrics"])
    return {
        name: {
            metric: statistics.median(r[metric]["value"] for r in results)
            for metric in results[0]
        }
        for name, results in runs.items()
    }


def counts(name: str, seed: int, args: argparse.Namespace) -> tuple:
    fixed = argparse.Namespace(**{**vars(args), "seed": seed, "ops": FIXED_OPS[name]})
    result = run.child(name, fixed, trace=0)
    # not ``attempted``: the availability probe is boxed in time, so how
    # many operations it gets to varies
    return (result["failed"], *(result["metrics"][m]["value"] for m in COUNTS))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(
        seed=1, seconds=spec["run_seconds"], ops=0, scale=1.0,
    )
    names = [w["name"] for w in spec["workloads"]]

    first, second = medians(names, args), medians(names, args)
    beyond = []
    for name in names:
        print(f"\n== {name}")
        for m in spec["end_to_end"]:
            a, b = first[name][m["name"]], second[name][m["name"]]
            gap = abs(a - b) / min(a, b)
            flag = "" if gap <= m["bound"] else "  BEYOND ITS BOUND"
            print(f"  {m['name']:<24}{a:>14.6g}{b:>14.6g} {m['unit']:<6}"
                  f"{gap:>8.2%} of {m['bound']:.0%}{flag}")
            if flag:
                beyond.append((name, m["name"]))

    print("\n== counts with the work fixed: seed 1, seed 2, seed 2 again")
    print(f"  {'':<10}(failed, {', '.join(COUNTS)})")
    unequal = []
    for name in names:
        one, two, again = (counts(name, seed, args) for seed in (1, 2, 2))
        print(f"  {name:<10}{one}\n  {'':<10}{two}\n  {'':<10}{again}")
        if two != again or one == two:
            unequal.append(name)

    for name, metric in beyond:
        print(f"FAILED: {name} {metric} differs between the sets beyond its bound")
    for name in unequal:
        print(f"FAILED: {name}: counts are not a pure function of the seed")
    return 1 if beyond or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
