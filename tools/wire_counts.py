#!/usr/bin/env python3
"""Pin the paper's own metric: messages and bytes per operation.

The source paper prices every operation in messages, and the north star
says ``msgs_per_op``, ``wire_bytes_per_op`` and ``storage_overhead``
"must not move".  At a fixed ``--seed``, ``--ops`` and ``--scale`` the
end-to-end benchmark's counts repeat to the last digit, so this script
runs its six workloads through the unmodified ``benchmarks/e2e/run.py``
and compares those three metrics with the values pinned in
``tools/wire_counts.json`` — exactly, not within a bound.  A change that
moves a count either has a bug in its size or message accounting, or
changes a wire shape on purpose and re-pins with ``--update``.

Usage::

    python tools/wire_counts.py            # compare; exit 1 on any drift
    python tools/wire_counts.py --update   # re-pin, deliberately
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = Path(__file__).with_suffix(".json")
METRICS = ("msgs_per_op", "wire_bytes_per_op", "storage_overhead")
#: Sizes at which the six workloads take under a minute together and
#: still split, batch, checkpoint, restart and rebuild.  ``--seconds``
#: only bounds the availability probe that follows the counted phase.
SETTINGS = ["--seed", "7", "--ops", "12000", "--scale", "0.3",
            "--seconds", "0.4", "--trace", "0"]


def measure() -> dict[str, dict[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
             "--workload", workload, *SETTINGS],
            stdout=subprocess.PIPE, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},  # as run.py's suite
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload}: {result['failed']} wrong answers")
        counts[workload] = {
            name: result["metrics"][name]["value"] for name in METRICS
        }
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="write the measured counts as the new pin")
    args = parser.parse_args(argv)
    counts = measure()
    if args.update:
        PIN.write_text(json.dumps(
            {"settings": SETTINGS, "counts": counts}, indent=1) + "\n")
        print(f"pinned {len(counts)} workloads in {PIN.name}")
        return 0
    pinned = json.loads(PIN.read_text())
    if pinned["settings"] != SETTINGS:
        sys.exit(f"{PIN.name} was pinned at other settings: re-pin it")
    drift = [
        f"{workload}/{name}: {counts[workload][name]!r} "
        f"(pinned {pinned['counts'][workload][name]!r})"
        for workload in counts for name in METRICS
        if counts[workload][name] != pinned["counts"][workload][name]
    ]
    for line in drift:
        print(f"MOVED  {line}", file=sys.stderr)
    print(f"{len(counts) * len(METRICS) - len(drift)} of "
          f"{len(counts) * len(METRICS)} counts equal to the pin")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
