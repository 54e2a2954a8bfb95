"""E20 — bulk data-plane throughput: emits BENCH_throughput.json.

Times the scalar one-message-per-record client loop against the batch
plane (``*_many`` → one ``ops.batch`` per addressed bucket → vectorized
bulk apply → one coalesced ``parity.batch`` per parity target) on the
same workloads.  ``batch`` is the wire granularity: ``batch_max_ops``,
the number of ops one ``ops.batch`` message may carry — the whole
workload goes through one ``*_many`` call per repetition.  Measured:

* **ops/s** — end-to-end operations per wall-clock second through the
  full simulated stack (client, network, bucket, parity);
* **msgs/op** — protocol messages per operation, the papers' cost
  metric, counted by the network's own :class:`MessageStats`.

Both arms produce byte-identical files (pinned by
``tests/core/test_batch_ops.py``); this harness only measures.

Usage::

    PYTHONPATH=src python benchmarks/bench_e20_bulk.py           # full grid
    PYTHONPATH=src python benchmarks/bench_e20_bulk.py --smoke   # CI gate

The acceptance gates this PR ships with (insert, m=4, k=2, batch=64):
≥ 5× ops/s and ≤ 0.25× messages/op versus the scalar loop.  Results
land in ``BENCH_throughput.json`` at the repo root (``--output``
overrides).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import LHRSConfig, LHRSFile

REPO_ROOT = Path(__file__).resolve().parent.parent


def _best_of(fn, repeats: int) -> tuple[float, dict]:
    """Best wall time over ``repeats`` fresh runs, plus the last stats."""
    best, stats = float("inf"), {}
    for _ in range(repeats):
        start = time.perf_counter()
        stats = fn()
        best = min(best, time.perf_counter() - start)
    return best, stats


def _config(m: int, k: int, capacity: int, max_ops: int = 1024) -> LHRSConfig:
    return LHRSConfig(
        group_size=m,
        availability=k,
        bucket_capacity=capacity,
        batch_max_ops=max_ops,
    )


def _items(count: int, size: int = 64, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    keys = [int(k) for k in rng.choice(10 ** 9, size=count, replace=False)]
    return [(k, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            for k in keys]


def _preload(file: LHRSFile, items) -> None:
    """Seed records without touching the measured arm's counters."""
    out = file.insert_many(items)
    assert out.ok
    file.stats.reset()


def bench_ops(kind, m, k, batch, count, capacity, repeats) -> dict:
    """One (kind, shape, batch-size) cell: scalar arm vs batch arm."""
    items = _items(count)
    updated = [(key, value[::-1]) for key, value in items]
    keys = [key for key, _ in items]

    def run(batched: bool):
        def arm():
            file = LHRSFile(_config(m, k, capacity, max_ops=batch))
            if kind != "insert":
                _preload(file, items)
            if kind == "insert":
                work, many = items, file.insert_many
            elif kind == "update":
                work, many = updated, file.update_many
            else:
                work, many = keys, file.search_many
            if batched:
                out = many(work)
                assert out.ok
            else:
                for op in work:
                    if kind == "insert":
                        file.insert(*op)
                    elif kind == "update":
                        file.update(*op)
                    else:
                        file.search(op)
            return {"messages": file.stats.total.messages}

        return _best_of(arm, repeats)

    scalar_s, scalar_stats = run(False)
    batched_s, batched_stats = run(True)
    scalar_mpo = scalar_stats["messages"] / count
    batched_mpo = batched_stats["messages"] / count
    return {
        "kind": kind,
        "m": m,
        "k": k,
        "batch": batch,
        "count": count,
        "scalar_ops_per_s": count / scalar_s,
        "batched_ops_per_s": count / batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_msgs_per_op": scalar_mpo,
        "batched_msgs_per_op": batched_mpo,
        "msg_ratio": batched_mpo / scalar_mpo,
    }


def bench_growth(m, k, batch, count, repeats) -> dict:
    """Bulk load into a small-capacity file: splits land mid-batch, the
    re-binning rounds and coalesced structural parity all on the hot
    path.  Reported, not gated — restructuring work dominates."""
    items = _items(count)

    def run(batched: bool):
        def arm():
            file = LHRSFile(_config(m, k, capacity=16, max_ops=batch))
            if batched:
                out = file.insert_many(items)
                assert out.ok
            else:
                for key, value in items:
                    file.insert(key, value)
            return {
                "messages": file.stats.total.messages,
                "buckets": file.bucket_count,
            }

        return _best_of(arm, repeats)

    scalar_s, scalar_stats = run(False)
    batched_s, batched_stats = run(True)
    assert batched_stats["buckets"] > m  # the file really grew
    return {
        "kind": "insert-growth",
        "m": m,
        "k": k,
        "batch": batch,
        "count": count,
        "scalar_ops_per_s": count / scalar_s,
        "batched_ops_per_s": count / batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_msgs_per_op": scalar_stats["messages"] / count,
        "batched_msgs_per_op": batched_stats["messages"] / count,
        "scalar_buckets": scalar_stats["buckets"],
        "batched_buckets": batched_stats["buckets"],
    }


def run(smoke: bool) -> dict:
    count = 512 if smoke else 2048
    repeats = 2 if smoke else 3
    batches = [64] if smoke else [8, 64, 256]
    shapes = [(4, 2)] if smoke else [(4, 1), (4, 2)]
    kinds = ["insert", "search"] if smoke else ["insert", "search", "update"]

    results = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "smoke": smoke,
            "note": (
                "scalar_* = one message per record through the scalar "
                "calls; batched_* = the ops.batch scatter-gather plane"
            ),
        },
        "ops": [],
        "growth": [],
    }
    for m, k in shapes:
        for kind in kinds:
            for batch in batches:
                results["ops"].append(
                    bench_ops(kind, m, k, batch, count, 4 * count, repeats)
                )
    results["growth"].append(bench_growth(4, 2, 64, count, repeats))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed-size grid for CI")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_throughput.json")
    args = parser.parse_args(argv)

    results = run(args.smoke)
    args.output.write_text(json.dumps(results, indent=2) + "\n")

    for r in results["ops"] + results["growth"]:
        print(
            f"{r['kind']:>13}  m={r['m']} k={r['k']} batch={r['batch']:>3}: "
            f"{r['scalar_ops_per_s']:>8.0f} -> {r['batched_ops_per_s']:>8.0f}"
            f" ops/s ({r['speedup']:.1f}x)  "
            f"{r['scalar_msgs_per_op']:.2f} -> {r['batched_msgs_per_op']:.2f}"
            f" msgs/op"
        )
    print(f"\nwrote {args.output}")

    # Regression gates (the acceptance numbers this PR ships with).
    failures = []
    reference = [
        r for r in results["ops"]
        if r["kind"] == "insert" and (r["m"], r["k"]) == (4, 2)
        and r["batch"] == 64
    ]
    for r in reference:
        if r["speedup"] < 5.0:
            failures.append(
                f"insert m=4 k=2 batch=64 speedup {r['speedup']:.1f}x < 5x"
            )
        if r["msg_ratio"] > 0.25:
            failures.append(
                f"insert m=4 k=2 batch=64 msgs/op ratio "
                f"{r['msg_ratio']:.3f} > 0.25"
            )
    if any(r["speedup"] < 1.0 for r in results["ops"]):
        failures.append("a batched arm is slower than the scalar loop")
    if failures:
        print("PERF REGRESSION:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
