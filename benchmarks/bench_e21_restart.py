"""E21 — restart recovery: emits BENCH_restart.json.

Measures the tentpole's service-level claim: a restarted bucket that
replays its checkpoint + WAL and *delta catches up* — fetching only the
ops it missed — beats the full RS rebuild by a margin that grows as
staleness shrinks.  Three result families:

* **restart** — catch-up vs full-rebuild MTTR across a staleness sweep
  (missed tail as a fraction of the bucket's records).  MTTR is the
  simulated repair time of the message window (:class:`LatencyModel`:
  fixed per-message cost + bandwidth + GF CPU term), the same model the
  recovery benchmarks use; wall-clock and repair bytes ride along.
* **repair bytes vs staleness** — catch-up bytes must scale with the
  missed tail, not with the bucket (the rebuild's cost).
* **durability overhead** — the insert path with the WAL on vs off
  (fsync every op, the strictest knob), plus disk-counter totals.

Usage::

    PYTHONPATH=src python benchmarks/bench_e21_restart.py           # full grid
    PYTHONPATH=src python benchmarks/bench_e21_restart.py --smoke   # CI gate

Shipped gates (smoke and full): at staleness <= 5% the catch-up MTTR is
<= 0.3x the full-rebuild MTTR and moves fewer bytes; across the sweep,
catch-up bytes grow monotonically with staleness.  Results land in
``BENCH_restart.json`` at the repo root (``--output`` overrides).
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
from repro.sim.stats import LatencyModel

REPO_ROOT = Path(__file__).resolve().parent.parent
MODEL = LatencyModel()
PAYLOAD = 128


def _items(count: int, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    keys = [int(k) for k in rng.choice(10 ** 9, size=count, replace=False)]
    return [(k, rng.integers(0, 256, PAYLOAD, dtype=np.uint8).tobytes())
            for k in keys]


def _build_durable(items) -> LHRSFile:
    """A durable file whose WAL never auto-syncs: everything after the
    explicit checkpoint below is an unsynced tail a crash will eat —
    which makes the missed-tail size (the staleness) exactly
    controllable by the caller."""
    config = LHRSConfig(
        group_size=4, availability=2, bucket_capacity=256,
        parity_ack=True, client_acks=True,
        durability=True, wal_fsync_interval=10 ** 9,
    )
    file = LHRSFile(config)
    for key, value in items:
        file.insert(key, value)
    for server in file.data_servers():
        server.checkpoint_now()
    for server in file.parity_servers():
        server.checkpoint_now()
    return file


def _stale_updates(file: LHRSFile, items, victim_bucket: int,
                   fraction: float) -> list:
    """Update ``fraction`` of the victim's records (acked, parity
    applied, WAL tail unsynced) and return the updated pairs."""
    victims = [
        (key, value) for key, value in items
        if file.find_bucket_of(key) == victim_bucket
    ]
    stale = max(1, int(round(fraction * len(victims))))
    updated = [
        (key, value[::-1]) for key, value in victims[:stale]
    ]
    for key, value in updated:
        file.update(key, value)
    return updated


def bench_restart(count: int, fraction: float) -> dict:
    """One staleness point: catch-up arm vs full-rebuild arm."""
    items = _items(count)

    # --- catch-up arm -------------------------------------------------
    file = _build_durable(items)
    tracer, _, _ = file.enable_observability(trace_capacity=2000,
                                            audit=False)
    node = "f.d1"
    bucket_records = sum(
        1 for key, _ in items if file.find_bucket_of(key) == 1
    )
    updated = _stale_updates(file, items, victim_bucket=1,
                             fraction=fraction)
    file.stats.reset()
    start = time.perf_counter()
    with file.stats.measure("catchup") as catchup:
        file.failures.crash([node])
        file.failures.heal([node])
    catchup_wall = time.perf_counter() - start
    assert tracer.counts.get("catchup.fallback") is None, (
        "catch-up arm fell back to a rebuild — benchmark is void"
    )
    for key, value in updated:
        outcome = file.search(key)
        assert outcome.found and outcome.value == value
    assert file.verify_parity_consistency() == []

    # --- full-rebuild arm (identical file and staleness) --------------
    file = _build_durable(items)
    _stale_updates(file, items, victim_bucket=1, fraction=fraction)
    file.stats.reset()
    victim = file.fail_data_bucket(1)
    start = time.perf_counter()
    with file.stats.measure("rebuild") as rebuild:
        file.recover([victim])
    rebuild_wall = time.perf_counter() - start
    assert file.verify_parity_consistency() == []

    return {
        "count": count,
        "bucket_records": bucket_records,
        "staleness": fraction,
        "missed_ops": len(updated),
        "catchup_mttr_ms": MODEL.window_time(catchup) * 1e3,
        "rebuild_mttr_ms": MODEL.window_time(rebuild) * 1e3,
        "mttr_ratio": (
            MODEL.window_time(catchup) / MODEL.window_time(rebuild)
        ),
        "catchup_bytes": catchup.bytes,
        "rebuild_bytes": rebuild.bytes,
        "catchup_messages": catchup.messages,
        "rebuild_messages": rebuild.messages,
        "catchup_wall_ms": catchup_wall * 1e3,
        "rebuild_wall_ms": rebuild_wall * 1e3,
    }


def bench_overhead(count: int, repeats: int) -> dict:
    """Insert-path cost of the durable plane at its strictest setting
    (fsync every logged op)."""
    items = _items(count, seed=11)

    def arm(durable: bool):
        best, disk = float("inf"), {}
        for _ in range(repeats):
            config = LHRSConfig(
                group_size=4, availability=2, bucket_capacity=256,
                parity_ack=True, client_acks=True, durability=durable,
            )
            file = LHRSFile(config)
            start = time.perf_counter()
            for key, value in items:
                file.insert(key, value)
            best = min(best, time.perf_counter() - start)
            if durable:
                disks = [s._durable.disk for s in file.data_servers()]
                disks += [s._durable.disk for s in file.parity_servers()]
                disk = {
                    "fsyncs": sum(d.fsyncs for d in disks),
                    "appends": sum(d.appends for d in disks),
                    "bytes_written": sum(d.bytes_written for d in disks),
                }
        return best, disk

    off_s, _ = arm(False)
    on_s, disk = arm(True)
    return {
        "count": count,
        "off_ops_per_s": count / off_s,
        "on_ops_per_s": count / on_s,
        "overhead_x": on_s / off_s,
        "disk": disk,
    }


def run(smoke: bool) -> dict:
    count = 240 if smoke else 600
    fractions = [0.05] if smoke else [0.02, 0.05, 0.1, 0.2, 0.4]
    results = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "smoke": smoke,
            "note": (
                "mttr = simulated repair window time (LatencyModel); "
                "staleness = missed tail / victim bucket records"
            ),
        },
        "restart": [bench_restart(count, f) for f in fractions],
        "overhead": bench_overhead(count, repeats=2 if smoke else 3),
    }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed-size grid for CI")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_restart.json")
    args = parser.parse_args(argv)

    results = run(args.smoke)
    args.output.write_text(json.dumps(results, indent=2) + "\n")

    for r in results["restart"]:
        print(
            f"staleness={r['staleness']:>5.0%} ({r['missed_ops']:>3} ops): "
            f"catch-up {r['catchup_mttr_ms']:>7.3f} ms / "
            f"{r['catchup_bytes']:>8d} B   vs   rebuild "
            f"{r['rebuild_mttr_ms']:>7.3f} ms / {r['rebuild_bytes']:>8d} B"
            f"   (mttr {r['mttr_ratio']:.2f}x)"
        )
    o = results["overhead"]
    print(
        f"insert path: {o['off_ops_per_s']:>8.0f} ops/s -> "
        f"{o['on_ops_per_s']:>8.0f} ops/s durable "
        f"({o['overhead_x']:.2f}x cost, {o['disk']['fsyncs']} fsyncs)"
    )
    print(f"\nwrote {args.output}")

    # Regression gates (the acceptance numbers this PR ships with).
    failures = []
    for r in results["restart"]:
        if r["staleness"] <= 0.05:
            if r["mttr_ratio"] > 0.3:
                failures.append(
                    f"staleness {r['staleness']:.0%}: mttr ratio "
                    f"{r['mttr_ratio']:.2f} > 0.30"
                )
            if r["catchup_bytes"] >= r["rebuild_bytes"]:
                failures.append(
                    f"staleness {r['staleness']:.0%}: catch-up moved "
                    f"{r['catchup_bytes']} B >= rebuild "
                    f"{r['rebuild_bytes']} B"
                )
    sweep = results["restart"]
    for lo, hi in zip(sweep, sweep[1:]):
        if hi["catchup_bytes"] < lo["catchup_bytes"]:
            failures.append(
                f"repair bytes shrank as staleness grew: "
                f"{lo['staleness']:.0%} -> {hi['staleness']:.0%}"
            )
    if failures:
        print("\nGATE FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("gates: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
