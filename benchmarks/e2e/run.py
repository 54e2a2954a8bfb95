#!/usr/bin/env python3
"""End-to-end benchmark of the whole LH*RS stack.

Two ways to run it, from anywhere:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run in this process; the last line of standard output is one JSON
    object ``{correct, attempted, failed, metrics}``.  ``--trace 0`` times
    unmodified ``repro`` code and reports the end-to-end metrics of
    BENCHMARK.json; ``--trace 1`` runs the same inputs once untraced and
    once under the span recorder and reports the per-layer metrics.

``run.py [--seed N] [--record]``
    The whole suite: every workload ``RUNS`` times untraced (round-robin,
    one child process per run, never two at once) and once traced; prints
    every metric by name with its unit and the median over the runs, and
    writes ``out/result.json``.  Exits non-zero if any answer was wrong.

BENCHMARK.json at the root of the repo names the metrics and their units;
README.md beside this file defines them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
NOW = time.perf_counter_ns

#: Untraced runs per workload in one set of the suite; a metric's value is
#: their median.  history.jsonl is comparable only at one value.
RUNS = 3
#: The benchmark contract asks for it: set-up is repeated within a run and
#: its median reported, so that one slow preload does not read as a set-up
#: regression.
SETUP_REPEATS = 3
#: The availability probe that follows the main phase lasts this share of
#: ``--seconds`` on top of them.
PROBE_SHARE = 1 / 4
#: Share of ``--seconds`` a traced run spends on its untraced pass; the
#: traced pass then repeats the same steps, about three times slower.
UNTRACED_SHARE = 1 / 4


def percentile(ordered: list, p: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def tail_percentile(ordered: list) -> float:
    """p99, or with under 1000 samples the highest percentile that still
    has ten samples beyond it."""
    return percentile(ordered, min(0.99, max(0.5, 1 - 10 / len(ordered))))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def counters(w: Any) -> dict[str, int]:
    """Cumulative counts at a phase boundary; phases report differences."""
    s, total = w.s, w.file.stats.total
    counts = {f"kind:{kind}": n for kind, n in total.by_kind.items()}
    counts.update(
        ops=s.ops,
        wall_ns=s.wall_ns,
        nominal_ns=s.timed_ns + s.excluded_ns,
        messages=s.messages,
        bytes=s.bytes,
        symbol_ops=total.symbol_ops,
        write_requests=s.write_requests,
        user_bytes=s.user_bytes,
        records=sum(r[1] for r in s.rebuilds),
    )
    return counts


def difference(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: n - before.get(key, 0) for key, n in after.items()}


def main_phase(w: Any, seconds: float, ops: int) -> dict[str, int]:
    begin = counters(w)
    while not w.finished(seconds, ops):
        w.step()
    return difference(counters(w), begin)


def end_to_end(w: Any, setups: list[float], overhead: float) -> dict[str, float]:
    s, avail = w.s, w.avail
    reads, writes = sorted(s.read_ns), sorted(s.write_ns)
    degraded = sorted(avail.degraded_ns)
    rebuilding = sum(window for window, *_ in avail.rebuilds)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": s.ops / s.timed_ns * 1e9,
        "read_p50_us": percentile(reads, 0.50) / 1e3,
        "read_p95_us": percentile(reads, 0.95) / 1e3,
        "write_p50_us": percentile(writes, 0.50) / 1e3,
        "write_p95_us": percentile(writes, 0.95) / 1e3,
        "msgs_per_op": s.messages / s.ops,
        "wire_bytes_per_op": s.bytes / s.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "storage_overhead": overhead,
        "growth_flatness": w.flatness(),
        "rebuild_records_per_s": sum(r[1] for r in avail.rebuilds) / rebuilding * 1e9,
        "degraded_read_p50_us": percentile(degraded, 0.50) / 1e3,
        "degraded_read_p95_us": percentile(degraded, 0.95) / 1e3,
        # crash -> serving again: by WAL replay and catch-up where the
        # file is durable, by a rebuild onto a spare where it is not
        "restart_mean_ms": statistics.fmean(w.outages()) / 1e6,
    }


def run_untraced(cls: type, args: argparse.Namespace) -> dict[str, Any]:
    from workloads import spin, to_nominal

    setups = []
    for _ in range(SETUP_REPEATS):
        w = None  # the file before goes before the next is built
        gc.collect()
        w = cls(args.seed, args.scale)
        before, t0 = spin(), NOW()
        w.setup()
        seconds = (NOW() - t0) / 1e9
        # at nominal machine speed, like every duration (Workload.advance)
        setups.append(seconds * to_nominal(before, spin()))
    main_phase(w, args.seconds, args.ops)
    overhead = w.file.storage_overhead()
    w.probe(args.seconds * PROBE_SHARE)
    problems = w.verify()
    for line in problems[:10]:
        print(f"{w.name}: {line}", file=sys.stderr)
    attempted, failed = w.tally()
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "values": end_to_end(w, setups, overhead),
    }


def traced_phase(w: Any, rec: Any, steps: int) -> dict[str, dict[str, Any]]:
    """Repeat ``steps`` steps with the recorder on inside the workload's
    tracing windows; per window, the recorder's aggregates and the
    counter differences."""
    windows: dict[str, dict[str, Any]] = {}
    label, begin, first = None, counters(w), 0

    def close() -> None:
        if label is not None:
            windows[label] = {
                "entries": rec.take(),
                "counts": difference(counters(w), begin),
                "steps": (first, w.steps),
            }

    while w.steps < steps:
        new = w.window()
        if new != label:
            close()
            label, begin, first = new, counters(w), w.steps
        rec.on = label is not None
        w.step()
        rec.on = False
    close()
    return windows


def per_layer(
    plain: Any, traced: Any, window: dict[str, Any], cal: dict[str, float],
) -> dict[str, float]:
    from spans import LAYERS

    entries, counts = window["entries"], window["counts"]
    ops = counts["ops"]
    work = counts[traced.unit_of_work]
    by_name = {e["name"]: e for e in entries}

    # Recorded times become times at nominal machine speed, like every
    # other duration (Workload.advance).  What a span cost here is what
    # the same steps took longer traced than untraced, over the spans
    # recorded: about twice what the start-up calibration finds on an
    # empty function, whose split of the cost between the span itself and
    # its parent is kept.
    nominal = counts["nominal_ns"] / counts["wall_ns"]
    first, last = window["steps"]
    walls = [0.0] + [p[3] for p in plain.s.progress]
    plain_ns = walls[last] - walls[first]
    spans = sum(e["calls"] for e in entries)
    span_ns = max(0.0, counts["nominal_ns"] - plain_ns) / spans
    inside = span_ns * cal["inside_ns"] / cal["span_ns"]
    outside = span_ns - inside

    def own(e: dict[str, Any]) -> float:
        """Self time less the recorder's share of it."""
        cost = e["calls"] * inside + e["children"] * outside
        return max(0.0, e["self_ns"] * nominal - cost)

    def calls(*names: str) -> int:
        return sum(by_name[n]["calls"] for n in names if n in by_name)

    values: dict[str, float] = {}
    for layer in LAYERS:
        mine = [e for e in entries if e["layer"] == layer]
        values[f"{layer}.self_us_per_op"] = sum(map(own, mine)) / 1e3 / work
        values[f"{layer}.calls_per_op"] = sum(e["calls"] for e in mine) / work

    reads, writes = sorted(plain.s.read_ns), sorted(plain.s.write_ns)
    values["sdds.client.read_p99_us"] = tail_percentile(reads) / 1e3
    values["sdds.client.write_p99_us"] = tail_percentile(writes) / 1e3
    values["sdds.client.iam_per_op"] = counts.get("kind:iam", 0) / ops
    values["core.data_bucket.overflow_reports_per_op"] = (
        counts.get("kind:overflow", 0) / ops
    )
    deltas = counts.get("kind:parity.update", 0) + counts.get("kind:parity.batch", 0)
    values["core.parity_bucket.delta_msgs_per_write"] = (
        deltas / max(1, counts["write_requests"])
    )
    values["gf.symbol_ops_per_op"] = counts["symbol_ops"] / ops

    checkpoints = ("RSDataServer.checkpoint_now", "ParityServer.checkpoint_now")
    disk_bytes = sum(e["bytes"] for e in entries)
    values["store.fsyncs_per_op"] = calls("SimDisk.fsync") / ops
    values["store.wal_bytes_per_user_byte"] = disk_bytes / max(1, counts["user_bytes"])
    values["store.checkpoints_per_kop"] = calls(*checkpoints) * 1000 / ops
    values["store.checkpoint_us_per_op"] = nominal * sum(
        by_name[n]["incl_ns"] for n in checkpoints if n in by_name
    ) / 1e3 / ops

    splits = by_name.get("RSCoordinator.split_once", {"calls": 0, "durations": []})
    overflow = by_name.get("Coordinator.handle_overflow")
    values["core.coordinator.splits"] = splits["calls"]
    values["core.coordinator.split_ms_p50"] = (
        nominal * statistics.median(splits["durations"]) / 1e6
        if splits["calls"] else 0.0
    )
    values["core.coordinator.overflow_self_us"] = (
        own(overflow) / overflow["calls"] / 1e3 if overflow else 0.0
    )

    # repair traffic, from the untraced pass
    rebuilds = plain.s.rebuilds
    records = sum(r[1] for r in rebuilds)
    values["core.recovery.msgs_per_rebuild"] = (
        sum(r[2] for r in rebuilds) / len(rebuilds) if rebuilds else 0.0
    )
    values["core.recovery.wire_bytes_per_record"] = (
        sum(r[3] for r in rebuilds) / records if records else 0.0
    )
    values["core.recovery.rebuild_ms_p50"] = (
        statistics.median(r[0] for r in rebuilds) / 1e6 if rebuilds else 0.0
    )

    # the same steps, traced and not
    values["trace.overhead_ratio"] = counts["nominal_ns"] / plain_ns
    values["trace.coverage"] = sum(e["self_ns"] for e in entries) / counts["wall_ns"]
    return values


def run_traced(cls: type, args: argparse.Namespace) -> dict[str, Any]:
    plain = cls(args.seed, args.scale)
    plain.setup()
    plain_counts = main_phase(plain, args.seconds * UNTRACED_SHARE, args.ops)
    problems = plain.verify()

    import spans

    cal = spans.calibrate()
    rec = spans.Recorder()
    # Wrappers go in before set-up so that callbacks bound during it (the
    # auditor's subscription) are the wrapped ones; the recorder is off
    # until the main phase.
    with spans.installed(rec):
        traced = cls(args.seed, args.scale)
        traced.setup()
        begin = counters(traced)
        windows = traced_phase(traced, rec, plain.steps)
        traced_counts = difference(counters(traced), begin)
    problems += traced.verify()
    # The wrappers must not change what the program does: same seed and
    # steps, so the same messages, bytes and answers.
    for key in ("ops", "messages", "bytes", "symbol_ops"):
        if plain_counts[key] != traced_counts[key]:
            problems.append(
                f"traced pass differs from untraced in {key}: "
                f"{traced_counts[key]} != {plain_counts[key]}"
            )
    for line in problems[:10]:
        print(f"{plain.name}: {line}", file=sys.stderr)

    spans_kept = rec.write_trace(OUT / f"trace-{plain.name}.jsonl")
    (OUT / f"spans-{plain.name}.json").write_text(json.dumps({
        "workload": plain.name, "seed": args.seed, "calibration": cal,
        "spans_kept": spans_kept, "windows": windows,
    }))
    failed = plain.s.failed + traced.s.failed
    return {
        "correct": not failed and not problems,
        "attempted": plain.s.ops + traced.s.ops,
        "failed": failed + len(problems),
        "values": per_layer(plain, traced, windows[traced.report_window], cal),
    }


def single(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    result = (run_traced if args.trace else run_untraced)(cls, args)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = result.pop("values")
    extra = values.keys() - {m["name"] for m in declared}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics that are not finite: {bad}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def calibration() -> dict[str, Any]:
    """Machine figures to normalise results from different machines by."""
    import numpy as np

    from spans import calibrate
    from workloads import spin

    a = np.ones(1 << 24, dtype=np.uint8)
    b = np.zeros_like(a)

    def gb_per_s(fn: Any) -> float:
        best = min(_timed(fn) for _ in range(5))
        return a.nbytes / best

    def empty() -> None:
        pass

    def calls() -> None:
        for _ in range(1_000_000):
            empty()

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "memcpy_gb_per_s": gb_per_s(lambda: np.copyto(b, a)),
        "xor_gb_per_s": gb_per_s(lambda: np.bitwise_xor(a, b, out=b)),
        "empty_calls_per_s": 1e6 / min(_timed(calls) for _ in range(3)) * 1e9,
        "recorder": calibrate(),
        "spin_ns": min(spin() for _ in range(20)),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": commit,
    }


def _timed(fn: Any) -> int:
    t0 = NOW()
    fn()
    return NOW() - t0


def child(name: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    """One run in a fresh process; a run that dies counts as all failed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--ops", str(args.ops),
        "--scale", str(args.scale),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(done.stdout.splitlines()[-1])


def suite(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    meta = {**calibration(), "seed": args.seed, "seconds": args.seconds,
            "date": time.strftime("%Y-%m-%d")}
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            runs[name].append(child(name, args, trace=0))
    traced = {name: child(name, args, trace=1) for name in names}

    report: dict[str, Any] = {}
    for w in spec["workloads"]:
        name = w["name"]
        everything = runs[name] + [traced[name]]
        attempted = sum(r["attempted"] for r in everything)
        failed = sum(r["failed"] for r in everything)
        alive = all(r["metrics"] for r in runs[name])
        medians = {
            m["name"]: statistics.median(
                r["metrics"][m["name"]]["value"] for r in runs[name]
            )
            for m in spec["end_to_end"] if alive
        }
        layers = {k: v["value"] for k, v in traced[name]["metrics"].items()}
        report[name] = {
            "failed_share": failed / attempted, "attempted": attempted,
            "failed": failed, "end_to_end": medians, "per_layer": layers,
        }
        print(f"\n== {name}: {w['why']}")
        for m in spec["end_to_end"]:
            if m["name"] in medians:
                spread = " ".join(
                    f"{r['metrics'][m['name']]['value']:.6g}" for r in runs[name]
                )
                print(f"  {m['name']:<44}{medians[m['name']]:>14.6g} "
                      f"{m['unit']:<6} [{spread}]")
        print(f"  {'failed_share':<44}{failed / attempted:>14.6g} ratio  "
              f"({failed} of {attempted})")
        print("  -- per layer, from the traced run")
        for m in spec["per_layer"]:
            if m["name"] in layers:
                print(f"  {m['name']:<44}{layers[m['name']]:>14.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(
        json.dumps({"meta": meta, "workloads": report, "runs": runs}, indent=1)
    )
    if args.record:
        with (HERE / "history.jsonl").open("a") as history:
            history.write(json.dumps({"meta": meta, "medians": report}) + "\n")
    wrong = [name for name in names if report[name]["failed"]]
    if wrong:
        print(f"\nFAILED: wrong answers or dead runs on {wrong}", file=sys.stderr)
    return 1 if wrong else 0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one run of this workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="end the main phase after this many client ops "
                             "instead of after --seconds: counts then repeat exactly")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale every size of the design (the smoke test's 1/50)")
    parser.add_argument("--record", action="store_true",
                        help="suite: append the medians to history.jsonl")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no src/repro under {ROOT}: nothing to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    return (single if args.workload else suite)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
