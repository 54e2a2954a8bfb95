"""E12 — Update/delete economics and rank compaction (table).

Paper theme: updates cost 1 + k (a Δ per parity bucket); deletions free
ranks, and without reuse the record groups thin out, inflating parity
storage overhead over a churned lifetime.  The §4.3-style compaction
(relocate the highest rank into the freed one) restores density for ~k
extra messages per delete.  The table runs a churn workload with
compaction off/on and compares overhead and message costs.
"""

import pytest

from harness import build_lhrs, converge, fmt, save_table, scaled
from repro.core.stripe_store import ABSENT
from repro.sim.rng import make_rng


def churn(file, keys, rounds, seed):
    """Delete-then-insert churn over the live key population."""
    rng = make_rng(seed)
    live = list(keys)
    fresh = iter(range(2 * 10**9, 3 * 10**9))
    with file.stats.measure("churn") as window:
        for _ in range(rounds):
            victim = live.pop(int(rng.integers(0, len(live))))
            file.delete(victim)
            key = next(fresh)
            file.insert(key, b"n" * 64)
            live.append(key)
    return window


def run_comparison():
    rows = []
    for compact in (False, True):
        file, keys = build_lhrs(
            m=4, k=2, capacity=16, count=scaled(800), payload=64,
            compact_ranks=compact,
        )
        converge(file, keys, sample=scaled(200))
        overhead_before = file.storage_overhead()
        window = churn(file, keys, rounds=scaled(600), seed=5)
        assert file.verify_parity_consistency() == []
        # Record-group density: members per rank relative to m, read
        # off the store columns (occupied length cells of used rows).
        members = ranks = 0
        for server in file.parity_servers():
            if server.index == 0:
                store = server._store
                ranks += len(store)
                used = store.dir_lengths[store.rank_of >= 0]
                members += int((used != ABSENT).sum())
        rows.append(
            {
                "compaction": compact,
                "overhead_before": overhead_before,
                "overhead_after": file.storage_overhead(),
                "density": members / ranks / 4,
                "msgs_per_churn_op": window.messages / (2 * scaled(600)),
            }
        )
    return rows


def test_e12_updates_and_compaction(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = [
        f"{'compaction':<11} {'ovh before':>11} {'ovh after':>10} "
        f"{'group density':>14} {'msgs/op':>8}"
    ]
    for r in rows:
        lines.append(
            f"{str(r['compaction']):<11} {fmt(r['overhead_before'], 11, 3)} "
            f"{fmt(r['overhead_after'], 10, 3)} {fmt(r['density'], 14)} "
            f"{fmt(r['msgs_per_churn_op'], 8)}"
        )
    save_table(
        "e12_updates",
        "E12: churn economics — compaction buys record-group density "
        "(lower parity overhead) for extra messages per delete",
        lines,
    )
    off, on = rows
    assert on["density"] > off["density"]
    assert on["overhead_after"] < off["overhead_after"]
    assert on["msgs_per_churn_op"] > off["msgs_per_churn_op"]
