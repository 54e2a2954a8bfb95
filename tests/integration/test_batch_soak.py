"""Batched chaos soak: the bulk data plane under the scalar soak's rules.

Thousands of operations submitted exclusively through ``*_many`` while
the fault plane batters ``ops.batch``/``parity.batch`` (drop, transient
fail, duplicate — the retransmission envelope the per-(data, position)
sequence numbers are built for) *and* the scalar kinds the fallback
path uses, with crash windows taking ≤ k members of a group down at a
time.  The invariant auditor rides the whole soak in strict mode.

At the end: parity recomputed == stored, every confirmed write
readable, every confirmed delete gone, the auditor never fired.
"""

import numpy as np

from repro.check.soak import ExpectedState, settle, verify
from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.sim import FaultPlane

BATCH_KINDS = {"ops.batch", "parity.batch"}
SCALAR_MUTATIONS = {"insert", "update", "delete", "parity.update"}


def run_batch_soak(operations: int, seed: int, batch_size: int = 40) -> LHRSFile:
    config = LHRSConfig(
        group_size=4,
        availability=2,
        bucket_capacity=16,
        parity_ack=True,
        client_acks=True,
        retry_attempts=8,
        retry_backoff_base=0.5,
        batch_max_ops=64,
    )
    file = LHRSFile(config)
    net = file.network
    tracer, metrics, auditor = file.enable_observability(trace_capacity=20_000)

    plane = FaultPlane(rng=np.random.default_rng(seed))
    plane.add_rule(kinds=BATCH_KINDS, drop=0.02, fail=0.03, duplicate=0.03)
    plane.add_rule(kinds=SCALAR_MUTATIONS, drop=0.02, fail=0.03,
                   duplicate=0.02)
    net.install_fault_plane(plane)

    injector = file.failures
    rng = np.random.default_rng(seed + 1)
    expected = ExpectedState()

    # Crash windows relative to *current* virtual time so they always
    # overlap live batches; ≤ k members of one group at a time.
    crash_cycle = [
        lambda g: (f"f.d{4 * g}",),
        lambda g: (f"f.d{4 * g + 1}", parity_node("f", g, 0)),
        lambda g: (parity_node("f", g, 1),),
    ]

    rounds = max(operations // batch_size, 1)
    for round_no in range(rounds):
        if round_no % 7 == 3:
            group = (round_no // 7) % max(len(file.group_levels()), 1)
            for node in crash_cycle[round_no % 3](group):
                injector.schedule_crash(
                    node, at=net.now + 1.0, duration=50.0
                )

        keys = list(dict.fromkeys(
            int(k) for k in rng.integers(0, 600, size=batch_size)
        ))
        roll = float(rng.random())
        if roll < 0.40:
            values = [b"v%d-%d" % (round_no, k) for k in keys]
            expected.many(file, "insert", keys, values)
        elif roll < 0.65:
            values = [b"u%d-%d" % (round_no, k) for k in keys]
            expected.many(file, "update", keys, values)  # upsert semantics
        elif roll < 0.82:
            expected.many(file, "delete", keys)
        else:
            expected.many(file, "search", keys)

    assert expected.acked >= rounds * 2  # the plane confirmed real work
    # and the retry ladder won far more than it lost
    assert expected.acked > expected.failed

    settle(file)
    verify(file, expected)

    # The batch plane really carried the load and every fault class hit.
    for counter in ("dropped", "failed", "duplicated"):
        assert plane.counters[counter] > 0, counter
    assert tracer.counts.get("batch.scatter", 0) > rounds // 2
    assert metrics.get("batch.ops").value >= rounds * batch_size // 2

    # verify found the auditor silent; it really saw the traffic.
    assert auditor.events_seen > rounds
    return file


def test_batch_soak_5000_ops():
    run_batch_soak(operations=5000, seed=20260808)


def test_batch_soak_smoke():
    """Fixed-seed quick variant (CI's batched chaos gate)."""
    run_batch_soak(operations=600, seed=4321)
