"""Chaos soak: thousands of mixed operations under a hostile message
plane *and* concurrent crash/restore windows.

The fault rules follow the protocol's safety envelope:

* mutations (and their Δs) are dropped, transiently failed and
  duplicated — but never *delayed*: a held mutation re-delivered later
  could reorder with a subsequent write to the same key across a
  different A2 forwarding path, which no last-writer oracle can track.
  Sequence numbers and write acks are exactly the machinery that makes
  drop/dup/fail survivable, so that is what we batter.
* read replies, acks and IAMs also get delayed (bounded, per-channel
  FIFO) — late replies must satisfy waiting retries, late acks must
  match retried tokens.

Crash windows take at most k members of a group down at a time; the
self-healing probe loop and the report-driven recovery paths race the
windows.  At the end: every acked write readable, every acked delete
gone, parity recomputed == stored, every crashed node rebuilt.
"""

from collections.abc import Callable

import numpy as np

from repro.check.soak import ExpectedState, settle, verify
from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.sim import FaultPlane

MUTATION_KINDS = {"insert", "update", "delete", "search", "parity.update"}
REPLY_KINDS = {"search.result", "op.ack", "iam"}


def scalar_mix(
    file: LHRSFile, expected: ExpectedState, operations: int, seed: int,
    before_op: Callable[[int], None] | None = None,
) -> None:
    """The scalar soaks' workload over 600 keys: 45 % inserts, 20 %
    updates (upserts), 15 % deletes, 20 % searches, each recorded in
    ``expected``; ``before_op(t)`` runs before operation t."""
    rng = np.random.default_rng(seed + 1)
    for t in range(operations):
        if before_op is not None:
            before_op(t)
        key = int(rng.integers(0, 600))
        roll = float(rng.random())
        if roll < 0.45:
            expected.call(file, "insert", key, b"v%d-%d" % (t, key))
        elif roll < 0.65:
            expected.call(file, "update", key, b"u%d-%d" % (t, key))
        elif roll < 0.80:
            expected.call(file, "delete", key)
        else:
            expected.call(file, "search", key)
    # mostly mutations ran, and the retry ladder confirmed the vast majority
    assert expected.acked + expected.failed >= int(operations * 0.70)
    assert expected.acked > expected.failed * 10


def run_chaos(
    operations: int, seed: int, trace_capacity: int | None = 20_000
) -> LHRSFile:
    config = LHRSConfig(
        group_size=4,
        availability=2,
        bucket_capacity=16,
        parity_ack=True,
        client_acks=True,
        retry_attempts=6,
        retry_backoff_base=0.5,
    )
    file = LHRSFile(config)
    net = file.network
    # Full observability: the invariant auditor rides the whole soak in
    # strict mode — any cross-layer violation raises at the offending
    # message with the trace tail attached (explain-on-failure).
    tracer, metrics, auditor = file.enable_observability(
        trace_capacity=trace_capacity
    )

    plane = FaultPlane(rng=np.random.default_rng(seed))
    plane.add_rule(kinds=MUTATION_KINDS, drop=0.03, fail=0.04, duplicate=0.03)
    plane.add_rule(kinds=REPLY_KINDS, drop=0.03, fail=0.03, duplicate=0.03,
                   delay=0.05, delay_window=3.0)
    net.install_fault_plane(plane)

    # Staggered crash windows: ≤ k members of one group at a time,
    # cycling over the first six groups, overlapping across groups.
    injector = file.failures
    pairs = [
        lambda g: (f"f.d{4 * g}", f"f.d{4 * g + 1}"),
        lambda g: (f"f.d{4 * g + 2}", parity_node("f", g, 0)),
        lambda g: (parity_node("f", g, 0), parity_node("f", g, 1)),
    ]
    horizon = operations + 100
    for w, at in enumerate(range(120, horizon, 60)):
        group = w % 6
        for node in pairs[w % 3](group):
            injector.schedule_crash(node, at=float(at), duration=80.0)

    expected = ExpectedState()
    scalar_mix(file, expected, operations, seed)
    # Quiesce (the self-healing loop sweeps up whatever is still down),
    # then the file must have survived.
    settle(file)
    verify(file, expected)

    crashed = {node for _, action, node in injector.event_log
               if action == "crash"}
    assert crashed  # the windows really fired
    assert all(net.is_available(node) for node in crashed)
    assert file.rs_coordinator.recovery.groups_recovered >= 1
    # The plane really exercised every fault class.
    for counter in ("dropped", "failed", "duplicated", "delayed", "released"):
        assert plane.counters[counter] > 0, counter

    # The auditor watched every event in strict mode (verify found it
    # silent), and really saw the traffic.
    assert auditor.events_seen > operations
    assert tracer.counts.get("fault.injected", 0) > 0
    assert tracer.counts.get("recovery.rank", 0) > 0
    assert 0 < metrics.get("net.messages").value <= net.stats.total.messages
    return file


def test_chaos_soak_5000_ops():
    run_chaos(operations=5000, seed=20260806)


def test_chaos_smoke():
    """Fixed-seed quick variant (CI's 30-second chaos gate)."""
    run_chaos(operations=700, seed=1234)
