"""Backpressure integration: bounded queues shed under overload, clients
back off and retry, Δ-parity sequence numbers keep duplicates-after-shed
idempotent, and the strict invariant auditor rides a shedding chaos soak.

The danger zone for load shedding in LH*RS is the Δ-parity channel: a
data bucket's parity send can be refused (``busy``), retried, and — with
a hostile plane — *also* duplicated, so a parity bucket can legally see
the same Δ zero, one or two times.  The per-position sequence numbers
are what make that safe; these tests batter exactly that seam.
"""

import numpy as np
import pytest

from repro.check.soak import ExpectedState, settle, verify
from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.sdds.client import OperationFailed
from repro.sim import FaultPlane
from repro.sim.rng import make_rng


def overloaded_file(queue_limit=4, drain_rate=0.15, seed=11, **overrides):
    base = dict(
        group_size=4,
        availability=1,
        bucket_capacity=16,
        client_acks=True,
        parity_ack=True,
        retry_attempts=8,
        retry_jitter=True,
        bucket_queue_limit=queue_limit,
    )
    base.update(overrides)
    config = LHRSConfig(**base)
    file = LHRSFile(config)
    file.enable_observability()
    file.enable_service_model(
        link_latency=0.25, service_time=1.0, drain_rate=drain_rate
    )
    plane = FaultPlane(rng=make_rng(seed))
    file.network.install_fault_plane(plane)
    return file, plane


def test_overload_sheds_but_loses_no_acked_write():
    file, plane = overloaded_file()
    expected = ExpectedState()
    for key in range(250):
        expected.call(file, "insert", key, b"ov%d" % key)
    service = file.network.service
    shed = service.counters["shed"]
    assert shed > 0  # the bound really bit
    assert file.tracer.counts.get("msg.shed", 0) == shed
    assert file.metrics.counter("svc.shed").value == shed
    # jittered backoff + retries carried (nearly) everything through
    assert expected.acked > expected.failed * 10
    verify(file, expected)


def test_duplicate_after_shed_is_idempotent():
    """A Δ-parity send can be shed, retried *and* duplicated; sequence
    numbers must collapse the replay to exactly-once application."""
    file, plane = overloaded_file(queue_limit=3, drain_rate=0.2)
    plane.add_rule(kinds={"parity.update"}, duplicate=0.25)
    expected = ExpectedState()
    for key in range(200):
        expected.call(file, "insert", key, b"dup%d" % key)
    assert file.network.service.counters["shed"] > 0
    assert plane.counters["duplicated"] > 0
    # both hazards fired on the same channel; parity still agrees with
    # data exactly (no double-applied Δ)
    verify(file, expected)


def test_queue_gauges_and_depth_bound():
    file, plane = overloaded_file(queue_limit=4, drain_rate=0.1)
    for key in range(150):
        try:
            file.insert(key, b"x")
        except OperationFailed:
            pass
    service = file.network.service
    # sheddable traffic respects the admission bound at every data
    # bucket; structural messages may push a little past it
    for bucket in range(file.bucket_count):
        node = f"{file.file_id}.d{bucket}"
        assert service.max_depths.get(node, 0.0) <= 4 + 4
    assert file.metrics.get("svc.queue_depth").count > 0
    assert file.metrics.get("svc.queue_depth.max").value > 0


def run_shedding_soak(operations: int, seed: int) -> LHRSFile:
    """Chaos soak with the full gray-failure stack engaged: bounded
    queues + low drain (constant shedding), a ramping straggler, lossy
    and duplicating rules on the mutation plane, crash windows, and the
    strict invariant auditor watching every event."""
    file, plane = overloaded_file(
        queue_limit=4,
        drain_rate=0.3,
        seed=seed,
        availability=2,
        read_deadline=64.0,
    )
    net = file.network
    plane.add_rule(
        kinds={"insert", "update", "delete", "parity.update"},
        drop=0.02, fail=0.03, duplicate=0.03,
    )
    plane.add_slow_rule(node="f.d1", factor=8.0, ramp=0.05, jitter=0.2)
    injector = file.failures
    for w, at in enumerate(range(150, operations, 200)):
        injector.schedule_crash(
            f"f.d{4 * (w % 3)}" if w % 2 else parity_node("f", w % 3, 0),
            at=float(at), duration=90.0,
        )

    rng = np.random.default_rng(seed + 1)
    expected = ExpectedState()
    for t in range(operations):
        key = int(rng.integers(0, 400))
        roll = float(rng.random())
        if roll < 0.5:
            expected.call(file, "insert", key, b"s%d-%d" % (t, key))
        elif roll < 0.7:
            expected.call(file, "delete", key)
        else:
            expected.call(file, "search", key)
    # shedding degraded, it did not stop, service
    assert expected.acked > expected.failed

    settle(file)
    verify(file, expected)
    assert net.service.counters["shed"] > 0  # the soak really shed
    return file


def test_shedding_soak_smoke():
    """Fixed-seed quick variant (CI's straggler chaos gate)."""
    run_shedding_soak(operations=500, seed=20260808)


def test_shedding_soak_2000_ops():
    run_shedding_soak(operations=2000, seed=42)
