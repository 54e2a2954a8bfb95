"""Coordinator-kill soak: thousands of mixed operations while the
coordinator itself is repeatedly assassinated — cleanly between
operations (scheduled windows) and mid-restructuring (armed crash
points firing one crash mid-split and one mid-recovery).

What the run must show (the PR's acceptance criteria):

* zero lost or duplicated records — every acked write readable, every
  acked delete gone, under the same hostile message plane as the chaos
  soak;
* the promoted standby's whole durable state (``(n, i)``, group
  levels, spare balance, bucket epochs, term, open intents) equals the
  journal's replay after every takeover;
* the strict-mode :class:`InvariantAuditor` rides the whole run and
  never fires.

Clients keep addressing ``<file>.coord``; succession is invisible to
them except for the whois round they pay when they catch the blackout.
"""

import numpy as np
import pytest

from repro.check.soak import ExpectedState, settle, verify
from repro.core import LHRSConfig, LHRSFile
from repro.core.group import parity_node
from repro.sim import FaultPlane
from tests.integration.test_chaos import (
    MUTATION_KINDS,
    REPLY_KINDS,
    scalar_mix,
)
from tests.integration.test_config_matrix import durable_state_views


def run_coordinator_chaos(
    operations: int, seed: int, trace_capacity: int | None = 20_000,
    durability: bool = False,
) -> LHRSFile:
    config = LHRSConfig(
        group_size=4,
        availability=2,
        bucket_capacity=16,
        parity_ack=True,
        client_acks=True,
        retry_attempts=8,
        retry_backoff_base=0.5,
        coordinator_replicas=2,
        heartbeat_interval=3.0,
        lease_timeout=9.0,
        journal_checkpoint_interval=8,
        durability=durability,
    )
    file = LHRSFile(config)
    net = file.network
    tracer, metrics, _ = file.enable_observability(
        trace_capacity=trace_capacity
    )
    # Capacity-bounded tracers evict events; a subscriber sees them all.
    crashes_by_point: dict[str, int] = {}
    takeover_checks: list[tuple] = []

    def watch(event):
        if event.type == "coord.crash":
            point = event.attrs.get("point", "?")
            crashes_by_point[point] = crashes_by_point.get(point, 0) + 1
        elif event.type == "coord.takeover.end":
            # Held state vs journal truth, captured at the instant
            # succession completes.
            takeover_checks.append(durable_state_views(file))

    tracer.subscribe(watch)

    plane = FaultPlane(rng=np.random.default_rng(seed))
    plane.add_rule(kinds=MUTATION_KINDS, drop=0.02, fail=0.03, duplicate=0.02)
    plane.add_rule(kinds=REPLY_KINDS, drop=0.02, fail=0.02, duplicate=0.02,
                   delay=0.04, delay_window=3.0)
    net.install_fault_plane(plane)

    # Some data-bucket crash windows so recovery runs (and so an armed
    # recover.mid crash point has something to fire inside), plus clean
    # scheduled coordinator kills between operations.
    injector = file.failures
    horizon = operations + 100
    for w, at in enumerate(range(150, horizon, 150)):
        group = w % 3
        injector.schedule_crash(f"f.d{4 * group}", at=float(at),
                                duration=60.0)
        injector.schedule_crash(parity_node("f", group, 0),
                                at=float(at) + 20.0, duration=60.0)
    for at in range(400, horizon, 700):
        injector.schedule_crash("f.coord", at=float(at))  # down until takeover

    # The mid-restructuring kills: armed once each, re-armed on the
    # current primary until they have fired.
    file.rs_coordinator.arm_crash("split.mid")
    file.rs_coordinator.arm_crash("recover.mid")

    def rearm(t: int) -> None:
        if t % 100 == 0 and net.is_available("f.coord"):
            coordinator = file.rs_coordinator
            for point in ("split.mid", "recover.mid"):
                if not crashes_by_point.get(point):
                    coordinator.arm_crash(point)

    expected = ExpectedState()
    scalar_mix(file, expected, operations, seed, before_op=rearm)
    # Quiesce (a takeover first, if the coordinator is down); then no
    # record may be lost or duplicated.
    settle(file)
    verify(file, expected)

    # ---- acceptance: the coordinator really died, repeatedly -----------
    takeovers = sum(s.takeovers for s in file.standbys)
    assert takeovers >= 2, "the kill schedule never forced a succession"
    assert crashes_by_point.get("split.mid"), "no crash fired mid-split"
    assert crashes_by_point.get("recover.mid"), "no crash fired mid-recovery"
    resumed = tracer.counts.get("coord.resume", 0)
    assert resumed >= 1  # at least one open intent was rolled forward

    # ---- acceptance: durable state equal to journal truth --------------
    assert takeover_checks, "no takeover was observed"
    for live, truth in takeover_checks + [durable_state_views(file)]:
        assert live == truth
    assert file.check_reconstructed_state()

    # ---- observability acceptance (verify found the auditor silent) ----
    assert tracer.counts.get("coord.takeover.end", 0) == takeovers
    assert metrics.get("net.messages").value > 0
    return file


def test_coordinator_failover_soak_5000_ops():
    run_coordinator_chaos(operations=5000, seed=20260806)


@pytest.mark.parametrize("durability", [False, True], ids=["ram", "durable"])
def test_coordinator_kill_smoke(durability):
    """Fixed-seed quick variant (CI's coordinator-kill gate), on both
    planes: the epoch fence only exists on the durable one."""
    run_coordinator_chaos(operations=700, seed=4321, durability=durability)
