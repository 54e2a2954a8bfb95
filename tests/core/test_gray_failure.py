"""Tests for the gray-failure read stack: deadline/hedged reads, the
per-bucket circuit breaker, degraded reads against live-but-slow
buckets, the bounded health log, and the recovery pacer."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LHRSConfig, LHRSFile
from repro.core.client import BREAKER_COOLDOWN, _Breaker
from repro.core.coordinator import BoundedHealthLog
from repro.core.group import data_node
from repro.core.recovery import RecoveryPacer
from repro.sim import FaultPlane, Network, ServiceModel
from repro.sim.rng import make_rng


def make_file(n=60, *, deadline=24.0, straggle=None, **overrides):
    config = LHRSConfig(
        group_size=4,
        availability=1,
        bucket_capacity=8,
        client_acks=True,
        read_deadline=deadline,
        **overrides,
    )
    file = LHRSFile(config)
    file.enable_observability()
    file.enable_service_model(link_latency=0.25, service_time=1.0)
    plane = FaultPlane(rng=make_rng(5))
    file.network.install_fault_plane(plane)
    oracle = {}
    for key in range(n):
        value = b"g%d" % key
        file.insert(key, value)
        oracle[key] = value
    if straggle is not None:
        victim = max(
            range(file.bucket_count),
            key=lambda b: sum(
                1 for k in oracle if file.find_bucket_of(k) == b
            ),
        )
        plane.add_slow_rule(
            node=data_node(file.file_id, victim), factor=straggle
        )
    return file, plane, oracle


class TestBreakerUnit:
    def test_opens_after_threshold_consecutive_slow(self):
        breaker = _Breaker(threshold=3, cooldown=10.0)
        assert breaker.record(True, now=0.0) is None
        assert breaker.record(True, now=1.0) is None
        assert breaker.record(True, now=2.0) == "opened"
        assert breaker.is_open(now=3.0)
        assert not breaker.is_open(now=12.5)  # cooldown elapsed

    def test_fast_read_resets_the_streak(self):
        breaker = _Breaker(threshold=2, cooldown=10.0)
        breaker.record(True, now=0.0)
        breaker.record(False, now=1.0)
        assert breaker.record(True, now=2.0) is None  # streak restarted

    def test_half_open_probe_closes_or_reopens(self):
        breaker = _Breaker(threshold=2, cooldown=5.0)
        breaker.record(True, now=0.0)
        assert breaker.record(True, now=1.0) == "opened"
        # after cooldown the next slow read re-opens immediately...
        assert breaker.record(True, now=7.0) == "opened"
        assert breaker.is_open(now=8.0)
        # ...and a fast probe closes it
        assert breaker.record(False, now=13.0) == "closed"
        assert not breaker.is_open(now=13.0)


class TestHedgedReads:
    def test_straggler_reads_stay_correct_and_hedge(self):
        file, plane, oracle = make_file(straggle=50.0)
        for _ in range(3):
            for key, value in oracle.items():
                outcome = file.search(key)
                assert outcome.found and outcome.value == value
        client = file.client
        assert client.hedged_reads > 0
        assert client.degraded_fallbacks > 0
        assert client.deadline_misses == 0
        assert file.metrics.counter("read.breaker.opened").value >= 1
        assert file.tracer.counts.get("op.hedged", 0) > 0
        assert file.tracer.counts.get("breaker.open", 0) >= 1
        assert file.auditor.violations == []

    def test_effective_latency_stays_inside_the_deadline(self):
        file, plane, oracle = make_file(straggle=50.0)
        client = file.client
        for _ in range(3):
            for key in oracle:
                file.search(key)
        assert client.deadline_misses == 0
        assert max(client._latency_samples) <= 24.0

    def test_breaker_closes_after_the_gray_failure_clears(self):
        file, plane, oracle = make_file(straggle=200.0)
        for _ in range(3):
            for key in oracle:
                file.search(key)
        assert file.tracer.counts.get("breaker.open", 0) >= 1
        plane.clear_rules()
        file.network.advance(BREAKER_COOLDOWN + 1.0)
        for _ in range(3):
            for key in oracle:
                file.search(key)
        assert file.tracer.counts.get("breaker.close", 0) >= 1

    def test_no_deadline_means_plain_reads(self):
        file, plane, oracle = make_file(deadline=None, straggle=50.0)
        for key, value in oracle.items():
            outcome = file.search(key)
            assert outcome.found and outcome.value == value
        assert file.client.hedged_reads == 0
        assert file.client.last_read_latency is None

    def test_degraded_read_handler_serves_live_but_slow_bucket(self):
        file, plane, oracle = make_file()
        reply = file.network.call(
            file.client.node_id, "f.coord", "read.degraded", {"key": 0}
        )
        assert reply == {"served": True, "found": True, "value": oracle[0]}
        missing = file.network.call(
            file.client.node_id, "f.coord", "read.degraded", {"key": 10**8}
        )
        assert missing["served"] and not missing["found"]


SLOW_RULES = st.lists(
    st.tuples(
        st.sampled_from(["*", "f.d*", "f.d1", "f.d3", "f.p*"]),
        st.floats(min_value=1.0, max_value=120.0),
        st.floats(min_value=0.0, max_value=1.0),   # ramp
        st.floats(min_value=0.0, max_value=0.5),   # jitter
    ),
    min_size=0,
    max_size=3,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rules=SLOW_RULES, read_deadline=st.sampled_from([8.0, 24.0, 64.0]))
def test_hedged_and_degraded_reads_equal_primary_reads(rules, read_deadline):
    """The gray-failure stack may change *which path* answers, never
    *what* it answers: under arbitrary slow rules every read returns
    exactly what a healthy primary read would."""
    file, plane, oracle = make_file(n=40, deadline=read_deadline)
    for node, factor, ramp, jitter in rules:
        plane.add_slow_rule(
            node=node, factor=factor, ramp=ramp, jitter=jitter
        )
    for key, value in oracle.items():
        outcome = file.search(key)
        assert outcome.found and outcome.value == value
    missing = file.search(10**7)
    assert not missing.found
    assert file.auditor.violations == []


class TestBoundedHealthLog:
    def test_behaves_like_a_list_until_full(self):
        log = BoundedHealthLog(4)
        for i in range(3):
            log.append({"round": i})
        assert len(log) == 3
        assert log[0] == {"round": 0}
        assert [e["round"] for e in log] == [0, 1, 2]
        assert log.dropped == 0

    def test_drops_oldest_and_counts(self):
        log = BoundedHealthLog(3)
        for i in range(10):
            log.append({"round": i})
        assert len(log) == 3
        assert [e["round"] for e in log] == [7, 8, 9]
        assert log.dropped == 7
        assert log[-1]["round"] == 9
        assert [e["round"] for e in log[1:]] == [8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BoundedHealthLog(0)

    def test_probe_loop_is_bounded_and_gauged(self):
        file, plane, oracle = make_file(n=20)
        file.rs_coordinator.health_log = BoundedHealthLog(5)
        for _ in range(4):
            file.rs_coordinator.run_probe_cycle(rounds=3)
        log = file.rs_coordinator.health_log
        assert len(log) == 5
        assert log.dropped == 7
        gauge = file.metrics.get("coord.health_log.dropped")
        assert gauge.value == 7


class TestRecoveryPacer:
    def test_burst_passes_without_waiting(self):
        net = Network()
        pacer = RecoveryPacer(net, rate=1.0, burst=3.0)
        pacer.pace()
        pacer.pace()
        pacer.pace()
        assert pacer.waits == 0
        assert net.now == 0.0

    def test_deficit_waits_out_the_clock(self):
        net = Network()
        pacer = RecoveryPacer(net, rate=0.5, burst=1.0)
        pacer.pace()          # takes the burst token
        pacer.pace()          # deficit of 1 token -> waits 2 clock units
        assert pacer.waits == 1
        assert net.now == pytest.approx(2.0)
        assert pacer.waited == pytest.approx(2.0)

    def test_weighted_costs(self):
        net = Network()
        pacer = RecoveryPacer(net, rate=2.0, burst=2.0)
        pacer.pace(cost=8.0)  # 6 short at 2/unit -> waits 3
        assert net.now == pytest.approx(3.0)

    def test_validation(self):
        net = Network()
        with pytest.raises(ValueError):
            RecoveryPacer(net, rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            RecoveryPacer(net, rate=1.0, burst=0.5)

    def test_paced_rebuild_recovers_and_reports(self):
        file, plane, oracle = make_file(
            recovery_pace_rate=0.5, recovery_pace_burst=2.0
        )
        victim = file.fail_data_bucket(1)
        file.recover([victim])
        assert file.metrics.counter("recovery.pace.waits").value >= 1
        assert file.tracer.counts.get("recovery.paced", 0) >= 1
        for key, value in oracle.items():
            outcome = file.search(key)
            assert outcome.found and outcome.value == value
        assert file.verify_parity_consistency() == []


class TestConfigValidation:
    def test_deadline_policy_is_derived_from_config(self):
        """The policy is the one number it carries; the hedge and
        breaker figures are constants of ``repro.core.client``."""
        assert LHRSFile(LHRSConfig(read_deadline=16.0)).client.deadline == 16.0
        assert LHRSFile(LHRSConfig()).client.deadline is None

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            LHRSConfig(read_deadline=0.0)
        with pytest.raises(ValueError):
            LHRSConfig(bucket_queue_limit=0)
        with pytest.raises(ValueError):
            LHRSConfig(recovery_pace_rate=0.0)
        for retired in (
            "hedge_reads", "hedge_quantile", "hedge_min_samples",
            "breaker_threshold", "breaker_cooldown", "retry_backoff_factor",
            "retry_backoff_max", "batch_bulk_weight", "delta_log_capacity",
            "health_log_capacity",
        ):
            with pytest.raises(TypeError):
                LHRSConfig(**{retired: 1})
        with pytest.raises(TypeError):
            ServiceModel(bulk_op_weight=1.0)
