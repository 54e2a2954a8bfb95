"""Tests for message-level fault injection and failure schedules.

Covers the fault plane's four outcomes (drop / fail / duplicate / delay)
on both transports, the per-channel FIFO guarantee for delayed traffic,
the protected-kind exemption, the logical clock, and the failure
injector's schedules (crash windows, flaky nodes) and strict healing.
"""

import numpy as np
import pytest

from repro.sim import (
    DEFAULT_PROTECTED_KINDS,
    DeliveryFault,
    FailureInjector,
    FaultPlane,
    FaultRule,
    Network,
    Node,
    RetryPolicy,
    UnknownNode,
)
from repro.obs import Tracer


class Echo(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def handle_ping(self, message):
        self.seen.append(message.payload)
        return (self.node_id, message.payload)

    def handle_split(self, message):
        self.seen.append(message.payload)
        return "split-ok"


@pytest.fixture
def net():
    network = Network()
    for name in ("a", "b", "c"):
        network.register(Echo(name))
    return network


def plane_on(net, **rule) -> FaultPlane:
    plane = FaultPlane(rng=np.random.default_rng(7))
    if rule:
        plane.add_rule(**rule)
    net.install_fault_plane(plane)
    return plane


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(attempts=6, backoff_base=1.0,
                             backoff_factor=2.0, backoff_max=5.0)
        assert [policy.delay(i) for i in range(4)] == [1.0, 2.0, 4.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestFaultRule:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(drop=1.5)
        with pytest.raises(ValueError):
            FaultRule(drop=0.6, fail=0.6)
        with pytest.raises(ValueError):
            FaultRule(delay_window=0)

    def test_matching_kind_sender_recipient(self):
        from repro.sim.messages import Message

        rule = FaultRule(kinds=frozenset({"ping"}), sender="f.d*",
                         recipient="f.p0.*")
        assert rule.matches(Message("f.d1", "f.p0.2", "ping", None), 0.0)
        assert not rule.matches(Message("f.d1", "f.p0.2", "pong", None), 0.0)
        assert not rule.matches(Message("f.coord", "f.p0.2", "ping", None), 0.0)
        assert not rule.matches(Message("f.d1", "f.p1.0", "ping", None), 0.0)

    def test_expiry(self):
        from repro.sim.messages import Message

        rule = FaultRule(until=10.0)
        message = Message("a", "b", "ping", None)
        assert rule.matches(message, 9.9)
        assert not rule.matches(message, 10.0)


class TestOutcomes:
    def test_drop_on_send_is_silent_and_charged(self, net):
        plane = plane_on(net, kinds={"ping"}, drop=1.0)
        net.send("a", "b", "ping", "x")
        assert net.nodes["b"].seen == []
        assert plane.counters["dropped"] == 1
        assert net.stats.total.messages == 1  # the message left the sender

    def test_fail_on_send_raises_request_fault(self, net):
        plane_on(net, kinds={"ping"}, fail=1.0)
        with pytest.raises(DeliveryFault) as err:
            net.send("a", "b", "ping", "x")
        assert err.value.stage == "request"
        assert net.nodes["b"].seen == []

    def test_duplicate_on_send_delivers_twice(self, net):
        plane_on(net, kinds={"ping"}, duplicate=1.0)
        net.send("a", "b", "ping", "x")
        assert net.nodes["b"].seen == ["x", "x"]

    def test_call_request_drop_means_handler_never_ran(self, net):
        plane_on(net, kinds={"ping"}, drop=1.0)
        with pytest.raises(DeliveryFault) as err:
            net.call("a", "b", "ping", "x")
        assert err.value.stage == "request"
        assert net.nodes["b"].seen == []

    def test_call_reply_drop_means_handler_did_run(self, net):
        # Only the reply kind matches, so the request goes through.
        plane_on(net, kinds={"ping.reply"}, drop=1.0)
        with pytest.raises(DeliveryFault) as err:
            net.call("a", "b", "ping", "x")
        assert err.value.stage == "reply"
        assert net.nodes["b"].seen == ["x"]  # the at-least-once hazard

    def test_call_duplicate_runs_handler_twice(self, net):
        plane_on(net, kinds={"ping"}, duplicate=1.0)
        result = net.call("a", "b", "ping", "x")
        assert result == ("b", "x")
        assert net.nodes["b"].seen == ["x", "x"]

    def test_calls_are_never_delayed(self, net):
        plane = plane_on(net, kinds={"ping"}, delay=1.0)
        assert net.call("a", "b", "ping", "x") == ("b", "x")
        assert plane.pending == 0

    def test_protected_kinds_exempt(self, net):
        plane = plane_on(net, drop=1.0)  # every kind, always
        assert "split" in DEFAULT_PROTECTED_KINDS
        net.send("a", "b", "split", "s")
        assert net.nodes["b"].seen == ["s"]
        assert plane.counters["dropped"] == 0

    def test_first_matching_rule_wins(self, net):
        plane = plane_on(net, kinds={"ping"}, drop=1.0)
        plane.add_rule(kinds={"ping"}, fail=1.0)
        net.send("a", "b", "ping", "x")
        assert plane.counters["dropped"] == 1
        assert plane.counters["failed"] == 0


class TestDelay:
    def test_delay_holds_until_clock_matures(self, net):
        plane = plane_on(net, kinds={"ping"}, delay=1.0, delay_window=3.0)
        net.send("a", "b", "ping", "late")
        assert net.nodes["b"].seen == []
        assert plane.pending == 1
        net.advance(4.0)
        assert net.nodes["b"].seen == ["late"]
        assert plane.pending == 0

    def test_channel_fifo_later_message_cannot_overtake(self, net):
        plane = plane_on(net, kinds={"ping"}, delay=1.0, delay_window=3.0)
        net.send("a", "b", "ping", "first")
        plane.clear_rules()
        # Same channel: forced behind the held message despite no rule.
        net.send("a", "b", "ping", "second")
        assert plane.pending == 2
        net.advance(5.0)
        assert net.nodes["b"].seen == ["first", "second"]

    def test_other_channels_overtake_freely(self, net):
        plane = plane_on(net, kinds={"ping"}, sender="a", delay=1.0)
        net.send("a", "b", "ping", "held")
        net.send("c", "b", "ping", "fast")
        assert net.nodes["b"].seen == ["fast"]
        net.advance(5.0)
        assert net.nodes["b"].seen == ["fast", "held"]

    def test_matured_message_to_dead_node_is_lost(self, net):
        plane = plane_on(net, kinds={"ping"}, delay=1.0)
        net.send("a", "b", "ping", "doomed")
        net.fail("b")
        net.advance(5.0)
        assert net.nodes["b"].seen == []
        assert plane.counters["lost_in_flight"] == 1
        assert plane.pending == 0


class TestMulticastReplyFaults:
    """Multicast replies pass the fault plane exactly like call replies.

    Pins the unified reply leg: a dropped/failed collected reply puts
    the recipient in ``unavailable`` (from the sender's seat a lost
    reply and a dead node look identical), but the handler DID run —
    the same at-least-once hazard `test_call_reply_drop_means_handler_
    did_run` pins for calls.
    """

    def test_dropped_reply_lands_recipient_in_unavailable(self, net):
        plane = plane_on(net, kinds={"ping.reply"}, drop=1.0)
        replies, unavailable = net.multicast("a", ["b", "c"], "ping", "x")
        assert replies == {}
        assert unavailable == ["b", "c"]
        assert plane.counters["dropped"] == 2
        # The handlers ran: the at-least-once hazard, as with calls.
        assert net.nodes["b"].seen == ["x"]
        assert net.nodes["c"].seen == ["x"]

    def test_dropped_reply_is_charged_to_stats(self, net):
        plane_on(net, kinds={"ping.reply"}, drop=1.0)
        before = net.stats.total.messages
        net.multicast("a", ["b"], "ping", "x")
        # Request + the reply that left the handler before being lost.
        assert net.stats.total.messages == before + 2

    def test_failed_reply_lands_recipient_in_unavailable(self, net):
        plane = plane_on(net, kinds={"ping.reply"}, fail=1.0)
        replies, unavailable = net.multicast("a", ["b"], "ping", "x")
        assert replies == {}
        assert unavailable == ["b"]
        assert plane.counters["failed"] == 1
        assert net.nodes["b"].seen == ["x"]

    def test_request_leg_faults_unchanged(self, net):
        # A request-kind rule still prevents the handler from running.
        plane_on(net, kinds={"ping"}, drop=1.0)
        replies, unavailable = net.multicast("a", ["b"], "ping", "x")
        assert replies == {}
        assert unavailable == ["b"]
        assert net.nodes["b"].seen == []

    def test_duplicated_request_copy_runs_twice_and_is_counted(self, net):
        plane = plane_on(net, kinds={"ping"}, duplicate=1.0)
        replies, unavailable = net.multicast("a", ["b", "c"], "ping", "x")
        assert replies == {"b": ("b", "x"), "c": ("c", "x")}
        assert unavailable == []
        assert plane.counters["duplicated"] == 2
        assert net.nodes["b"].seen == ["x", "x"]
        assert net.nodes["c"].seen == ["x", "x"]

    @pytest.mark.parametrize("fabric", [True, False])
    def test_dropped_request_copy_is_charged_and_traced(self, fabric):
        net = Network(multicast_available=fabric)
        for name in ("a", "b", "c"):
            net.register(Echo(name))
        tracer = Tracer(capacity=None)
        net.install_tracer(tracer)
        plane = plane_on(net, kinds={"ping"}, drop=1.0)
        before = net.stats.total.messages
        replies, unavailable = net.multicast("a", ["b", "c"], "ping", "x")
        assert (replies, unavailable) == ({}, ["b", "c"])
        assert plane.counters["dropped"] == 2
        assert tracer.counts["msg.lost"] == 2
        # Both copies left the sender; the fabric charges only the first.
        assert net.stats.total.messages == before + (1 if fabric else 2)

    def test_replies_are_never_delayed(self, net):
        plane = plane_on(net, kinds={"ping.reply"}, delay=1.0)
        replies, unavailable = net.multicast("a", ["b"], "ping", "x")
        assert replies == {"b": ("b", "x")}
        assert unavailable == []
        assert plane.pending == 0

    def test_uncollected_replies_bypass_the_plane(self, net):
        # collect_replies=False sends no reply messages, so reply rules
        # cannot touch the multicast (the scan fan-out path).
        plane = plane_on(net, kinds={"ping.reply"}, drop=1.0)
        replies, unavailable = net.multicast(
            "a", ["b"], "ping", "x", collect_replies=False
        )
        assert replies == {}
        assert unavailable == []
        assert plane.counters["dropped"] == 0
        assert net.nodes["b"].seen == ["x"]


class TestClock:
    def test_tick_per_top_level_operation(self, net):
        start = net.now
        net.send("a", "b", "ping")
        net.call("a", "b", "ping")
        assert net.now == start + 2.0

    def test_advance_validates_and_returns(self, net):
        with pytest.raises(ValueError):
            net.advance(-1.0)
        before = net.now
        assert net.advance(2.5) == before + 2.5

    def test_listeners_fire_on_advance(self, net):
        ticks = []
        net.add_clock_listener(ticks.append)
        net.advance(1.0)
        net.send("a", "b", "ping")
        assert len(ticks) == 2


class TestDeterminism:
    def test_same_seed_same_fates(self, net):
        from repro.sim.messages import Message

        outcomes = []
        for _ in range(2):
            plane = FaultPlane(rng=np.random.default_rng(42))
            plane.add_rule(kinds={"ping"}, drop=0.2, fail=0.2,
                           duplicate=0.2, delay=0.2)
            fates = [
                plane.outcome_for(Message("a", "b", "ping", i), now=float(i))[0]
                for i in range(200)
            ]
            outcomes.append(fates)
        assert outcomes[0] == outcomes[1]
        assert len(set(outcomes[0])) > 1  # actually exercised several fates


class TestFailureSchedules:
    def test_schedule_crash_window(self, net):
        inj = FailureInjector(net)
        inj.schedule_crash("b", at=2.0, duration=3.0)
        assert inj.pending_events == 2
        net.advance(2.0)
        assert not net.is_available("b")
        net.advance(3.0)
        assert net.is_available("b")
        assert [(a, n) for _, a, n in inj.event_log] == [
            ("crash", "b"), ("restore", "b")
        ]

    def test_schedule_validation(self, net):
        inj = FailureInjector(net)
        net.advance(5.0)
        with pytest.raises(ValueError):
            inj.schedule_crash("b", at=1.0)
        with pytest.raises(ValueError):
            inj.schedule_crash("b", at=6.0, duration=0)

    def test_restore_tolerates_rebuilt_node(self, net):
        # The node was rebuilt (unregistered) while its window was open:
        # the scheduled restore must not blow up.
        inj = FailureInjector(net)
        inj.schedule_crash("b", at=1.0, duration=2.0)
        net.advance(1.0)
        net.unregister("b")
        net.advance(5.0)
        assert "b" not in inj.currently_failed

    def test_make_flaky_cycles(self, net):
        inj = FailureInjector(net, rng=np.random.default_rng(3))
        inj.make_flaky(["b"], mtbf=2.0, mttr=1.0)
        crashes = 0
        for _ in range(200):
            net.advance(1.0)
            crashes = sum(
                1 for _, action, _ in inj.event_log if action == "crash"
            )
        restores = sum(
            1 for _, action, _ in inj.event_log if action == "restore"
        )
        assert crashes >= 5  # it flapped repeatedly
        assert abs(crashes - restores) <= 1

    def test_make_flaky_validation(self, net):
        inj = FailureInjector(net)
        with pytest.raises(ValueError):
            inj.make_flaky(["b"], mtbf=0, mttr=1.0)
        with pytest.raises(ValueError):
            inj.make_flaky(["b"], mtbf=1.0, mttr=-1.0)

    def test_stop_flaky_halts_new_cycles(self, net):
        inj = FailureInjector(net, rng=np.random.default_rng(3))
        inj.make_flaky(["b"], mtbf=1.0, mttr=1.0)
        inj.stop_flaky()
        for _ in range(50):
            net.advance(1.0)
        assert inj.pending_events == 0


class TestStrictHeal:
    def test_heal_unknown_injection_raises(self, net):
        inj = FailureInjector(net)
        inj.crash(["b"])
        with pytest.raises(ValueError, match="not failed by this injector"):
            inj.heal(["c"])

    def test_injected_set_semantics(self, net):
        inj = FailureInjector(net)
        inj.crash(["b"])
        inj.crash(["b"])  # second crash of a down node is a no-op
        assert inj.currently_failed == ["b"]
        inj.heal()
        assert inj.currently_failed == []
        with pytest.raises(ValueError):
            inj.heal(["b"])  # already healed: no longer owned

    def test_heal_all_forgets_nodes_unregistered_while_down(self, net):
        """A merge dissolves a bucket the injector holds down: healing
        "everything" skips it, naming it stays an error."""
        inj = FailureInjector(net)
        inj.crash(["b", "c"])
        net.unregister("c")
        with pytest.raises(UnknownNode):
            inj.heal(["c"])
        inj.heal()
        assert inj.currently_failed == [] and net.is_available("b")
