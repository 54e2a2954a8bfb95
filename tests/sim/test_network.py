"""Tests for the network simulator: transport, accounting, failures."""

import pytest

from repro.sim import (
    FailureInjector,
    Message,
    Network,
    Node,
    NodeUnavailable,
    UnknownNode,
)
from repro.sim.messages import HEADER_BYTES, estimate_size


class Echo(Node):
    """Replies with its own id and the payload; counts receipts."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = []

    def handle_ping(self, message):
        self.seen.append(message.payload)
        return (self.node_id, message.payload)

    def handle_relay(self, message):
        # Forward to the named next hop, fire-and-forget.
        self.send(message.payload, "ping", "relayed")
        return "sent"


@pytest.fixture
def net():
    network = Network()
    for name in ("a", "b", "c"):
        network.register(Echo(name))
    return network


class TestTransport:
    def test_send_counts_one_message(self, net):
        net.send("a", "b", "ping", "x")
        assert net.stats.total.messages == 1
        assert net.nodes["b"].seen == ["x"]

    def test_call_counts_two_messages_and_returns(self, net):
        result = net.call("a", "b", "ping", "x")
        assert result == ("b", "x")
        assert net.stats.total.messages == 2
        assert net.stats.total.by_kind["ping"] == 1
        assert net.stats.total.by_kind["ping.reply"] == 1

    def test_unknown_recipient(self, net):
        with pytest.raises(UnknownNode):
            net.send("a", "zz", "ping")

    def test_unknown_handler(self, net):
        with pytest.raises(NotImplementedError):
            net.send("a", "b", "frobnicate")

    def test_duplicate_registration_rejected(self, net):
        with pytest.raises(ValueError):
            net.register(Echo("a"))

    def test_relayed_message_counts(self, net):
        net.send("a", "b", "relay", "c")
        assert net.stats.total.messages == 2  # relay + forwarded ping
        assert net.nodes["c"].seen == ["relayed"]

    def test_serial_depth_tracks_forward_chain(self, net):
        net.send("a", "b", "relay", "c")
        assert net.stats.total.serial_depth == 2

    def test_kind_to_handler_name_mangling(self, net):
        class Dotty(Node):
            def handle_key_search(self, message):
                return "ok"

        net.register(Dotty("d"))
        assert net.call("a", "d", "key.search") == "ok"


class TestMulticast:
    def test_multicast_with_fabric_charges_one_request(self, net):
        replies, missing = net.multicast("a", ["b", "c"], "ping", "m")
        assert set(replies) == {"b", "c"}
        assert missing == []
        # 1 multicast request + 2 replies.
        assert net.stats.total.messages == 3

    def test_multicast_without_fabric_charges_per_recipient(self):
        network = Network(multicast_available=False)
        for name in ("a", "b", "c"):
            network.register(Echo(name))
        network.multicast("a", ["b", "c"], "ping", "m")
        assert network.stats.total.messages == 4  # 2 requests + 2 replies

    def test_multicast_skips_failed_and_reports(self, net):
        net.fail("c")
        replies, missing = net.multicast("a", ["b", "c"], "ping")
        assert set(replies) == {"b"}
        assert missing == ["c"]

    def test_multicast_without_replies(self, net):
        replies, _ = net.multicast("a", ["b", "c"], "ping", collect_replies=False)
        assert replies == {}
        assert net.stats.total.messages == 1

    def test_replies_ride_at_request_depth_plus_one(self, net):
        # Each reply is one hop deeper than its request: serial depth of
        # a scan round-trip is request + reply = 2 (replies themselves
        # are parallel, so more recipients do not deepen the chain).
        net.multicast("a", ["b", "c"], "ping")
        assert net.stats.total.serial_depth == 2

    def test_partial_failure_reply_accounting(self, net):
        # One dead recipient: its request AND its reply disappear from
        # the bill, and the unavailable list is the complete gap report
        # the deterministic-termination protocols need.
        net.fail("b")
        replies, missing = net.multicast("a", ["b", "c"], "ping")
        assert missing == ["b"]
        assert set(replies) == {"c"}
        assert net.stats.total.messages == 2  # 1 fabric request + 1 reply

    def test_partial_failure_without_fabric(self):
        network = Network(multicast_available=False)
        for name in ("a", "b", "c", "d"):
            network.register(Echo(name))
        network.fail("c")
        replies, missing = network.multicast("a", ["b", "c", "d"], "ping")
        assert missing == ["c"]
        assert set(replies) == {"b", "d"}
        assert network.stats.total.messages == 4  # 2 requests + 2 replies

    def test_all_recipients_failed(self, net):
        net.fail("b")
        net.fail("c")
        replies, missing = net.multicast("a", ["b", "c"], "ping")
        assert replies == {}
        assert missing == ["b", "c"]
        assert net.stats.total.messages == 0

    def test_fault_plane_losses_land_in_unavailable(self, net):
        # A dropped multicast copy is indistinguishable from a dead
        # node at the sender: only the timeout fires.
        import numpy as np

        from repro.sim import FaultPlane

        plane = FaultPlane(rng=np.random.default_rng(0))
        plane.add_rule(kinds={"ping"}, recipient="b", drop=1.0)
        net.install_fault_plane(plane)
        replies, missing = net.multicast("a", ["b", "c"], "ping")
        assert missing == ["b"]
        assert set(replies) == {"c"}

    @pytest.mark.parametrize("fabric", [True, False])
    @pytest.mark.parametrize("refuser", ["b", "c"])
    def test_a_refusing_recipient_lands_in_unavailable(self, fabric, refuser):
        """A recipient that refuses the kind (a fenced bucket raising
        ``NodeUnavailable``) is listed, on the charged first copy and on
        a free fabric copy alike; the request it refused was delivered,
        so it stays on the bill, and no reply comes back."""
        network = Network(multicast_available=fabric)
        for name in ("a", "b", "c"):
            network.register(Refuser(name) if name == refuser else Echo(name))
        replies, missing = network.multicast("a", ["b", "c"], "ping")
        assert missing == [refuser]
        assert set(replies) == {"b", "c"} - {refuser}
        # requests: one on the fabric, else one per recipient; 1 reply
        assert network.stats.total.messages == (2 if fabric else 3)

    def test_an_unavailable_third_node_still_escapes(self, net):
        """Only the recipient's own refusal is a gap: a handler that
        lets another node's ``NodeUnavailable`` escape still raises."""
        net.register(Forwarder("d"))
        net.fail("c")
        with pytest.raises(NodeUnavailable) as raised:
            net.multicast("a", ["b", "d"], "ping")
        assert raised.value.node_id == "c"


class Refuser(Node):
    """Refuses every kind the way a fenced bucket does."""

    def receive(self, message):
        raise NodeUnavailable(self.node_id)


class Forwarder(Node):
    """Answers a ping by calling ``c``."""

    def handle_ping(self, message):
        return self.call("c", "ping")


class TestFailureState:
    def test_send_to_failed_raises(self, net):
        net.fail("b")
        with pytest.raises(NodeUnavailable) as err:
            net.send("a", "b", "ping")
        assert err.value.node_id == "b"

    def test_restore(self, net):
        net.fail("b")
        net.restore("b")
        net.send("a", "b", "ping", "back")
        assert net.nodes["b"].seen == ["back"]

    def test_fail_unknown_node(self, net):
        with pytest.raises(UnknownNode):
            net.fail("zz")

    def test_unregister(self, net):
        net.fail("b")
        net.unregister("b")
        assert not net.is_available("b")
        with pytest.raises(UnknownNode):
            net.send("a", "b", "ping")

    def test_unregister_unknown_node_raises(self, net):
        with pytest.raises(UnknownNode):
            net.unregister("zz")

    def test_restore_unknown_node_raises(self, net):
        # A misspelled failure schedule must fail loudly, not silently
        # "recover" nothing.
        with pytest.raises(UnknownNode):
            net.restore("zz")

    def test_restore_unregistered_node_raises(self, net):
        net.unregister("b")
        with pytest.raises(UnknownNode):
            net.restore("b")

    def test_restore_not_failed_is_noop(self, net):
        net.restore("b")  # registered, never failed: tolerated
        assert net.is_available("b")


class TestAccountingWindows:
    def test_window_counts_only_inside(self, net):
        net.send("a", "b", "ping")
        with net.stats.measure("op") as window:
            net.call("a", "b", "ping")
        net.send("a", "b", "ping")
        assert window.messages == 2
        assert net.stats.total.messages == 4

    def test_nested_windows(self, net):
        with net.stats.measure("outer") as outer:
            net.send("a", "b", "ping")
            with net.stats.measure("inner") as inner:
                net.send("a", "c", "ping")
        assert inner.messages == 1
        assert outer.messages == 2

    def test_lifo_enforced(self, net):
        w1 = net.stats.open("w1")
        net.stats.open("w2")
        with pytest.raises(RuntimeError):
            net.stats.close(w1)

    def test_reset_clears_total(self, net):
        net.send("a", "b", "ping")
        net.stats.reset()
        assert net.stats.total.messages == 0


class TestSizes:
    def test_estimate_size_cases(self):
        assert estimate_size(None) == 0
        assert estimate_size(b"abcd") == 4
        assert estimate_size(7) == 8
        assert estimate_size(True) == 1
        assert estimate_size("abc") == 3
        assert estimate_size({"k": b"xy"}) == 3
        assert estimate_size([1, 2]) == 16
        assert estimate_size(object()) == 16

    def test_message_size_includes_header(self):
        msg = Message("a", "b", "ping", b"1234")
        assert msg.size == HEADER_BYTES + 4


class TestFailureInjector:
    def test_crash_and_heal(self, net):
        inj = FailureInjector(net)
        assert inj.crash(["b"]) == ["b"]
        assert not net.is_available("b")
        inj.heal()
        assert net.is_available("b")
        assert inj.currently_failed == []

    def test_crash_sample_distinct(self, net):
        inj = FailureInjector(net)
        failed = inj.crash_sample(["a", "b", "c"], 2)
        assert len(failed) == len(set(failed)) == 2

    def test_crash_sample_too_many(self, net):
        with pytest.raises(ValueError):
            FailureInjector(net).crash_sample(["a"], 2)

    def test_sample_availability_bounds(self, net):
        inj = FailureInjector(net)
        with pytest.raises(ValueError):
            inj.sample_availability(["a"], 1.5)
        assert inj.sample_availability(["a", "b", "c"], 1.0) == []
        failed = inj.sample_availability(["a", "b", "c"], 0.0)
        assert sorted(failed) == ["a", "b", "c"]

    def test_heal_specific(self, net):
        inj = FailureInjector(net)
        inj.crash(["a", "b"])
        inj.heal(["a"])
        assert net.is_available("a")
        assert not net.is_available("b")
        assert inj.currently_failed == ["b"]


class TestLatencyModel:
    def test_window_time_serial_vs_parallel(self, net):
        from repro.sim import LatencyModel

        model = LatencyModel(per_message_s=1.0, per_byte_s=0.0)
        with net.stats.measure("op") as window:
            net.multicast("a", ["b", "c"], "ping")
        # Parallel: depth (request + reply) dominates; serial: all 3 msgs.
        assert model.window_time(window) < model.window_time(window, serial=True)
        assert model.window_time(window, serial=True) == window.messages

    def test_gf_time(self):
        from repro.sim import LatencyModel

        model = LatencyModel(per_gf_symbol_op_s=0.5)
        assert model.gf_time(4) == 2.0
