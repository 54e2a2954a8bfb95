"""Tests for the streaming invariant auditor.

Synthetic streams pin each rule in isolation; the seeded-failure tests
then reproduce a real violation end-to-end on a live file — the
acceptance demand that a *deliberately corrupted* run fails loudly with
the offending event and the trace tail printed.
"""

import pytest

from repro.core import LHRSConfig, LHRSFile, RecoveryError
from repro.core.group import parity_node
from repro.obs import InvariantAuditor, InvariantViolation, TraceEvent, Tracer
from repro.sim.messages import Message


@pytest.fixture
def tracer():
    return Tracer()


def small_file():
    file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                               bucket_capacity=16))
    tracer, metrics, auditor = file.enable_observability()
    return file, tracer, auditor


class TestNoDeliveryToFailed:
    def test_delivery_to_failed_node_violates(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        tracer.emit("node.fail", node="f.d1")
        tracer.emit("msg.deliver", **{"from": "c"}, to="f.d1", kind="insert")
        assert len(auditor.violations) == 1
        assert auditor.violations[0].rule == "no-delivery-to-failed"

    def test_restore_clears_failure_state(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        tracer.emit("node.fail", node="f.d1")
        tracer.emit("node.restore", node="f.d1")
        tracer.emit("msg.deliver", to="f.d1", kind="insert")
        assert auditor.violations == []

    def test_unregister_clears_failure_state(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        tracer.emit("node.fail", node="f.d1")
        tracer.emit("node.unregister", node="f.d1")
        tracer.emit("msg.deliver", to="f.d1", kind="insert")
        assert auditor.violations == []

    def test_strict_mode_raises_in_stack(self, tracer):
        InvariantAuditor(tracer, strict=True)
        tracer.emit("node.fail", node="f.d1")
        with pytest.raises(InvariantViolation):
            tracer.emit("msg.deliver", to="f.d1", kind="insert")


class TestGapImpliesFault:
    def test_gap_without_declared_fault_violates(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        tracer.emit("parity.delta", node="f.p0.0", pos=1, seq=9,
                    expected=3, verdict="stale", op="insert")
        assert [v.rule for v in auditor.violations] == ["gap-implies-fault"]

    @pytest.mark.parametrize("evidence_type,attrs", [
        ("fault.injected", {"outcome": "drop", "kind": "parity.update",
                            "to": "f.p0.0"}),
        ("msg.lost", {"to": "f.p0.0", "kind": "parity.update",
                      "reason": "drop"}),
        ("msg.hold", {"to": "f.p0.0", "kind": "op.ack", "release_at": 5.0}),
        ("node.fail", {"node": "f.d1"}),
    ])
    def test_gap_after_any_fault_evidence_is_expected(self, evidence_type, attrs):
        tracer = Tracer()
        auditor = InvariantAuditor(tracer, strict=True)
        tracer.emit(evidence_type, **attrs)
        tracer.emit("parity.delta", node="f.p0.0", pos=1, seq=9,
                    expected=3, verdict="stale", op="insert")
        assert auditor.violations == []

    def test_apply_and_duplicate_verdicts_are_clean(self, tracer):
        auditor = InvariantAuditor(tracer, strict=True)
        tracer.emit("parity.delta", node="f.p0.0", pos=0, seq=1,
                    expected=1, verdict="apply", op="insert")
        tracer.emit("parity.delta", node="f.p0.0", pos=0, seq=1,
                    expected=2, verdict="duplicate", op="insert")
        assert auditor.violations == []


class TestViolationRendering:
    def test_str_carries_event_and_tail(self, tracer):
        auditor = InvariantAuditor(tracer, tail=5, strict=False)
        for i in range(10):
            tracer.emit("msg.send", to="f.d0", i=i)
        tracer.emit("node.fail", node="f.d1")
        tracer.emit("msg.deliver", to="f.d1", kind="insert")
        text = str(auditor.violations[0])
        assert "no-delivery-to-failed" in text
        assert "offending event" in text
        assert "trace tail (5 events)" in text
        assert "msg.deliver" in text

    def test_assert_clean_raises_first(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        auditor.assert_clean()  # clean: no-op
        tracer.emit("node.fail", node="x")
        tracer.emit("msg.deliver", to="x", kind="insert")
        with pytest.raises(InvariantViolation):
            auditor.assert_clean()

    def test_close_detaches(self, tracer):
        auditor = InvariantAuditor(tracer, strict=True)
        auditor.close()
        tracer.emit("node.fail", node="x")
        tracer.emit("msg.deliver", to="x", kind="insert")
        assert auditor.violations == []
        assert tracer._subscribers == {}  # no typed registration left

    def test_rule_events_are_taken_only_while_their_rule_can_fire(self, tracer):
        auditor = InvariantAuditor(tracer, strict=False)
        def watched():
            return {"msg.deliver", "parity.delta"} & set(tracer._subscribers)

        assert watched() == {"parity.delta"}  # nobody down, no evidence
        tracer.emit("node.fail", node="a")
        tracer.emit("node.fail", node="b")
        assert watched() == {"msg.deliver"}  # gaps are expected from now on
        tracer.emit("node.restore", node="a")
        assert watched() == {"msg.deliver"}
        tracer.emit("node.unregister", node="b")
        assert watched() == set()
        tracer.emit("node.fail", node="a")
        tracer.emit("msg.deliver", to="a", kind="insert")
        assert [v.rule for v in auditor.violations] == ["no-delivery-to-failed"]

    def test_tail_comes_from_the_ring_past_the_trace_capacity(self):
        file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                                   bucket_capacity=16))
        tracer, _, auditor = file.enable_observability(
            trace_capacity=50, audit_tail=200, strict=False
        )
        for key in range(80):
            file.insert(key, b"v%d" % key)
        assert auditor.events_seen > 200 and len(tracer) == 50
        tracer.emit("node.fail", node="f.d0")
        tracer.emit("msg.deliver", to="f.d0", kind="insert")
        violation = auditor.violations[0]
        assert len(violation.tail) == 200
        assert violation.tail[-1].seq == violation.event.seq == tracer.emitted
        assert "trace tail (200 events)" in str(violation)

    def test_tail_is_no_longer_than_the_events_seen(self):
        tracer = Tracer()
        for _ in range(25):
            tracer.emit("msg.send")  # before attach: not the auditor's
        auditor = InvariantAuditor(tracer, tail=200, strict=False)
        for _ in range(8):
            tracer.emit("msg.send")
        tracer.emit("node.fail", node="x")
        tracer.emit("msg.deliver", to="x", kind="insert")  # event 10
        assert auditor.events_seen == 10
        assert [e.seq for e in auditor.violations[0].tail] == list(range(26, 36))


class TestAttachToFileInService:
    """An auditor attached late starts from the network's failure state."""

    @staticmethod
    def degraded_file():
        file = LHRSFile(LHRSConfig(group_size=4, bucket_capacity=16,
                                   availability=2, auto_recover=False))
        for key in range(300):
            file.insert(key, b"v%d" % key)
        file.network.fail("f.p0.0")
        for key in range(20):
            try:
                file.update(key, b"w%d" % key)
            except RecoveryError:
                pass  # f.p0.0 is reported down and auto_recover is off
        return file

    def test_gap_after_a_failure_older_than_the_auditor_is_expected(self):
        file = self.degraded_file()
        _, _, auditor = file.enable_observability()
        assert auditor.failed == file.network.failed == {"f.p0.0"}
        assert auditor.fault_evidence > 0
        file.network.restore("f.p0.0")
        assert auditor.failed == set()
        # f.p0.0 missed Δs while it was down: it sees a gap and reports
        # stale, which is this file's (auto_recover=False) answer — not
        # an InvariantViolation on "a trace with no declared failures".
        with pytest.raises(RecoveryError, match="stale parity"):
            file.update(0, b"again")
        assert auditor.violations == []
        assert file.tracer.counts.get("parity.delta", 0) > 0

    def test_delivery_to_a_node_that_was_already_down_still_violates(self):
        file = self.degraded_file()
        file.enable_observability()
        net = file.network
        net.failed.discard("f.p0.0")  # a bypass: no node.restore event
        with pytest.raises(InvariantViolation) as err:
            net._deliver(Message("f.d0", "f.p0.0", "parity.update", {}))
        assert err.value.rule == "no-delivery-to-failed"

    def test_fault_plane_history_counts_as_evidence(self):
        from repro.sim import FaultPlane

        file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                                   bucket_capacity=16))
        plane = FaultPlane()
        file.network.install_fault_plane(plane)
        tracer = Tracer()
        assert InvariantAuditor(tracer, network=file.network).fault_evidence == 0
        plane.counters["dropped"] += 1
        assert InvariantAuditor(tracer, network=file.network).fault_evidence == 1


class TestCostGuard:
    """Timing-free: with only the auditor subscribed, scalar traffic
    builds no TraceEvent and no attribute dict."""

    def test_scalar_ops_render_nothing(self, monkeypatch):
        file = LHRSFile(LHRSConfig(group_size=4, availability=1,
                                   bucket_capacity=64))
        tracer, _, auditor = file.enable_observability(trace_capacity=500)
        built = []
        init = TraceEvent.__init__
        monkeypatch.setattr(
            TraceEvent, "__init__",
            lambda self, *args: built.append(args[2]) or init(self, *args),
        )
        for key in range(400):
            file.insert(key, b"v%d" % key)
        for key in range(300):
            file.update(key, b"w%d" % key)
        for key in range(300):
            file.search(key)
        assert tracer.emitted > 4_000 and auditor.events_seen == tracer.emitted
        assert built == []  # attrs dicts are built only inside render()
        assert len(tracer.tail(7)) == 7 and len(built) == 7


class TestSeededViolationOnLiveFile:
    """The acceptance reproduction: corrupt a live run, watch it fail."""

    def test_forged_future_seq_reproduces_gap_violation(self):
        file, tracer, auditor = small_file()
        for key in range(12):
            file.insert(key, b"v%d" % key)

        # Forge a Δ from the future: seq far beyond the channel. On a
        # trace with no declared faults the auditor must fail the run at
        # this exact message, with the trace tail attached.
        target = parity_node("f", 0, 0)
        with pytest.raises(InvariantViolation) as err:
            file.network.send(
                "f.d0", target, "parity.update",
                {"runs": [["insert", 0, 999, [999], [0], [b"\x01\x02"], [2]]]},
            )
        text = str(err.value)
        assert err.value.rule == "gap-implies-fault"
        assert "parity.delta" in text
        assert "trace tail" in text
        assert err.value.event.attrs["verdict"] == "stale"
        assert auditor.violations  # recorded as well as raised

    def test_clean_run_passes_check_file(self):
        file, tracer, auditor = small_file()
        for key in range(25):
            file.insert(key, b"v%d" % key)
        assert auditor.check_file(file) == []
        assert auditor.violations == []

    def test_check_file_detects_channel_ahead_and_behind(self):
        file, tracer, auditor = small_file()
        auditor.strict = False
        for key in range(12):
            file.insert(key, b"v%d" % key)
        server = file.network.nodes["f.d0"]
        parity = file.network.nodes[server.parity_targets[0]]
        true_seq = server._parity_seq

        parity._expected_seq[server.position] = true_seq + 5
        problems = auditor.check_file(file)
        assert any("AHEAD" in p for p in problems)
        assert [v.rule for v in auditor.violations] == ["parity-generation"]

        parity._expected_seq[server.position] = true_seq  # generation - 1
        assert any("behind" in p for p in auditor.check_file(file))

        parity._expected_seq[server.position] = true_seq + 1
        assert auditor.check_file(file) == []

    def test_check_file_flags_unflushed_deltas(self):
        file, tracer, auditor = small_file()
        auditor.strict = False
        for key in range(8):
            file.insert(key, b"x")
        server = file.network.nodes["f.d0"]
        server._parity_queue.append({"op": "insert", "key": 1})
        try:
            problems = auditor.check_file(file)
            assert any("leaked hold" in p for p in problems)
        finally:
            server._parity_queue.clear()
