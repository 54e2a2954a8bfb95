"""Unit tests for the structured event tracer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import EVENT_TYPES, EVENTS, OMITTED, TraceEvent, Tracer, UnknownEventType
from repro.obs import trace as trace_module


@pytest.fixture
def tracer():
    clock = {"t": 0.0}
    t = Tracer(clock=lambda: clock["t"])
    t._clock_state = clock  # test hook: advance via tracer._clock_state
    return t


class TestEmit:
    def test_emit_records_event(self, tracer):
        event = tracer.emit("msg.send", to="f.d1", kind="insert", size=10)
        assert event.seq == 1
        assert event.type == "msg.send"
        assert event.span == 0
        assert event.attrs == {"to": "f.d1", "kind": "insert", "size": 10}
        assert len(tracer) == 1
        assert tracer.counts == {"msg.send": 1}

    def test_unknown_type_raises(self, tracer):
        with pytest.raises(UnknownEventType):
            tracer.emit("msg.snd", to="x")
        assert len(tracer) == 0

    def test_sequence_is_monotonic(self, tracer):
        seqs = [tracer.emit("msg.send").seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_timestamps_come_from_clock(self, tracer):
        tracer._clock_state["t"] = 7.5
        assert tracer.emit("msg.send").time == 7.5

    def test_clockless_tracer_stamps_zero(self):
        assert Tracer().emit("msg.send").time == 0.0

    def test_registry_covers_all_instrumented_layers(self):
        # A representative of every instrumented subsystem must exist in
        # the taxonomy — removing one silently breaks emission sites.
        for required in (
            "msg.deliver", "fault.injected", "split.start", "merge.end",
            "parity.delta", "recovery.rank", "probe.round", "op.retry",
            "client.unavailable", "availability.raise",
        ):
            assert required in EVENT_TYPES


class TestSpans:
    def test_span_ids_and_parent_links(self, tracer):
        with tracer.span("outer", group=1) as outer:
            assert tracer.current_span == outer.span_id
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                event = tracer.emit("recovery.rank", rank=3)
                assert event.span == inner.span_id
            assert tracer.current_span == outer.span_id
        assert tracer.current_span == 0

    def test_span_emits_start_and_end(self, tracer):
        with tracer.span("recovery", group=2):
            tracer._clock_state["t"] = 4.0
        types = [e.type for e in tracer.events]
        assert types == ["span.start", "span.end"]
        start, end = tracer.events
        assert start.attrs["name"] == "recovery"
        assert start.attrs["group"] == 2
        assert end.attrs["duration"] == 4.0
        assert end.attrs["error"] is False

    def test_span_end_flags_error(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.events[-1].type == "span.end"
        assert tracer.events[-1].attrs["error"] is True

    def test_non_lifo_close_rejected(self, tracer):
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(RuntimeError, match="LIFO"):
            tracer._close_span(outer)


class TestBufferAndTail:
    def test_capacity_bounds_memory(self):
        tracer = Tracer(capacity=10)
        for _ in range(100):
            tracer.emit("msg.send")
        assert len(tracer) == 10
        assert tracer.events[0].seq == 91  # oldest events evicted
        assert tracer.counts["msg.send"] == 100  # counts still exact

    def test_tail_returns_most_recent(self, tracer):
        for i in range(10):
            tracer.emit("msg.send", i=i)
        tail = tracer.tail(3)
        assert [e.attrs["i"] for e in tail] == [7, 8, 9]
        assert tracer.tail(0) == []

    def test_format_tail_renders_one_line_per_event(self, tracer):
        tracer.emit("msg.send", to="f.d1")
        tracer.emit("msg.deliver", to="f.d1")
        text = tracer.format_tail()
        assert len(text.splitlines()) == 2
        assert "msg.deliver" in text
        assert Tracer().format_tail() == "(trace empty)"

    def test_clear_keeps_sequence_counting(self, tracer):
        tracer.emit("msg.send")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emit("msg.send").seq == 2


class TestSerialization:
    def test_to_json_is_canonical(self, tracer):
        tracer._clock_state["t"] = 2.0
        event = tracer.emit("msg.deliver", to="f.d1", kind="insert", size=32)
        line = event.to_json()
        parsed = json.loads(line)
        assert parsed == {
            "seq": 1, "t": 2.0, "type": "msg.deliver", "span": 0,
            "a.kind": "insert", "a.size": 32, "a.to": "f.d1",
        }
        # Compact separators, sorted keys: the byte-stable contract.
        assert " " not in line
        keys = list(parsed)
        assert keys == sorted(keys)

    def test_to_jsonl_joins_with_trailing_newline(self, tracer):
        tracer.emit("msg.send")
        tracer.emit("msg.deliver")
        out = tracer.to_jsonl()
        assert out.endswith("\n")
        assert len(out.splitlines()) == 2

    def test_non_json_attrs_fall_back_to_str(self, tracer):
        event = tracer.emit("msg.send", payload_type=bytes)
        assert "bytes" in event.to_json()


class TestSubscribers:
    def test_subscribers_see_every_event(self, tracer):
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit("msg.send")
        with tracer.span("s"):
            pass
        assert [e.type for e in seen] == ["msg.send", "span.start", "span.end"]

    def test_unsubscribe_detaches(self, tracer):
        seen = []
        tracer.subscribe(seen.append)
        tracer.unsubscribe(seen.append)
        tracer.emit("msg.send")
        assert seen == []


    def test_typed_subscription_sees_only_its_types_as_rows(self, tracer):
        rows, events = [], []
        tracer.subscribe(rows.append, {"msg.deliver"}, rows=True)
        tracer.subscribe(events.append, {"msg.send"})
        tracer.emit("msg.send", "c", "f.d1", "insert", 40, OMITTED)
        tracer.emit("msg.deliver", "c", "f.d1", "insert", 40, 1, OMITTED)
        tracer.emit("node.fail", "f.d1")
        assert rows == [
            (2, 0.0, "msg.deliver", 0, ("c", "f.d1", "insert", 40, 1, OMITTED))
        ]
        assert [e.type for e in events] == ["msg.send"]
        assert isinstance(events[0], TraceEvent)
        tracer.unsubscribe(rows.append)
        tracer.unsubscribe(events.append)
        assert tracer._subscribers == {}

    def test_subscribing_to_an_unknown_type_raises(self, tracer):
        with pytest.raises(UnknownEventType):
            tracer.subscribe(print, {"msg.snd"})


class TestTypedRows:
    """An event is a positional row; the TraceEvent is built on read."""

    def test_positional_emit_stores_a_row_and_returns_nothing(self, tracer):
        assert tracer.emit("msg.lost", "f.d1", "insert", "drop") is None
        (event,) = tracer.events
        assert event.attrs == {"to": "f.d1", "kind": "insert", "reason": "drop"}

    def test_omitted_optional_is_left_out_not_null(self, tracer):
        tracer.emit("msg.send", "c", "f.d1", "insert", 40, OMITTED)
        tracer.emit("msg.send", "c", "f.d1", "insert", 40, None)
        plain, null = tracer.events
        assert "rpc" not in plain.attrs and "a.rpc" not in plain.to_json()
        assert null.attrs["rpc"] is None and '"a.rpc":null' in null.to_json()

    def test_mixing_values_and_names_is_refused(self, tracer):
        with pytest.raises(TypeError):
            tracer.emit("msg.lost", "f.d1", kind="insert")
        assert len(tracer) == 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_row_renders_byte_identically_to_the_named_form(self, data):
        # Every registered type: N positional values and the same values
        # by name serialize to the same line (sequence numbers aligned).
        value = st.one_of(
            st.integers(-2**40, 2**40), st.text(max_size=8),
            st.floats(allow_nan=False, allow_infinity=False), st.none(),
        )
        for type, fields in EVENTS.items():
            values = [data.draw(value) for _ in fields]
            positional, named = Tracer(), Tracer()
            positional.emit(type, *values)
            named.emit(type, **dict(zip(fields, values)))
            assert positional.to_jsonl() == named.to_jsonl()
            assert repr(positional.events[0]) == repr(named.events[0])

    def test_tail_renders_only_what_it_returns(self, monkeypatch):
        tracer = Tracer(capacity=10_000)
        for i in range(10_000):
            tracer.emit("recovery.start", i)
        rendered = []
        real = trace_module.render
        monkeypatch.setattr(
            trace_module, "render",
            lambda row: rendered.append(row[0]) or real(row),
        )
        assert [e.attrs["group"] for e in tracer.tail(3)] == [9997, 9998, 9999]
        assert len(tracer.format_tail(5).splitlines()) == 5
        assert len(rendered) == 8

    def test_retain_keeps_rows_past_the_exposed_capacity(self):
        tracer = Tracer(capacity=5)
        tracer.retain(20)
        for i in range(30):
            tracer.emit("recovery.start", i)
        assert len(tracer) == 5
        assert [e.seq for e in tracer.events] == [26, 27, 28, 29, 30]
        assert [e.seq for e in tracer.tail(20)] == list(range(11, 31))
        assert tracer.to_jsonl().count("\n") == 5
