"""Tests for the latency model, wire sizing protocol, and rng helpers."""

import pytest

from repro.sim.messages import HEADER_BYTES, Message, estimate_size
from repro.sim.rng import DEFAULT_SEED, derive_rng, make_rng
from repro.sim.stats import LatencyModel, MessageStats, OperationWindow


class TestWireSizeProtocol:
    def test_objects_with_wire_size_hook(self):
        class Sized:
            def wire_size(self) -> int:
                return 58

        record = Sized()
        assert estimate_size(record) == 58
        message = Message("a", "b", "kind", record)
        assert message.size == HEADER_BYTES + 58

    def test_nested_containers(self):
        payload = {"ops": [{"delta": b"1234", "rank": 1}]}
        # 3 (key "ops") + inner: 5 ("delta") + 4 (bytes) + 4 ("rank") + 8
        assert estimate_size(payload) == 3 + 5 + 4 + 4 + 8


class TestLatencyModel:
    def test_defaults_reasonable(self):
        model = LatencyModel()
        window = OperationWindow(messages=2, bytes=1000, serial_depth=2)
        t = model.window_time(window)
        # 2 x 30us + 1000 B at 100 Mb/s = 60us + 80us
        assert t == pytest.approx(2 * 30e-6 + 1000 * 8 / 100e6)

    def test_serial_charges_all_messages(self):
        model = LatencyModel(per_message_s=1.0, per_byte_s=0.0)
        window = OperationWindow(messages=10, bytes=0, serial_depth=3)
        assert model.window_time(window) == 3
        assert model.window_time(window, serial=True) == 10

    def test_empty_window(self):
        model = LatencyModel(per_message_s=1.0)
        window = OperationWindow()
        assert model.window_time(window) == 1.0  # max(depth, 1)


class TestStatsHousekeeping:
    def test_total_accumulates_across_windows(self):
        stats = MessageStats()
        with stats.measure("a"):
            stats.record("x", 10, 1)
        with stats.measure("b"):
            stats.record("y", 20, 2)
        assert stats.total.messages == 2
        assert stats.total.bytes == 30
        assert stats.total.by_kind == {"x": 1, "y": 1}

    def test_window_label(self):
        stats = MessageStats()
        with stats.measure("my-op") as window:
            pass
        assert window.label == "my-op"


class TestRng:
    def test_default_seed_deterministic(self):
        assert make_rng().integers(0, 100) == make_rng().integers(0, 100)
        assert make_rng(DEFAULT_SEED).integers(0, 100) == make_rng().integers(0, 100)

    def test_derive_streams_independent(self):
        base = make_rng(1)
        a = derive_rng(base, 1)
        base2 = make_rng(1)
        b = derive_rng(base2, 2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)
