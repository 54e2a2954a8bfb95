"""Unit tests for the metrics registry and its MessageStats bridge."""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_histograms,
)
from repro.obs.metrics import MESSAGE_BUCKETS, RETRY_BUCKETS
from repro.sim.stats import MessageStats


class TestCounter:
    def test_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_snapshot(self):
        assert Counter("x").snapshot() == {"type": "counter", "value": 0}


class TestGauge:
    def test_up_and_down(self):
        g = Gauge("x")
        g.set(3.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 2.0
        assert g.snapshot()["type"] == "gauge"


class TestHistogram:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram("x", ())
        with pytest.raises(ValueError):
            Histogram("x", (3, 1, 2))

    def test_bucketing_and_exact_aggregates(self):
        h = Histogram("x", (1, 2, 5))
        for v in (0, 1, 2, 3, 100):
            h.observe(v)
        assert h.counts == [2, 1, 1, 1]  # <=1, <=2, <=5, +Inf
        assert h.count == 5
        assert h.sum == 106
        assert h.min == 0
        assert h.max == 100
        assert h.mean == pytest.approx(21.2)

    def test_bounded_memory(self):
        # O(len(bounds)) forever: a million observations allocate nothing.
        h = Histogram("x", MESSAGE_BUCKETS)
        for i in range(10_000):
            h.observe(i % 300)
        assert len(h.counts) == len(MESSAGE_BUCKETS) + 1
        assert h.count == 10_000

    def test_quantiles_are_bucket_resolution(self):
        h = Histogram("x", (1, 2, 5, 10))
        for v in (1, 1, 1, 2, 2, 5, 5, 5, 5, 10):
            h.observe(v)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 10.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram("x", (1,)).quantile(0.5) == 0.0

    def test_overflow_quantile_reports_observed_max(self):
        h = Histogram("x", (1,))
        h.observe(999)
        assert h.quantile(0.99) == 999.0

    def test_snapshot_shape(self):
        h = Histogram("x", (1, 2))
        h.observe(1)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["bounds"] == [1, 2]
        assert snap["counts"] == [1, 0, 0]
        assert {"count", "sum", "min", "max", "mean", "p50", "p99"} <= set(snap)


class TestRegistry:
    def test_lazy_creation_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", RETRY_BUCKETS) is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.counter("h")

    def test_get_and_contains(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        assert "a" in reg
        assert "b" not in reg
        assert reg.get("a").value == 1
        with pytest.raises(KeyError):
            reg.get("b")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.reset()
        assert reg.names() == []

    def test_default_histograms_pin_standard_names(self):
        reg = MetricsRegistry()
        default_histograms(reg)
        for name in ("net.messages", "retry.attempts", "probe.mttr"):
            assert name in reg


class TestStatsBridge:
    def test_labelled_windows_feed_per_op_histograms(self):
        stats = MessageStats()
        reg = MetricsRegistry()
        stats.metrics = reg
        for _ in range(3):
            with stats.measure("insert"):
                stats.record("insert", 100, 1)
                stats.record("parity.update", 50, 2)
        assert reg.get("op.insert.ops").value == 3
        messages = reg.get("op.insert.messages")
        assert messages.count == 3
        assert messages.mean == 2.0
        assert reg.get("op.insert.bytes").mean == 150.0
        assert reg.get("op.insert.serial_depth").max == 2

    def test_reset_forgets_the_per_label_instruments(self):
        # observe_window keeps its instruments per label; a reset must
        # not leave it feeding histograms the registry no longer holds.
        stats = MessageStats()
        reg = MetricsRegistry()
        stats.metrics = reg
        with stats.measure("insert"):
            stats.record("insert", 100, 1)
        reg.reset()
        with stats.measure("insert"):
            stats.record("insert", 100, 1)
        assert reg.get("op.insert.ops").value == 1
        assert reg.get("op.insert.messages").count == 1

    def test_unlabelled_windows_are_not_observed(self):
        stats = MessageStats()
        reg = MetricsRegistry()
        stats.metrics = reg
        with stats.measure():
            stats.record("insert", 10, 1)
        assert reg.names() == []

    def test_no_registry_no_error(self):
        stats = MessageStats()
        with stats.measure("insert"):
            stats.record("insert", 10, 1)  # must not blow up


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("net.messages", "delivered").inc(7)
        reg.gauge("nodes.down").set(2.0)
        h = reg.histogram("op.insert.messages", MESSAGE_BUCKETS)
        h.observe(3)
        h.observe(5)
        return reg

    def test_to_dict_and_json_roundtrip(self):
        reg = self._populated()
        parsed = json.loads(reg.to_json())
        assert parsed == reg.to_dict()
        assert parsed["net.messages"]["value"] == 7
        assert parsed["op.insert.messages"]["count"] == 2

    def test_to_text_one_line_per_instrument(self):
        text = self._populated().to_text()
        lines = text.splitlines()
        assert len(lines) == 3
        assert "net.messages 7" in lines
        assert any(line.startswith("op.insert.messages count=2") for line in lines)
        assert MetricsRegistry().to_text() == ""
