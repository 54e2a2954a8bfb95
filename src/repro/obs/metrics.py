"""Counters, gauges and bounded-memory histograms for the cluster.

`MessageStats` answers "how many messages did this one window cost";
the registry answers the serving-side questions layered on top: what is
the *distribution* of per-op message counts, how many retries has the
whole run burned, what was the repair time of each probe cycle.  It is
deliberately scrape-shaped — named instruments, label-free, exportable
as text or JSON — so a benchmark table and a future dashboard read the
same numbers.

Histograms are bounded-memory by construction: fixed bucket bounds
chosen at creation, a count per bucket plus sum/min/max — O(buckets)
forever, no reservoir, no per-sample storage.  That keeps a 5,000-op
chaos soak's accounting as small as a 10-op smoke test's.

The bridge from the existing accounting is :meth:`MetricsRegistry.
observe_window`: closing a labelled `MessageStats` window feeds its
message/byte/serial-depth/symbol-op totals into per-label histograms
(see :meth:`~repro.sim.stats.MessageStats.close`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Sequence

#: Default bucket upper bounds for per-op message counts (1+k Δ-parity
#: mutations sit in the low buckets; recoveries and scans in the tail).
MESSAGE_BUCKETS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)
#: Default bucket upper bounds for per-op byte volumes.
BYTE_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
#: Serial depth rarely exceeds a handful of hops.
DEPTH_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16)
#: GF multiply-accumulate ops per window (recovery-dominated).
SYMBOL_BUCKETS = (0, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
#: Retry attempts per operation.
RETRY_BUCKETS = (0, 1, 2, 3, 5, 8)
#: Probe-cycle mean-time-to-repair, in logical clock units.
MTTR_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: End-to-end virtual read latency (service times are ~1 unit, so the
#: healthy fast path lands low and stragglers stretch into the tail).
LATENCY_BUCKETS = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)
#: Inbound service-queue depth observed by each delivery.
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
#: Ops per scattered sub-batch (one ``ops.batch`` message).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (current failed nodes, file size)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bound bucketed distribution: O(len(bounds)) memory forever.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in the implicit +Inf bucket.  Tracks count, sum,
    min and max exactly; quantiles are bucket-resolution estimates.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float], help: str = ""):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # +Inf overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the target bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i < len(self.bounds):
                    return float(self.bounds[i])
                return float(self.max if self.max is not None else self.bounds[-1])
        return float(self.max if self.max is not None else self.bounds[-1])

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """Named instruments, created lazily, exported together.

    Instrument names are dotted paths (``net.messages``,
    ``op.insert.messages``); re-asking for a name returns the existing
    instrument, so emission sites never coordinate creation.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: label -> the instruments one closed window feeds
        self._windows: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self, name: str, bounds: Sequence[float] = MESSAGE_BUCKETS, help: str = ""
    ) -> Histogram:
        inst = self._instruments.get(name)
        if inst is None:
            inst = Histogram(name, bounds, help=help)
            self._instruments[name] = inst
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name!r} already registered as {type(inst).__name__}")
        return inst

    def _get(self, name: str, cls, help: str = ""):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, help=help)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"{name!r} already registered as {type(inst).__name__}")
        return inst

    def get(self, name: str):
        """Look up an instrument without creating it (KeyError if absent)."""
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        return sorted(self._instruments)

    # ------------------------------------------------------------------
    # the MessageStats bridge
    # ------------------------------------------------------------------
    def observe_window(self, window) -> None:
        """Fold one closed `OperationWindow` into per-label histograms.

        Wired via ``MessageStats.metrics``: every labelled window that
        closes lands here, so any code already using
        ``stats.measure("insert")`` feeds ``op.insert.*`` distributions
        with no further changes.
        """
        label = window.label or "unlabelled"
        instruments = self._windows.get(label)
        if instruments is None:
            prefix = f"op.{label}"
            instruments = self._windows[label] = (
                self.histogram(f"{prefix}.messages", MESSAGE_BUCKETS),
                self.histogram(f"{prefix}.bytes", BYTE_BUCKETS),
                self.histogram(f"{prefix}.serial_depth", DEPTH_BUCKETS),
                self.counter(f"{prefix}.ops"),
            )
        messages, volume, depth, ops = instruments
        messages.observe(window.messages)
        volume.observe(window.bytes)
        depth.observe(window.serial_depth)
        if window.symbol_ops:
            self.histogram(f"op.{label}.symbol_ops", SYMBOL_BUCKETS).observe(
                window.symbol_ops
            )
        ops.inc()

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Snapshot every instrument, name-sorted (JSON-ready)."""
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Flat ``name value`` exposition (counters/gauges) with
        ``count/mean/p50/p99`` summaries for histograms."""
        lines: list[str] = []
        for name in self.names():
            inst = self._instruments[name]
            snap = inst.snapshot()
            if snap["type"] == "histogram":
                lines.append(
                    f"{name} count={snap['count']} mean={snap['mean']:.3g} "
                    f"p50={snap['p50']:g} p99={snap['p99']:g} max={snap['max'] or 0:g}"
                )
            else:
                value = snap["value"]
                rendered = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"{name} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        self._instruments.clear()
        self._windows.clear()

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


def default_histograms(registry: MetricsRegistry) -> None:
    """Pre-register the standard cluster instruments.

    Optional — instruments are lazily created anyway — but pinning them
    up front makes empty exports self-describing.
    """
    registry.counter("net.messages", "messages delivered")
    registry.counter("net.bytes", "payload bytes delivered")
    registry.counter("faults.injected", "fault-plane drop/fail/dup/delay events")
    registry.counter("retry.attempts", "client+parity retransmissions")
    registry.histogram("probe.mttr", MTTR_BUCKETS, "probe-cycle repair time")
    registry.histogram("recovery.ranks", SYMBOL_BUCKETS, "ranks decoded per recovery")
