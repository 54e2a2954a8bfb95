"""Message accounting and the message→time latency model.

The papers evaluate SDDS operations by *number of messages*, a
network-invariant measure; wall-clock claims are then derived from the
network and CPU speeds.  ``MessageStats`` counts messages globally and
inside nestable per-operation windows; ``LatencyModel`` converts a
window's counts into simulated seconds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class OperationWindow:
    """Counters for one logical operation (one key search, one recovery...)."""

    label: str = ""
    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    #: Longest chain of causally-dependent messages (serial depth).  The
    #: network tracks this as the current call-stack depth, so parallel
    #: fan-out (multicast + replies) charges depth 2, not 2M.
    serial_depth: int = 0
    #: GF multiply-accumulate symbol operations charged to this window.
    #: Batched 2D kernels perform the same symbol work in far fewer numpy
    #: dispatches, so the CPU model counts *symbols touched*, never
    #: kernel calls — a batched rebuild reports the same symbol_ops as a
    #: record-at-a-time one.
    symbol_ops: int = 0

    def record(self, kind: str, size: int, depth: int) -> None:
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] += 1
        if depth > self.serial_depth:
            self.serial_depth = depth

    def record_symbols(self, ops: int) -> None:
        self.symbol_ops += ops


class MessageStats:
    """Global counters plus a stack of open operation windows."""

    def __init__(self) -> None:
        self.total = OperationWindow(label="total")
        self._stack: list[OperationWindow] = []
        #: optional MetricsRegistry: every labelled window that closes
        #: is folded into its per-operation histograms (set by
        #: ``Network.install_metrics``; None = off, zero overhead)
        self.metrics = None

    # ------------------------------------------------------------------
    def record(self, kind: str, size: int, depth: int) -> None:
        """Record one message into the global and all open windows."""
        total = self.total
        total.messages += 1
        total.bytes += size
        total.by_kind[kind] += 1
        if depth > total.serial_depth:
            total.serial_depth = depth
        for window in self._stack:
            window.record(kind, size, depth)

    def record_symbols(self, ops: int) -> None:
        """Charge GF symbol work into the global and all open windows."""
        self.total.record_symbols(ops)
        for window in self._stack:
            window.record_symbols(ops)

    # ------------------------------------------------------------------
    def open(self, label: str = "") -> OperationWindow:
        """Open a nested accounting window; close with :meth:`close`."""
        window = OperationWindow(label=label)
        self._stack.append(window)
        return window

    def close(self, window: OperationWindow) -> OperationWindow:
        """Close a window opened earlier (must close inner-to-outer)."""
        if not self._stack or self._stack[-1] is not window:
            raise RuntimeError("operation windows must close LIFO")
        closed = self._stack.pop()
        if self.metrics is not None and closed.label:
            self.metrics.observe_window(closed)
        return closed

    class _WindowContext:
        def __init__(self, stats: "MessageStats", label: str):
            self.stats = stats
            self.label = label
            self.window: OperationWindow | None = None

        def __enter__(self) -> OperationWindow:
            self.window = self.stats.open(self.label)
            return self.window

        def __exit__(self, *exc_info) -> None:
            assert self.window is not None
            self.stats.close(self.window)

    def measure(self, label: str = "") -> "MessageStats._WindowContext":
        """``with stats.measure("insert") as w: ...`` convenience."""
        return MessageStats._WindowContext(self, label)

    def reset(self) -> None:
        """Zero the global counters (open windows are unaffected)."""
        self.total = OperationWindow(label="total")


@dataclass(frozen=True)
class LatencyModel:
    """Maps an operation window to simulated seconds.

    Defaults approximate the paper's era scaled to a modern LAN: ~30 µs
    per message of fixed cost plus 100 Mb/s of throughput, with a CPU
    term for GF symbol operations during recovery.  The *ratios* are what
    shape the reproduced curves; absolute values are configuration.
    """

    per_message_s: float = 30e-6
    per_byte_s: float = 8 / 100e6  # 100 Mb/s
    per_gf_symbol_op_s: float = 2e-9

    def window_time(self, window: OperationWindow, serial: bool = False) -> float:
        """Simulated seconds for a window.

        ``serial=True`` charges every message sequentially (a client doing
        one thing at a time); the default charges the serial depth for the
        fixed cost and the full byte volume for the bandwidth term,
        modelling parallel fan-out phases.  GF symbol work recorded into
        the window (decode/encode during recovery) adds its CPU term.
        """
        fixed = window.messages if serial else max(window.serial_depth, 1)
        return (
            fixed * self.per_message_s
            + window.bytes * self.per_byte_s
            + window.symbol_ops * self.per_gf_symbol_op_s
        )

    def gf_time(self, symbol_ops: int) -> float:
        """CPU seconds for ``symbol_ops`` GF multiply-accumulate steps."""
        return symbol_ops * self.per_gf_symbol_op_s
