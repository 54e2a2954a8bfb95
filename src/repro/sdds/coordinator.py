"""The LH* coordinator.

A dedicated node (bucket 0's site in the papers) owning the file state
(n, i).  It receives overflow reports from data servers, applies a load
control policy, and drives splits: allocating the new bucket's server and
commanding the splitting bucket to partition itself.

The split *pointer* order is the linear-hashing order — the bucket that
splits is usually not the one that reported the overflow.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.lh.state import FileState
from repro.sdds.server import DataServer
from repro.sim.messages import Message
from repro.sim.node import Node


@dataclass(frozen=True)
class SplitPolicy:
    """Load control policy deciding when an overflow triggers a split.

    The coordinator "applies a load control policy to find whether it
    should trigger a split" (LH* family).  Three policies are provided:

    * ``mode="estimate"`` (default): maintain a free estimate of the
      file's load factor from overflow reports and split replies, and
      split while the estimate exceeds ``threshold``.  The estimate lags
      the truth (ordinary inserts are invisible to the coordinator), so
      the *true* load stabilizes ~0.10-0.12 above the threshold; the
      default of 0.58 lands the file at the ~70% load the papers report
      for ordinary operation.
    * ``mode="every_overflow"``: split once per overflow report — the
      most eager policy (lowest load factor, fewest overflowing buckets).
    * ``mode="poll"``: poll every bucket for its exact size (costs
      messages) and split while the true load factor exceeds
      ``threshold`` — the paper's high-load-control option (~85%).
    """

    mode: str = "estimate"
    threshold: float = 0.58
    #: merge (shrink) when the estimated load falls below this; 0 = never.
    merge_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("estimate", "every_overflow", "poll"):
            raise ValueError(f"unknown split policy mode {self.mode!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.merge_threshold < 0 or self.merge_threshold >= self.threshold:
            raise ValueError(
                "merge_threshold must be in [0, threshold) for hysteresis"
            )


class Coordinator(Node):
    """Coordinator node for one LH* file."""

    def __init__(
        self,
        node_id: str,
        file_id: str,
        capacity: int,
        n0: int = 1,
        policy: SplitPolicy | None = None,
    ):
        super().__init__(node_id)
        self.file_id = file_id
        self.capacity = capacity
        self.state = FileState(n0=n0)
        self.policy = policy or SplitPolicy()
        self._pending_overflows: list[dict] = []
        self._draining = False
        #: last known record count per bucket (from overflow reports and
        #: split replies) — feeds the free load-factor estimator
        self._sizes: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _data_node(self, m: int) -> str:
        return f"{self.file_id}.d{m}"

    def make_server(self, number: int, level: int) -> DataServer:
        """Server factory; LH*RS overrides to build parity-aware servers."""
        return DataServer(
            node_id=self._data_node(number),
            file_id=self.file_id,
            number=number,
            level=level,
            capacity=self.capacity,
            n0=self.state.n0,
        )

    def bootstrap(self) -> None:
        """Create the initial n0 data buckets (level 0)."""
        for m in range(self.state.n0):
            self._net().register(self.make_server(m, 0))

    # ------------------------------------------------------------------
    # split machinery
    # ------------------------------------------------------------------
    def split_once(self) -> tuple[int, int]:
        """Perform one split; returns (source, target) bucket numbers.

        The state advances *before* the split command runs: the moved
        records can re-trigger overflow handling at the target, and that
        nested handling must already see the new file extent.

        Every step tolerates having run already (group exists, target
        registered, a source at ``new_level`` moves nothing), so a
        takeover re-enters an interrupted split through this same body.
        """
        source, target, new_level = self.state.next_split()
        tracer = self._net().tracer
        if tracer is not None:
            tracer.emit("split.start", source, target, new_level)
        # Group infrastructure first: the new bucket's server factory
        # reads it (LH*RS: parity buckets must exist and be known before
        # the data server is built, or its parity targets come up empty).
        self.on_new_bucket(target, new_level)
        if self._data_node(target) not in self._net().nodes:
            self._net().register(self.make_server(target, new_level))
        self.state.advance_split()
        self._crash_hook("split.mid")
        result = self.call(self._data_node(source), "split",
                           {"target": target, "new_level": new_level})
        self._sizes[source] = result["kept"]
        self._sizes[target] = result["moved"]
        if tracer is not None:
            tracer.emit(
                "split.end", source, target, result["moved"], result["kept"]
            )
        return source, target

    def on_new_bucket(self, number: int, level: int) -> None:
        """Hook for subclasses (LH*RS grows the parity file here)."""

    def _crash_hook(self, point: str) -> None:
        """Hook for subclasses: a named mid-command crash point.

        The HA coordinator arms these for fault injection — the plain
        coordinator never crashes."""

    def merge_once(self) -> tuple[int, int]:
        """Perform one bucket merge (inverse split); returns
        ``(source, target)`` — ``target`` was reabsorbed by ``source``.

        The coordinator sets the source's level back first, so records
        arriving from the dissolving bucket pass its A2 check, then
        commands the dissolution and retires the empty server.  Like
        :meth:`split_once` it tolerates steps already done: the level is
        absolute and a target already unregistered has dissolved.
        """
        if self.state.bucket_count <= self.state.n0:
            raise ValueError("cannot shrink below the initial buckets")
        with self._restructure_lock():
            before = len(self._pending_overflows)
            source, target, level = self.state.retreat_merge()
            self.send(self._data_node(source), "level.set", {"level": level})
            self._crash_hook("merge.mid")
            if self._data_node(target) in self._net().nodes:
                self.call(self._data_node(target), "merge", {"into": source})
                self._net().unregister(self._data_node(target))
            self.on_bucket_removed(target)
            self._sizes.pop(target, None)
            # Overflow reports raised by the merge's own record movement
            # are dropped: acting on them would split right back
            # (ping-pong).  The absorber re-reports on its next insert.
            del self._pending_overflows[before:]
        return source, target

    def on_bucket_removed(self, number: int) -> None:
        """Hook for subclasses (LH*RS retires empty groups' parity)."""

    def handle_underflow(self, message: Message) -> None:
        """A bucket reported running nearly empty after deletions.

        Merging is the load-control mirror image of splitting: shrink
        while the estimated load is below ``merge_threshold`` (disabled
        by default — the papers note deletions are rare in scalable
        files).  Hysteresis versus the split threshold avoids thrash.
        """
        self._sizes[message.payload["bucket"]] = message.payload["size"]
        if self.policy.merge_threshold <= 0:
            return
        while (
            self.state.bucket_count > self.state.n0
            and self._estimated_load_factor() < self.policy.merge_threshold
        ):
            self.merge_once()

    def _global_load_factor(self) -> float:
        """Poll every bucket for its size (costs messages) and average."""
        replies, _ = self._net().multicast(
            self.node_id,
            [self._data_node(m) for m in self.state.buckets()],
            "status",
        )
        total = sum(r["records"] for r in replies.values())
        return total / (self.capacity * self.state.bucket_count)

    def handle_overflow(self, message: Message) -> None:
        """A bucket reported exceeding its capacity.

        Reports queue up and drain one at a time: a split (or merge)
        moves records, which can raise new overflow reports mid-move,
        and those must not interleave with the restructuring in
        progress.
        """
        self._pending_overflows.append(message.payload)
        self._drain_pending()

    def _drain_pending(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._pending_overflows:
                report = self._pending_overflows.pop(0)
                self._handle_one_overflow(report)
        finally:
            self._draining = False

    @contextmanager
    def _restructure_lock(self):
        """Context holding back overflow handling during a merge."""
        already = self._draining
        self._draining = True
        try:
            yield
        finally:
            self._draining = already

    def _estimated_load_factor(self) -> float:
        """Free load estimate: known sizes, mean-imputed for the rest."""
        m = self.state.bucket_count
        if not self._sizes:
            return 1.0  # first report ever: assume full
        known = {b: s for b, s in self._sizes.items() if b < m}
        if not known:
            return 1.0
        mean = sum(known.values()) / len(known)
        total = sum(known.values()) + mean * (m - len(known))
        return total / (self.capacity * m)

    def _handle_one_overflow(self, report: dict) -> None:
        self._sizes[report["bucket"]] = report["size"]
        if self.policy.mode == "every_overflow":
            self.split_once()
            return
        load = (
            self._estimated_load_factor
            if self.policy.mode == "estimate"
            else self._global_load_factor
        )
        while load() > self.policy.threshold:
            self.split_once()

    # ------------------------------------------------------------------
    # queries from clients/servers that lost track of the file
    # ------------------------------------------------------------------
    def handle_state(self, message: Message) -> dict:
        """The file-state — requested by recovery and by lost clients."""
        return {"n": self.state.n, "i": self.state.i, "n0": self.state.n0}

    def handle_route(self, message: Message) -> None:
        """Deliver an operation on behalf of a sender whose addressing
        failed (image past the file, or a forwarding bucket down).

        The coordinator knows the true state, so A1 gives the correct
        bucket directly, bypassing forwarding.  The op is marked as
        forwarded so the acceptor sends a corrective IAM to the client.
        """
        kind = message.payload["kind"]
        op = dict(message.payload["op"])
        op["hops"] = op.get("hops", 0) + 1
        target = self.state.address(op["key"])
        self.deliver_routed(kind, op, target)
        if op.get("client"):
            # Authoritative image fix — unlike A3 IAMs it may shrink the
            # image (needed after merges removed buckets it points at).
            self.send(
                op["client"], "iam.state",
                {"n": self.state.n, "i": self.state.i},
            )

    def deliver_routed(self, kind: str, op: dict, target: int) -> None:
        """Send a routed operation to its correct bucket.  Subclass hook:
        LH*RS intercepts delivery to unavailable buckets and recovers."""
        self.send(self._data_node(target), kind, op)
