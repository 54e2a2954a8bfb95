"""The LH* data-bucket server.

Each server carries one bucket.  Incoming key operations run Algorithm
(A2): accept if ``h_j(c)`` lands here, otherwise forward — at most two
hops ever happen.  When a forwarded operation is finally accepted, the
acceptor sends the client an IAM with its own level and address so the
client's image converges (A3 on the client side).

Splits arrive as coordinator commands: the server partitions its records
with ``h_{j+1}``, ships the movers to the new bucket in one bulk
message, and bumps its level.
"""

from __future__ import annotations

from typing import Any

from repro.lh import addressing
from repro.lh.bucket import Bucket
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node


class DataServer(Node):
    """One LH* data bucket at one server node."""

    def __init__(self, node_id: str, file_id: str, number: int, level: int,
                 capacity: int, n0: int):
        super().__init__(node_id)
        self.file_id = file_id
        self.bucket = Bucket(number=number, level=level, capacity=capacity)
        self.n0 = n0
        #: messages this server forwarded (A2 second/third hops)
        self.forwards = 0
        #: dedup: last bucket size reported as overflowing (-1 = none)
        self._last_reported_size = -1
        #: dedup: last size reported as underflowing (huge = none)
        self._last_underflow_size = 1 << 30

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def number(self) -> int:
        return self.bucket.number

    @property
    def level(self) -> int:
        return self.bucket.level

    def _data_node(self, m: int) -> str:
        return f"{self.file_id}.d{m}"

    def _coordinator(self) -> str:
        return f"{self.file_id}.coord"

    def _verify(self, key: int) -> int | None:
        """A2: return None to accept, else the forward address."""
        accept, forward = addressing.server_action(
            key, self.number, self.level, self.n0
        )
        return None if accept else forward

    def _forward(self, message: Message) -> None:
        target = self._verify(message.payload["key"])
        assert target is not None
        self.forwards += 1
        payload = dict(message.payload)
        payload["hops"] = payload.get("hops", 0) + 1
        try:
            self.send(self._data_node(target), message.kind, payload)
        except (UnknownNode, NodeUnavailable):
            # Forwarding bucket unavailable or address stale: per the
            # protocol, resend the query to the coordinator, which
            # delivers it from the true file state.
            try:
                self.send(
                    self._coordinator(), "route",
                    {"kind": message.kind, "op": payload},
                )
            except (UnknownNode, NodeUnavailable) as failure:
                failed = getattr(failure, "node_id", None) or (
                    failure.args[0] if failure.args else None
                )
                if failed != self._coordinator():
                    # The coordinator answered; some downstream bucket is
                    # dead — surface that verbatim (A2 fallback contract).
                    raise
                # Coordinator dark too (pre-takeover window): surface a
                # transient fault so the client's retry ladder backs off
                # and replays against the promoted primary.
                raise DeliveryFault(self._coordinator(), "request") from failure

    def _send_iam(self, client: str) -> None:
        """Image adjustment message: my level and address (A3 input)."""
        self.send(client, "iam", {"j": self.level, "a": self.number})

    #: report underflow when occupancy falls below this fraction
    UNDERFLOW_FRACTION = 0.25

    def _after_accept(self, payload: dict) -> None:
        """Common post-accept duties: IAM on forwarded ops, load reports,
        and (when the client tagged the op) an acknowledgement so the
        client's retry loop knows the mutation landed."""
        if payload.get("hops", 0) and payload.get("client"):
            self._send_iam(payload["client"])
        if payload.get("ack") and payload.get("client"):
            self.send(payload["client"], "op.ack",
                      {"token": payload["ack"], "bucket": self.number})
        self._report_overflow_if_needed()

    def _report_overflow_if_needed(self) -> None:
        """Report the bucket's size to the coordinator while overflowing.

        The report is informational: the coordinator's load-control
        policy decides whether a split actually happens (usually of a
        *different* bucket — the split pointer's).  Reports repeat while
        the overflow persists so the coordinator's load estimator stays
        fresh; dedup within one size is enough to avoid pure noise.
        """
        if self.bucket.overflowing:
            size = len(self.bucket)
            # Report only on growth: a delete that leaves the bucket
            # overflowing is not new pressure.
            if size > self._last_reported_size:
                previous = self._last_reported_size
                self._last_reported_size = size
                try:
                    self.send(
                        self._coordinator(),
                        "overflow",
                        {"bucket": self.number, "size": size},
                    )
                except (UnknownNode, NodeUnavailable, DeliveryFault):
                    # Coordinator unreachable (or it crashed while
                    # handling the report): roll the dedup marker back
                    # so the pressure is re-reported to its successor.
                    self._last_reported_size = previous
        else:
            self._last_reported_size = -1

    def _report_underflow_if_needed(self) -> None:
        """Report shrinking occupancy (feeds the merge policy).

        Only deletions call this: reports fire while the bucket sits
        below UNDERFLOW_FRACTION of capacity and its size keeps falling;
        the coordinator's policy decides whether the file shrinks.
        """
        size = len(self.bucket)
        if size < self.bucket.capacity * self.UNDERFLOW_FRACTION:
            if size < self._last_underflow_size:
                previous = self._last_underflow_size
                self._last_underflow_size = size
                try:
                    self.send(
                        self._coordinator(),
                        "underflow",
                        {"bucket": self.number, "size": size},
                    )
                except (UnknownNode, NodeUnavailable, DeliveryFault):
                    self._last_underflow_size = previous
        else:
            self._last_underflow_size = 1 << 30

    # ------------------------------------------------------------------
    # key operation handlers
    # ------------------------------------------------------------------
    def handle_insert(self, message: Message) -> None:
        payload = message.payload
        if self._verify(payload["key"]) is not None:
            self._forward(message)
            return
        self.apply_insert(payload["key"], payload["value"])
        self._after_accept(payload)

    def handle_update(self, message: Message) -> None:
        payload = message.payload
        if self._verify(payload["key"]) is not None:
            self._forward(message)
            return
        found = payload["key"] in self.bucket
        self.apply_update(payload["key"], payload["value"])
        if payload.get("client") and not found:
            self.send(payload["client"], "op.error",
                      {"key": payload["key"], "reason": "update of absent key"})
        self._after_accept(payload)

    def handle_delete(self, message: Message) -> None:
        payload = message.payload
        if self._verify(payload["key"]) is not None:
            self._forward(message)
            return
        self.apply_delete(payload["key"])
        self._after_accept(payload)
        self._report_underflow_if_needed()

    def handle_search(self, message: Message) -> None:
        payload = message.payload
        if self._verify(payload["key"]) is not None:
            self._forward(message)
            return
        key = payload["key"]
        value = self.bucket.records.get(key)
        self.send(
            payload["client"],
            "search.result",
            {
                "request": payload["request"],
                "key": key,
                "found": key in self.bucket,
                "value": value,
            },
        )
        if payload.get("hops", 0):
            self._send_iam(payload["client"])

    # ------------------------------------------------------------------
    # batched key operations (bulk scatter-gather plane)
    # ------------------------------------------------------------------
    def handle_ops_batch(self, message: Message) -> dict:
        """One scattered sub-batch: apply every op, reply per-op results.

        Unlike the scalar handlers there is no server-side forwarding —
        an op this bucket does not own (A2) is refused as ``moved`` with
        the forward address, and the *client* re-bins it; the reply's
        (j, a) doubles as the IAM, applied once per sub-batch.  Load
        reports still fire per op, so a split triggered mid-batch
        happens at exactly the point the scalar sequence would trigger
        it — the remaining ops then see the post-split bucket and are
        refused, landing at the batch boundary.
        """
        results = list(map(self._apply_batch_op, message.payload["ops"]))
        return {"j": self.level, "a": self.number, "results": results}

    def _apply_batch_op(self, op: dict) -> dict | str:
        """Apply one batch op, mirroring the scalar handler's effects
        (same verify, same mutation primitive, same load reports).  A
        plain applied mutation answers with the bare ``"applied"``."""
        kind = op["op"]
        key = op["key"]
        forward = self._verify(key)
        if forward is not None:
            return {"status": "moved", "to": forward}
        if kind == "search":
            found = key in self.bucket
            return {
                "status": "found" if found else "not_found",
                "value": self.bucket.records.get(key),
            }
        if kind == "insert":
            self.apply_insert(key, op["value"])
            self._report_overflow_if_needed()
            return "applied"
        if kind == "update":
            found = key in self.bucket
            self.apply_update(key, op["value"])
            self._report_overflow_if_needed()
            if not found:
                return {"status": "applied",
                        "error": "update of absent key"}
            return "applied"
        if kind == "delete":
            self.apply_delete(key)
            self._report_overflow_if_needed()
            self._report_underflow_if_needed()
            return "applied"
        raise ValueError(f"unknown batch op kind {kind!r}")

    # ------------------------------------------------------------------
    # record mutation primitives (overridden by LH*RS to maintain parity)
    # ------------------------------------------------------------------
    def apply_insert(self, key: int, value: Any) -> None:
        """Store a record that A2 accepted for this bucket."""
        self.bucket.put(key, value)

    def apply_update(self, key: int, value: Any) -> None:
        """Overwrite a record in place (upsert when absent)."""
        self.bucket.put(key, value)

    def apply_delete(self, key: int) -> None:
        """Remove a record; silently ignores absent keys (idempotent)."""
        if key in self.bucket:
            self.bucket.delete(key)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def handle_scan(self, message: Message) -> None:
        payload = message.payload
        assumed = payload.get("assumed_level")
        if assumed is None:
            # Direct from the client: the level my bucket has *in the
            # client's image* — buckets below the image pointer and
            # new-round buckets are at i'+1, the middle range at i'.
            n_img, i_img = payload["image"]
            assumed = addressing.bucket_level(self.number, n_img, i_img, self.n0)
        # Propagate to descendants the sender does not know (LNS96 rule):
        # each split of mine at level l spawned bucket m + 2^l N.
        for l in range(assumed, self.level):
            child = self.number + (1 << l) * self.n0
            forwarded = dict(payload)
            forwarded["assumed_level"] = l + 1
            try:
                self.send(self._data_node(child), "scan", forwarded)
            except (UnknownNode, NodeUnavailable):
                # Dead or displaced child: its silence is what the
                # deterministic-termination check detects.
                continue
        matches = self.scan_matches(payload)
        if payload["deterministic"] or matches:
            self.send(
                payload["client"],
                "scan.reply",
                {
                    "scan": payload["scan"],
                    "bucket": self.number,
                    "level": self.level,
                    "matches": matches,
                },
            )

    def scan_matches(self, payload: dict) -> list[tuple[int, Any]]:
        """Records selected by the scan's non-key predicate."""
        predicate = payload.get("predicate")
        out = []
        for key, value in self.bucket.records.items():
            if predicate is None or predicate(key, value):
                out.append((key, value))
        return out

    # ------------------------------------------------------------------
    # split protocol
    # ------------------------------------------------------------------
    def handle_split(self, message: Message) -> Any:
        """Coordinator command: split into ``target`` at ``new_level``.

        Already at ``new_level`` means a takeover re-sent the command
        after it ran: nothing moves."""
        if self.level >= message.payload["new_level"]:
            return {"moved": 0, "kept": len(self.bucket)}
        target = message.payload["target"]
        stay, move = addressing.split_records(
            list(self.bucket.records.items()),
            lambda item: item[0],
            self.number,
            self.level,
            self.n0,
        )
        self.bucket.records = dict(stay)
        self.bucket.level += 1
        self._last_reported_size = -1
        self.send(
            self._data_node(target),
            "records.bulk",
            {"records": move, "source": self.number},
        )
        self._report_overflow_if_needed()
        return {"moved": len(move), "kept": len(stay)}

    def handle_records_bulk(self, message: Message) -> None:
        """Bulk arrival of records moved by a split or merge.  A key this
        bucket already holds is skipped: its value is at least as new as
        the moved copy, so a second delivery changes nothing."""
        records = self.bucket.records
        for key, value in message.payload["records"]:
            records.setdefault(key, value)
        self._report_overflow_if_needed()

    # ------------------------------------------------------------------
    # merge protocol (file shrink: inverse splits)
    # ------------------------------------------------------------------
    def handle_merge(self, message: Message) -> Any:
        """Coordinator command: this (last) bucket dissolves back into
        the bucket whose split created it."""
        into = message.payload["into"]
        records = list(self.bucket.records.items())
        self.bucket.records = {}
        self.send(
            self._data_node(into),
            "records.bulk",
            {"records": records, "source": self.number},
        )
        return {"moved": len(records)}

    def handle_level_set(self, message: Message) -> None:
        """Coordinator command: adopt a new bucket level (merge source
        widens its hash coverage back to the pre-split level)."""
        self.bucket.level = message.payload["level"]

    # ------------------------------------------------------------------
    # introspection (file-state recovery, tests)
    # ------------------------------------------------------------------
    def handle_status(self, message: Message) -> dict:
        return {
            "bucket": self.number,
            "level": self.level,
            "records": len(self.bucket),
        }
