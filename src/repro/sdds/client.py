"""The LH* client: key operations and scans from a private image.

Clients never see the true file state.  They address with their image
(A1), servers fix misdirected requests (A2), and IAMs pull the image
forward (A3).  Because simulator delivery is synchronous, a client method
returns after every consequence of its request — forwards, IAM, reply —
has been delivered, so results can be read from the client's buffers.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.lh import addressing
from repro.lh.image import ClientImage
from repro.obs.metrics import BATCH_SIZE_BUCKETS
from repro.obs.trace import OMITTED
from repro.sim.faults import RetryPolicy
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node


class OperationFailed(RuntimeError):
    """A client operation exhausted its retry budget without confirmation.

    Raised only after the full escalation ladder ran dry: every attempt
    either hit a transient delivery fault or (with write acks) went
    unacknowledged past the backoff window.  The operation may or may
    not have taken effect — exactly the at-least-once uncertainty a real
    client faces on timeout.
    """

    def __init__(self, kind: str, key: int, attempts: int):
        super().__init__(
            f"{kind} of key {key} unconfirmed after {attempts} attempts"
        )
        self.kind = kind
        self.key = key
        self.attempts = attempts


@dataclass
class SearchOutcome:
    """Result of one key search."""

    key: int
    found: bool
    value: Any = None


@dataclass
class OpOutcome:
    """Per-key result of one operation inside a batch.

    ``status`` is ``"ok"`` (mutation applied), ``"found"`` /
    ``"not_found"`` (search), or ``"failed"`` (the retry ladder ran dry
    — the batch call surfaces this per key instead of raising).
    """

    key: int
    status: str
    value: Any = None
    error: str | None = None


@dataclass
class BatchOutcome:
    """Gathered result of one ``*_many`` call.

    ``outcomes[i]`` corresponds to the i-th submitted operation.
    ``applied_order`` lists operation indices in the order their effects
    were confirmed at the buckets — the replay order an oracle must use
    to reproduce the batch scalar-sequentially (sub-batches apply in
    call order; ops within a sub-batch in submission order; re-binned
    and fallback ops later).  ``messages`` counts batch-plane messages
    (one request + one reply per successful ``ops.batch`` call);
    fallback scalar traffic is visible in the network's MessageStats.
    """

    outcomes: list["OpOutcome | None"]
    applied_order: list[int] = field(default_factory=list)
    batched_ops: int = 0
    scalar_ops: int = 0
    messages: int = 0

    @property
    def ok(self) -> bool:
        return all(o is not None and o.status != "failed"
                   for o in self.outcomes)

    @property
    def failed_keys(self) -> list[int]:
        return [o.key for o in self.outcomes
                if o is not None and o.status == "failed"]


@dataclass
class ScanResult:
    """Result of one scan (parallel non-key search)."""

    records: list[tuple[int, Any]]
    complete: bool
    buckets_heard: int
    expected_buckets: int | None = None
    missing: list[int] = field(default_factory=list)


class Client(Node):
    """An application's access point to one LH* file."""

    #: bounded image-convergence rounds for a scattered batch before the
    #: leftovers fall back to the scalar per-op path (A2 forwarding there
    #: guarantees completion regardless of image staleness)
    _BATCH_ROUNDS = 8

    def __init__(
        self,
        node_id: str,
        file_id: str,
        n0: int = 1,
        retry: RetryPolicy | None = None,
        ack_writes: bool = False,
        coord_replicas: int = 0,
        batch_max_ops: int = 256,
    ):
        super().__init__(node_id)
        self.file_id = file_id
        self.image = ClientImage(n0=n0)
        #: ceiling on ops per scattered ``ops.batch`` message
        self.batch_max_ops = batch_max_ops
        #: how many standby coordinator replicas exist (the whois pull
        #: path walks <file>.coord.r1 .. .rN when the primary is dark)
        self.coord_replicas = coord_replicas
        self._results: dict[int, dict] = {}
        self._scan_replies: dict[int, list[dict]] = {}
        self._request_counter = 0
        self.last_error: dict | None = None
        #: retry/backoff discipline against transient faults (None = one
        #: attempt, the papers' fault-free behaviour)
        self.retry = retry
        #: tag mutations for server acknowledgement and retry unacked ones
        self.ack_writes = ack_writes
        self._acks: set[int] = set()
        #: stable per-sender salt decorrelating jittered backoff (see
        #: RetryPolicy.delay; inert on the default no-jitter path)
        self._retry_salt = zlib.crc32(node_id.encode())
        #: model-checking history recorder (repro.check; None = off).
        #: Public entry points record invoke/response intervals; an
        #: OperationFailed leaves the interval open — the ambiguous,
        #: may-or-may-not-have-applied case the checker must model.
        self.recorder = None
        self._recorder_pause = 0

    def _active_recorder(self):
        """The recorder, unless recording is off or suspended (batch
        internals re-enter the scalar ops they already recorded)."""
        if self.recorder is not None and not self._recorder_pause:
            return self.recorder
        return None

    # ------------------------------------------------------------------
    def _data_node(self, m: int) -> str:
        return f"{self.file_id}.d{m}"

    def _next_request(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _send_op(self, kind: str, payload: dict) -> None:
        """Address by image; fall back to the coordinator when needed.

        A3 images can point slightly past the real file: the node the
        client addresses then does not carry the bucket (in a deployment
        it is a hot spare or repurposed server).  Per the protocol, the
        request is resent to the coordinator, which delivers it from the
        true file state; the accepting server sends an IAM.  The same
        fallback serves when the addressed server is unavailable —
        subclasses decide what else to do then (LH*RS starts recovery).
        """
        key = payload["key"]
        self._validate_key(key)
        target = self._data_node(self.image.address(key))
        try:
            self.send(target, kind, payload)
        except UnknownNode:
            self._route_via_coordinator(kind, payload)
        except NodeUnavailable as failure:
            self.on_unavailable(kind, payload, failure)

    @staticmethod
    def _validate_key(key: Any) -> None:
        # A plain int first: the ABC check below costs a Python-level
        # __instancecheck__ on every op.
        if type(key) is int and key >= 0:
            return
        if (
            not isinstance(key, numbers.Integral)
            or isinstance(key, bool)
            or key < 0
        ):
            raise ValueError(
                f"keys are non-negative integers (linear hashing domain); "
                f"got {key!r}"
            )

    def _route_via_coordinator(self, kind: str, payload: dict) -> None:
        routed = dict(payload)
        # Mark as forwarded so the acceptor sends a corrective IAM.
        routed["hops"] = routed.get("hops", 0) + 1
        self._coord_send("route", {"kind": kind, "op": routed})

    # ------------------------------------------------------------------
    # coordinator failover
    # ------------------------------------------------------------------
    def _coord_send(self, kind: str, payload: dict) -> None:
        """Send to the coordinator, failing over to a standby if dark.

        The coordinator *identity* is stable — a promoted standby
        re-registers under ``<file>.coord`` — so failover is not a
        re-address but a wait-for-succession: ask the standbys who the
        primary is (``coord.whois``), back off for the remaining lease
        when told to, and resend once one vouches for a live primary.
        """
        coord_id = f"{self.file_id}.coord"
        try:
            self.send(coord_id, kind, payload)
            return
        except (NodeUnavailable, UnknownNode):
            if not self._failover_coordinator():
                raise
        self.send(coord_id, kind, payload)

    def _failover_coordinator(self) -> bool:
        """Drive the whois pull path; True once a live primary answers.

        Bounded: each standby is asked at most a handful of times, and a
        ``retry_after`` answer advances the clock by the remaining lease
        — which is exactly what lets the standby's own lease monitor
        fire and perform the takeover.
        """
        if not self.coord_replicas:
            return False
        network = self._net()
        coord_id = f"{self.file_id}.coord"
        standbys = [
            f"{coord_id}.r{j}" for j in range(1, self.coord_replicas + 1)
        ]
        for _ in range(4 * len(standbys)):
            if network.is_available(coord_id):
                return True
            for standby_id in standbys:
                try:
                    reply = self.call(standby_id, "coord.whois")
                except (NodeUnavailable, UnknownNode, DeliveryFault):
                    continue
                if reply.get("ready"):
                    return True
                retry_after = reply.get("retry_after")
                if retry_after is not None:
                    # Sit out the remaining lease; the advance runs the
                    # standbys' lease monitors, so by the time it
                    # returns one of them has usually promoted.
                    network.advance(float(retry_after) + 0.5)
                    break
        return network.is_available(coord_id)

    def on_unavailable(self, kind: str, payload: dict,
                       failure: NodeUnavailable) -> None:
        """Hook: the addressed bucket's server is down.  Plain LH* has no
        recovery — surface the failure.  LH*RS overrides this."""
        raise failure

    # ------------------------------------------------------------------
    # incoming
    # ------------------------------------------------------------------
    def handle_iam(self, message: Message) -> None:
        self.image.adjust(message.payload["j"], message.payload["a"])

    def handle_iam_state(self, message: Message) -> None:
        """Authoritative image correction from the coordinator.

        Sent with routed deliveries; unlike server IAMs (A3, which never
        regress an image) this may shrink the image — the case after the
        file has merged buckets away beneath a stale image.
        """
        self.image.n = message.payload["n"]
        self.image.i = message.payload["i"]
        self.image.adjustments += 1

    def handle_search_result(self, message: Message) -> None:
        self._results[message.payload["request"]] = message.payload

    def handle_op_error(self, message: Message) -> None:
        self.last_error = message.payload

    def handle_op_ack(self, message: Message) -> None:
        self._acks.add(message.payload["token"])

    def handle_scan_reply(self, message: Message) -> None:
        bucket_list = self._scan_replies.get(message.payload["scan"])
        if bucket_list is not None:
            bucket_list.append(message.payload)

    # ------------------------------------------------------------------
    # key operations
    # ------------------------------------------------------------------
    def _wait(self, attempt: int) -> None:
        """Back off after a failed attempt (advances the simulated clock,
        which matures delayed messages and lets crash windows pass)."""
        delay = (
            self.retry.delay(attempt, self._retry_salt) if self.retry else 1.0
        )
        self._net().advance(delay)

    def _note_retry(self, kind: str, key: int, attempt: int) -> None:
        """Observability hook: one more attempt is about to run."""
        net = self.network
        if net is None:
            return
        if net.tracer is not None:
            net.tracer.emit("op.retry", kind, attempt + 1, key, OMITTED)
        if net.metrics is not None:
            net.metrics.counter(
                "retry.attempts", "client+parity retransmissions"
            ).inc()

    def _note_failed(self, kind: str, key: int, attempts: int) -> None:
        """Observability hook: the retry ladder ran dry."""
        net = self.network
        if net is not None and net.tracer is not None:
            net.tracer.emit("op.failed", kind, key, attempts)

    def _mutate(self, kind: str, payload: dict) -> None:
        """Record the interval around :meth:`_mutate_inner` (no-op
        without a recorder installed)."""
        recorder = self._active_recorder()
        if recorder is None:
            return self._mutate_inner(kind, payload)
        entry = recorder.invoke(
            self.node_id, kind, payload["key"], payload.get("value")
        )
        try:
            self._mutate_inner(kind, payload)
        except OperationFailed:
            recorder.ambiguous(entry)
            raise
        recorder.complete(entry, "ok")

    def _mutate_inner(self, kind: str, payload: dict) -> None:
        """One mutation under the retry/ack discipline.

        Without acks a clean send is trusted (a silently dropped message
        is invisible to any sender); transient faults are retried.  With
        acks the accepting server confirms, so drops anywhere along the
        path are caught too, and the operation only returns once the ack
        arrived — or raises :class:`OperationFailed` after the budget.
        Retries are safe: re-applying a mutation with the same value is
        value-idempotent at the bucket, and its Δ-records are deduped by
        sequence number at the parity sites.
        """
        token = None
        if self.ack_writes:
            token = self._next_request()
            payload = dict(payload, ack=token)
        attempts = self.retry.attempts if self.retry else 1
        for attempt in range(attempts):
            delivered = True
            try:
                self._send_op(kind, dict(payload))
            except DeliveryFault:
                delivered = False
            if token is None:
                if delivered:
                    return
            elif token in self._acks:
                self._acks.discard(token)
                return
            if attempt + 1 < attempts:
                self._note_retry(kind, payload["key"], attempt)
                self._wait(attempt)
                if token is not None and token in self._acks:
                    self._acks.discard(token)
                    return
        self._note_failed(kind, payload["key"], attempts)
        raise OperationFailed(kind, payload["key"], attempts)

    def insert(self, key: int, value: Any) -> None:
        """Insert a record; fire-and-forget as in the papers (1 message
        in the typical no-forwarding case)."""
        self._mutate("insert", {"key": key, "value": value, "client": self.node_id})

    def update(self, key: int, value: Any) -> None:
        """Update (upsert) the non-key data of a record."""
        self._mutate("update", {"key": key, "value": value, "client": self.node_id})

    def delete(self, key: int) -> None:
        """Delete a record (idempotent)."""
        self._mutate("delete", {"key": key, "client": self.node_id})

    def search(self, key: int) -> SearchOutcome:
        """Key search: request + record back (2 messages when the image
        is accurate; at most 4 plus one IAM otherwise).

        Recording (``self.recorder``) brackets :meth:`_search_impl`,
        which subclasses override — the hedged/degraded LH*RS read
        machinery included, so the recorded outcome is the one the
        application saw, whichever path served it.
        """
        recorder = self._active_recorder()
        if recorder is None:
            return self._search_impl(key)
        entry = recorder.invoke(self.node_id, "search", key)
        try:
            outcome = self._search_impl(key)
        except OperationFailed:
            recorder.ambiguous(entry)
            raise
        recorder.complete(
            entry,
            "found" if outcome.found else "not_found",
            outcome.value,
        )
        return outcome

    def _search_impl(self, key: int) -> SearchOutcome:
        """The actual search ladder; see :meth:`search`.

        Under a retry policy an unanswered search — its request or reply
        lost — is retried after a backoff; one request id spans the
        attempts, so a late reply maturing during the backoff satisfies
        the search.
        """
        request = self._next_request()
        payload = {"key": key, "client": self.node_id, "request": request}
        attempts = self.retry.attempts if self.retry else 1
        for attempt in range(attempts):
            try:
                self._send_op("search", dict(payload))
            except DeliveryFault:
                pass
            reply = self._results.pop(request, None)
            if reply is None and attempt + 1 < attempts:
                self._note_retry("search", key, attempt)
                self._wait(attempt)
                reply = self._results.pop(request, None)
            if reply is not None:
                return SearchOutcome(
                    key=key, found=reply["found"], value=reply["value"]
                )
        self._note_failed("search", key, attempts)
        raise OperationFailed("search", key, attempts)

    # ------------------------------------------------------------------
    # batched key operations (bulk scatter-gather plane)
    # ------------------------------------------------------------------
    def insert_many(self, items) -> BatchOutcome:
        """Insert many records; one ``ops.batch`` message per addressed
        bucket instead of one message per record."""
        return self._run_many(
            "insert",
            [{"op": "insert", "key": k, "value": v} for k, v in items],
        )

    def update_many(self, items) -> BatchOutcome:
        """Update (upsert) many records, batched like :meth:`insert_many`."""
        return self._run_many(
            "update",
            [{"op": "update", "key": k, "value": v} for k, v in items],
        )

    def delete_many(self, keys) -> BatchOutcome:
        """Delete many records, batched like :meth:`insert_many`."""
        return self._run_many(
            "delete", [{"op": "delete", "key": k} for k in keys]
        )

    def search_many(self, keys) -> BatchOutcome:
        """Search many keys; outcomes carry found/not_found and values."""
        return self._run_many(
            "search", [{"op": "search", "key": k} for k in keys]
        )

    def _run_many(self, kind: str, ops: list[dict]) -> BatchOutcome:
        """Record the batch, then run it (no-op without a recorder).

        Every op's interval opens *before* the batch executes and stays
        open across it — ops inside one batch genuinely overlap, and
        the scatter plane may apply them in any order.  Recording is
        suspended for the duration so the scalar fallback path does not
        double-record; outcomes close the intervals afterwards, with a
        ``failed``/missing outcome left pending (ambiguous): its
        sub-batch may have applied server-side before the reply or ack
        was lost.
        """
        recorder = self._active_recorder()
        if recorder is None:
            return self._run_many_inner(kind, ops)
        for op in ops:
            self._validate_key(op["key"])
        entries = [
            recorder.invoke(
                self.node_id, op["op"], op["key"], op.get("value")
            )
            for op in ops
        ]
        self._recorder_pause += 1
        try:
            outcome = self._run_many_inner(kind, ops)
        finally:
            self._recorder_pause -= 1
        for entry, op_outcome in zip(entries, outcome.outcomes):
            if op_outcome is None or op_outcome.status == "failed":
                recorder.ambiguous(entry)
            elif op_outcome.status in ("found", "not_found"):
                recorder.complete(
                    entry, op_outcome.status, op_outcome.value
                )
            else:
                recorder.complete(entry, "ok")
        return outcome

    def _run_many_inner(self, kind: str, ops: list[dict]) -> BatchOutcome:
        """Scatter ``ops`` by the image, gather per-key outcomes.

        Bin by image address into one ``ops.batch`` call per target
        bucket (chunked at ``batch_max_ops``), adjust the image once per
        sub-batch reply, re-bin refused ("moved") ops for up to
        ``_BATCH_ROUNDS`` rounds, and run whatever remains — plus any
        sub-batch whose bucket stayed unreachable — through the scalar
        per-op path, which handles coordinator routing and recovery.  A
        batch of one is the scalar call, same messages and trace.
        """
        for op in ops:
            self._validate_key(op["key"])
        outcome = BatchOutcome(outcomes=[None] * len(ops))
        if len(ops) <= 1:
            for idx, op in enumerate(ops):
                self._scalar_op(kind, op, idx, outcome)
            return outcome
        pending: list[int] = []
        fallback: list[int] = []
        for idx, op in enumerate(ops):
            (fallback if self._batch_route_scalar(kind, op)
             else pending).append(idx)
        # idx -> (refusing bucket, its A2 forward address): applied when
        # the image still points at the bucket that just said "moved".
        hints: dict[int, tuple[int, int]] = {}
        for round_no in range(self._BATCH_ROUNDS):
            if not pending:
                break
            pending, unreachable = self._scatter_round(
                kind, ops, pending, hints, outcome, round_no
            )
            fallback.extend(unreachable)
        fallback.extend(pending)
        net = self.network
        if fallback:
            if net is not None and net.tracer is not None:
                net.tracer.emit("batch.fallback", kind, len(fallback))
            for idx in sorted(set(fallback)):
                self._scalar_op(kind, ops[idx], idx, outcome)
        if net is not None and net.metrics is not None:
            net.metrics.counter(
                "batch.ops", "operations submitted via *_many"
            ).inc(len(ops))
            if outcome.batched_ops:
                net.metrics.gauge(
                    "batch.msgs_per_op",
                    "batch-plane messages per batched op (last batch)",
                ).set(outcome.messages / outcome.batched_ops)
        return outcome

    def _scatter_round(
        self,
        kind: str,
        ops: list[dict],
        pending: list[int],
        hints: dict[int, tuple[int, int]],
        outcome: BatchOutcome,
        round_no: int,
    ) -> tuple[list[int], list[int]]:
        """One scatter round; returns (re-binned, unreachable) indices."""
        bins: dict[int, list[int]] = {}
        for idx in pending:
            a = self.image.address(ops[idx]["key"])
            hint = hints.get(idx)
            if hint is not None and hint[0] == a:
                # The image did not move past the refusing bucket; take
                # its A2 forward address instead of knocking again.
                a = hint[1]
            bins.setdefault(a, []).append(idx)
        rebin: list[int] = []
        unreachable: list[int] = []
        net = self.network
        tracer = net.tracer if net is not None else None
        if tracer is not None:
            tracer.emit(
                "batch.scatter", kind, round_no, len(pending), len(bins)
            )
        for bucket in sorted(bins):
            indices = bins[bucket]
            for start in range(0, len(indices), self.batch_max_ops):
                chunk = indices[start:start + self.batch_max_ops]
                if net is not None and net.metrics is not None:
                    net.metrics.histogram(
                        "batch.size", BATCH_SIZE_BUCKETS,
                        "ops per scattered ops.batch message",
                    ).observe(len(chunk))
                reply = self._call_batch(bucket, kind, ops, chunk, outcome)
                if reply is None:
                    unreachable.extend(chunk)
                    continue
                self.image.adjust(reply["j"], reply["a"])
                moved_here = 0
                for idx, res in zip(chunk, reply["results"]):
                    if type(res) is str:
                        # Lean reply form: a bare status string, what a
                        # plain applied mutation answers ("applied").
                        hints.pop(idx, None)
                        outcome.outcomes[idx] = OpOutcome(
                            ops[idx]["key"], "ok"
                        )
                        outcome.applied_order.append(idx)
                        outcome.batched_ops += 1
                        continue
                    status = res["status"]
                    if status == "moved":
                        hints[idx] = (bucket, res["to"])
                        rebin.append(idx)
                        moved_here += 1
                        continue
                    hints.pop(idx, None)
                    key = ops[idx]["key"]
                    if status in ("found", "not_found"):
                        outcome.outcomes[idx] = OpOutcome(
                            key, status, value=res.get("value")
                        )
                    else:  # applied
                        outcome.outcomes[idx] = OpOutcome(
                            key, "ok", error=res.get("error")
                        )
                    outcome.applied_order.append(idx)
                    outcome.batched_ops += 1
                if moved_here and tracer is not None:
                    tracer.emit(
                        "batch.rebin", kind, bucket, moved_here, round_no
                    )
        return rebin, unreachable

    def _call_batch(
        self,
        bucket: int,
        kind: str,
        ops: list[dict],
        chunk: list[int],
        outcome: BatchOutcome,
    ) -> dict | None:
        """One ``ops.batch`` call under the retry/backoff discipline.

        Returns the reply, or None when the bucket is unreachable (the
        caller falls back to the scalar path, whose coordinator routing
        and recovery hooks always complete).  ``NodeBusy`` shedding is a
        ``DeliveryFault`` and lands on the backoff ladder like any other
        transient fault.
        """
        target = self._data_node(bucket)
        payload = {
            "ops": [ops[i] for i in chunk],
            "client": self.node_id,
        }
        attempts = self.retry.attempts if self.retry else 1
        for attempt in range(attempts):
            try:
                reply = self.call(target, "ops.batch", dict(payload))
            except UnknownNode:
                return None
            except NodeUnavailable as failure:
                if not self._batch_unavailable(kind, ops[chunk[0]], failure):
                    return None
                reply = None
            except DeliveryFault:
                reply = None
            if reply is not None:
                outcome.messages += 2
                return reply
            if attempt + 1 < attempts:
                self._note_retry("ops.batch", ops[chunk[0]]["key"], attempt)
                self._wait(attempt)
        return None

    def _batch_unavailable(self, kind: str, op: dict,
                           failure: NodeUnavailable) -> bool:
        """Hook: a batch target's server is down.  Return True to retry
        the sub-batch (something recovered it), False to fall back to
        the scalar path.  Plain LH* has no recovery — fall back, where
        :meth:`on_unavailable` surfaces the failure scalar-style."""
        return False

    def _batch_route_scalar(self, kind: str, op: dict) -> bool:
        """Hook: route this op through the scalar path from the start
        (LH*RS sends open-breaker searches to the hedged/degraded
        machinery).  Default: batch everything."""
        return False

    def _scalar_op(self, kind: str, op: dict, idx: int,
                   outcome: BatchOutcome) -> None:
        """Run one op through the exact scalar call path, recording the
        per-key outcome instead of raising :class:`OperationFailed`."""
        key = op["key"]
        try:
            if kind == "search":
                res = self.search(key)
                outcome.outcomes[idx] = OpOutcome(
                    key, "found" if res.found else "not_found",
                    value=res.value,
                )
            else:
                if kind == "insert":
                    self.insert(key, op["value"])
                elif kind == "update":
                    self.update(key, op["value"])
                else:
                    self.delete(key)
                outcome.outcomes[idx] = OpOutcome(key, "ok")
            outcome.applied_order.append(idx)
            outcome.scalar_ops += 1
        except OperationFailed as exc:
            outcome.outcomes[idx] = OpOutcome(key, "failed", error=str(exc))
            outcome.scalar_ops += 1

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(
        self,
        predicate: Callable[[int, Any], bool] | None = None,
        deterministic: bool = True,
    ) -> ScanResult:
        """Parallel search of every bucket for records matching
        ``predicate`` (None selects everything).

        With ``deterministic=True`` every bucket replies (address and
        level included) and the client verifies it heard the whole file —
        the termination protocol the recovery algorithms rely on.  With
        ``deterministic=False`` only buckets holding matches reply
        (probabilistic termination: cheaper, no completeness proof).
        """
        scan_id = self._next_request()
        self._scan_replies[scan_id] = []
        payload = {
            "scan": scan_id,
            "client": self.node_id,
            "predicate": predicate,
            "deterministic": deterministic,
            "image": (self.image.n, self.image.i),
        }
        targets = [
            self._data_node(m) for m in range(self.image.bucket_count_estimate)
        ]
        _, unavailable = self._net().multicast(
            self.node_id, targets, "scan", payload, collect_replies=False
        )
        replies = self._scan_replies.pop(scan_id)
        records = [tuple(match) for r in replies for match in r["matches"]]

        if not deterministic:
            return ScanResult(
                records=records, complete=True, buckets_heard=len(replies)
            )

        heard = {r["bucket"]: r["level"] for r in replies}
        expected = self._expected_bucket_count(heard)
        missing = (
            sorted(set(range(expected)) - set(heard)) if expected else []
        )
        complete = bool(heard) and expected is not None and not missing
        return ScanResult(
            records=records,
            complete=complete,
            buckets_heard=len(heard),
            expected_buckets=expected,
            missing=missing,
        )

    def _expected_bucket_count(self, heard: dict[int, int]) -> int | None:
        """The paper's deterministic-termination bucket count M = n + 2^i N.

        i is the minimum level heard and n the smallest bucket at that
        level (the split pointer); with any reply missing the derived M
        exposes the gap.
        """
        if not heard:
            return None
        i = min(heard.values())
        n = min(m for m, j in heard.items() if j == i)
        return addressing.file_extent(n, i, self.image.n0)
