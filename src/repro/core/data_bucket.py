"""The LH*RS data bucket server.

Extends the LH* data server with the paper's high-availability duties:

* every accepted record gets a **rank** from the bucket's insert counter
  (freed ranks are reused, keeping record groups dense — the §4.3-style
  enhancement, done locally);
* every mutation ships a **Δ-record** to each parity bucket of the
  bucket group (1 + k messages per insert/update/delete);
* a **split** removes the movers from this group's record groups and the
  target re-inserts them into its own — record group membership always
  follows the record's *current* bucket, so any two members of a record
  group are in distinct buckets of one group by construction.  The
  split's parity traffic is batched: one message per affected parity
  bucket instead of one per record (the paper's bulk-transfer note).
"""

from __future__ import annotations

import heapq
import zlib
from collections import deque
from typing import Any

import numpy as np

from repro.core.durable import DELTA_LOG_CAPACITY, Durability
from repro.core.group import data_node, group_of, position_of
from repro.lh import addressing
from repro.obs.trace import OMITTED
from repro.sdds.server import DataServer
from repro.sim.faults import RetryPolicy
from repro.sim.messages import HEADER_BYTES, Message, estimate_size
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.rs.encoder import delta_payload

#: Kinds a fenced (restarted, not yet caught-up) data bucket refuses
#: with NodeUnavailable: everything that serves or mutates record state.
#: Catch-up traffic (catchup.load, wal.tail), structural commands and
#: status probes stay answerable — a fenced bucket is indistinguishable
#: from a dead one to the data plane, nothing more.
DATA_FENCED_KINDS = frozenset(
    {
        "insert",
        "update",
        "delete",
        "search",
        "scan",
        "ops.batch",
        "record.fetch",
        "bucket.dump",
        "signature.dump",
    }
)


class RSDataServer(DataServer):
    """One LH*RS data bucket: LH* behaviour plus parity maintenance."""

    def __init__(
        self,
        node_id: str,
        file_id: str,
        number: int,
        level: int,
        capacity: int,
        n0: int,
        group_size: int,
        parity_targets: list[str] | None = None,
        compact_ranks: bool = False,
        field_width: int = 8,
        retry_policy: RetryPolicy | None = None,
        parity_ack: bool = False,
    ):
        super().__init__(node_id, file_id, number, level, capacity, n0)
        from repro.gf.field import GF

        self.group_size = group_size
        self.compact_ranks = compact_ranks
        self.field = GF(field_width)
        #: True while an ``ops.batch`` applies: only then are Δs held,
        #: here, in stream order, instead of fanned out at once — no Δ
        #: outlives the ``receive()`` that created it
        self._in_batch = False
        self._parity_queue: list[dict] = []
        self.group = group_of(number, group_size)
        self.position = position_of(number, group_size)
        #: parity bucket node ids of this group, index order
        self.parity_targets = list(parity_targets or [])
        self._rank_counter = 0
        self._free_ranks: list[int] = []
        #: key -> rank for every stored record
        self.ranks: dict[int, int] = {}
        #: rank -> key reverse index (kept in lockstep with ``ranks``)
        #: so compaction finds the highest occupied rank in O(1) amortized
        self._rank_to_key: dict[int, int] = {}
        self.retry_policy = retry_policy or RetryPolicy()
        self.parity_ack = parity_ack
        #: monotonic Δ sequence number; the *same* stream goes to every
        #: parity bucket, so one counter serves all channels from here
        self._parity_seq = 0
        #: the durability shell (None = the legacy RAM-only server;
        #: enable_durability wires it when config.durability is on)
        self._durable: Durability | None = None
        self._delta_history: deque | None = None
        #: incarnation stamped by the coordinator; a rebuilt spare under
        #: the same node id gets a higher epoch, fencing stale disks
        self.epoch = 0
        #: True between restart-replay and catch-up completion: the
        #: bucket answers catch-up traffic but refuses the data plane
        self.fenced = False

    # ------------------------------------------------------------------
    # fencing
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> Any:
        if self.fenced and message.kind in DATA_FENCED_KINDS:
            failure = NodeUnavailable(self.node_id)
            failure.fenced = True
            raise failure
        result = super().receive(message)
        if self._durable is not None and self._durable.due():
            self.checkpoint_now()
        return result

    # ------------------------------------------------------------------
    # rank management
    # ------------------------------------------------------------------
    def _take_rank(self) -> int:
        """Smallest free rank, else a fresh one.

        Taking the *lowest* free rank keeps each bucket's occupied rank
        set dense ({1..size} under pure growth), which maximizes record
        group occupancy across the bucket group — the storage-overhead
        figure of experiment E1 rides on this (§4.3's counter-reuse
        enhancement, applied locally at allocation time).
        """
        if self._free_ranks:
            return heapq.heappop(self._free_ranks)
        self._rank_counter += 1
        return self._rank_counter

    def _take_ranks(self, count: int) -> list[int]:
        """``count`` ranks in one pass — the same ranks ``count``
        successive :meth:`_take_rank` calls would hand out."""
        out: list[int] = []
        while self._free_ranks and len(out) < count:
            out.append(heapq.heappop(self._free_ranks))
        while len(out) < count:
            self._rank_counter += 1
            out.append(self._rank_counter)
        return out

    def _release_rank(self, rank: int) -> None:
        heapq.heappush(self._free_ranks, rank)

    def _assign_rank(self, key: int, rank: int) -> None:
        self.ranks[key] = rank
        self._rank_to_key[rank] = key

    def _unassign_rank(self, key: int) -> int:
        rank = self.ranks.pop(key)
        del self._rank_to_key[rank]
        return rank

    def _compact(self) -> list[dict]:
        """§4.3-style rank compaction; returns the parity ops it implies.

        Drains the free list: freed ranks inside the dense range
        {1..size} absorb the highest-ranked records (a delete + insert
        pair per move, batched by the caller); freed ranks above it are
        simply retired by shrinking the counter.  Afterwards the bucket's
        ranks are exactly {1..size} again.

        The highest occupied rank comes from the ``_rank_to_key``
        reverse index via a pointer walking down from the counter — the
        maximum only decreases across the drain (each move fills a rank
        below ``target`` < the vacated maximum), so the whole drain is
        O(moves + ranks scanned once), not O(moves × bucket size).
        """
        ops: list[dict] = []
        if not self.compact_ranks:
            return ops
        target = len(self.ranks)
        high = self._rank_counter
        while self._free_ranks:
            free = heapq.heappop(self._free_ranks)
            if free > target:
                continue  # beyond the dense range: retire silently
            while high not in self._rank_to_key:
                high -= 1
            key_max, r_max = self._rank_to_key[high], high
            payload = self.bucket.get(key_max)
            ops.append(self._parity_op("delete", key_max, r_max, payload, 0))
            op = self._parity_op("insert", key_max, free, payload, len(payload))
            ops.append(op)
            del self._rank_to_key[r_max]
            self._assign_rank(key_max, free)
        self._rank_counter = target
        if self._durable is not None:
            # the move ops logged above; the counter shrink (and drained
            # free list) is the one effect they do not imply
            self._log({"ctl": "counter", "counter": target})
        return ops

    # ------------------------------------------------------------------
    # parity messaging
    # ------------------------------------------------------------------
    def _parity_op(
        self, action: str, key: int, rank: int, delta: bytes, length: int
    ) -> dict:
        # The sequence number is taken at *creation* time, after the
        # local mutation: "everything through seq S is reflected in my
        # store" then holds by construction, which is what lets a parity
        # spare rebuilt from dumps treat any in-flight retransmission of
        # seq <= S as a duplicate.
        self._parity_seq += 1
        op = {
            "op": action,
            "key": key,
            "rank": rank,
            "pos": self.position,
            "delta": delta,
            "length": length,
            "seq": self._parity_seq,
        }
        if self._durable is not None:
            # WAL-before-send: the mutation already applied locally, and
            # it hits disk before the Δ leaves (or the op is acked), so
            # every acked operation is in the durable prefix + fsync
            # staleness window by construction.
            self._log(op)
        return op

    def _parity_block(
        self,
        action: str,
        keys: list[int],
        ranks: list[int],
        deltas: list[bytes],
        lengths: list[int],
    ) -> dict:
        """One columnar Δ-block: a same-position ``action`` run over
        parallel columns, carrying the next ``len(keys)`` consecutive
        sequence numbers.  The parity bucket folds it as one run
        (:meth:`ParityServer._fold_run`)."""
        seq0 = self._parity_seq + 1
        self._parity_seq += len(keys)
        block = {
            "block": action,
            "pos": self.position,
            "seq0": seq0,
            "keys": keys,
            "ranks": ranks,
            "deltas": deltas,
            "lengths": lengths,
        }
        if self._durable is not None:
            self._log(block)
        return block

    def _emit(self, delta: dict | list[dict]) -> None:
        """The one way a Δ leaves its mutation.  A dict is one scalar
        mutation's Δ (``parity.update``); a list is a structural batch
        (split, merge, moved records, compaction) or a columnar block
        (``parity.batch``).  While an ``ops.batch`` applies, both join
        the held list instead; sequence numbers were taken at creation,
        so list order is Δ-stream order."""
        scalar = isinstance(delta, dict)
        if self._in_batch:
            self._parity_queue.extend((delta,) if scalar else delta)
        elif scalar:
            self._fanout("parity.update", delta)
        elif delta:
            self._fanout("parity.batch", {"ops": delta})

    def flush_parity(self) -> None:
        """Ship every held Δ as one ``parity.batch`` per parity target;
        nothing else ships the list."""
        if self._parity_queue:
            ops, self._parity_queue = self._parity_queue, []
            self._fanout("parity.batch", {"ops": ops})

    def _fanout(self, kind: str, payload: Any) -> None:
        """One Δ (or batch) to every parity target, then escalations.

        Every target gets the identical payload, so it is sized once
        here and the number rides along with each copy.

        Escalation reports are *deferred* until every reachable target
        received the Δ.  Reporting mid-loop would trigger a group
        recovery that reads this bucket (already mutated, Δ counted)
        together with a surviving parity bucket later in the loop
        (Δ not yet delivered) — survivors misaligned by one in-flight
        operation, which a decode would turn into resurrected or
        vanished records.  After the loop, every live parity bucket has
        the Δ and every reported one gets rebuilt from current data.
        """
        reports = []
        size = HEADER_BYTES + estimate_size(payload, kind)
        for target in self.parity_targets:
            report = self._send_parity_to(target, kind, payload, size)
            if report is not None:
                reports.append(report)
        for report_kind, report_payload in reports:
            try:
                self.send(self._coordinator(), report_kind, report_payload)
            except (NodeUnavailable, UnknownNode):
                # Coordinator dark (pre-takeover window): the casualty
                # stays visible — a down parity target to the probe
                # sweep, a stale one through its sticky status flag.
                pass

    def _send_parity_to(
        self, target: str, kind: str, payload: Any, size: int
    ) -> tuple[str, dict] | None:
        """Ship one Δ (or batch) to one parity bucket, surviving faults.

        Returns ``None`` on success, or a deferred ``(kind, payload)``
        escalation report for :meth:`_fanout` to send once the whole
        fan-out completed (see there for why it must not go out early).

        A failed parity site is reported to the coordinator, which
        rebuilds it onto a spare under the same logical address.  The
        rebuild encodes from the group's *current* data — every data
        server mutates its store before shipping the Δ-record — so the
        recovered parity already reflects this mutation and the Δ must
        NOT be re-sent (the sequence numbers would skip it anyway).

        Transient delivery faults are retried under the retry policy;
        the sequence numbers make a resend after a lost *reply* (where
        the Δ did apply) a harmless duplicate.  In ``parity_ack`` mode
        the Δ travels as a call, so even silent drops become visible
        faults; with plain sends only ``fail`` outcomes are retryable —
        a silent drop surfaces later as a gap at the parity bucket.
        Exhausted retries are escalated like a crash: the coordinator
        rebuilds the parity bucket from data, which is always safe.
        """
        policy = self.retry_policy
        for attempt in range(policy.attempts):
            try:
                if self.parity_ack:
                    self.call(target, kind, payload, size=size)
                else:
                    self.send(target, kind, payload, size=size)
                return None
            except DeliveryFault as fault:
                if fault.stage == "reply":
                    return None  # the Δ was applied; only the ack was lost
                if attempt + 1 < policy.attempts:
                    net = self._net()
                    if net.tracer is not None:
                        net.tracer.emit(
                            "op.retry", kind, attempt + 1, OMITTED, target
                        )
                    if net.metrics is not None:
                        net.metrics.counter(
                            "retry.attempts",
                            "client+parity retransmissions",
                        ).inc()
                    # Salt per channel: under jitter, group members that
                    # got shed by the same parity bucket back off apart
                    # instead of re-converging on it in lockstep.
                    net.advance(policy.delay(
                        attempt,
                        zlib.crc32(f"{self.node_id}->{target}".encode()),
                    ))
            except NodeUnavailable as failure:
                return (
                    "report.unavailable",
                    {"node": failure.node_id, "kind": None, "op": None},
                )
        # Budget exhausted against a node that still answers pings: its
        # content can no longer be trusted to include this Δ.  Report it
        # stale — the coordinator rebuilds it from the group's data,
        # which (local mutation preceding the send) includes this op.
        return ("report.stale", {"node": target})

    # ------------------------------------------------------------------
    # record mutation primitives (called by the accepted-op handlers)
    # ------------------------------------------------------------------
    def apply_insert(self, key: int, value: bytes) -> None:
        if key in self.bucket:
            self.apply_update(key, value)
            return
        rank = self._take_rank()
        self._assign_rank(key, rank)
        self.bucket.put(key, value)
        self._emit(self._parity_op("insert", key, rank, value, len(value)))

    def apply_update(self, key: int, value: bytes) -> None:
        if key not in self.bucket:
            self.apply_insert(key, value)
            return
        old = self.bucket.get(key)
        self.bucket.put(key, value)
        self._emit(
            self._parity_op(
                "update", key, self.ranks[key], delta_payload(old, value), len(value)
            )
        )

    def apply_delete(self, key: int) -> None:
        if key not in self.bucket:
            return
        payload = self.bucket.delete(key)
        rank = self._unassign_rank(key)
        self._emit(self._parity_op("delete", key, rank, payload, 0))
        self._release_rank(rank)
        self._emit(self._compact())

    # ------------------------------------------------------------------
    # batched key operations: Δ-coalescing and vectorized runs
    # ------------------------------------------------------------------
    def handle_ops_batch(self, message: Message) -> dict:
        """One client sub-batch, its Δs held while it applies (a split
        triggered mid-batch joins the list with its structural Δs).  At
        the end, however the batch ends — what was applied must reach
        parity — the list ships as ONE ``parity.batch`` per target, the
        coalesced-Δ message the 2D bulk fold feeds on."""
        self._in_batch = True
        try:
            return super().handle_ops_batch(message)
        finally:
            self._in_batch = False
            self.flush_parity()

    def _apply_batch_ops(self, ops: list[dict]) -> list[dict]:
        """Vectorize maximal eligible runs of same-kind mutations;
        everything else takes the scalar per-op path unchanged."""
        results: list[dict] = []
        i = 0
        while i < len(ops):
            run = self._bulk_run(ops, i)
            if run > 1:
                chunk = ops[i:i + run]
                if chunk[0]["op"] == "insert":
                    results.extend(self._apply_bulk_insert(chunk))
                else:
                    results.extend(self._apply_bulk_update(chunk))
                i += run
            else:
                results.append(self._apply_batch_op(ops[i]))
                i += 1
        return results

    def _bulk_run(self, ops: list[dict], start: int) -> int:
        """Length of the vectorizable run at ``start`` (1 = scalar).

        A run must be same-kind insert-or-update, bytes payloads,
        pairwise-distinct keys, every key accepted by A2, inserts all
        absent (and fitting under capacity, so no overflow report can
        fire mid-run) and updates all present (with no overflow report
        pending, which only a size change or growth could owe) — the
        conditions under which the vectorized apply is step-for-step
        equivalent to the scalar sequence.
        """
        kind = ops[start]["op"]
        if kind not in ("insert", "update"):
            return 1
        seen: set[int] = set()
        run = start
        while run < len(ops):
            op = ops[run]
            key = op["key"]
            if (
                op["op"] != kind
                or key in seen
                or not isinstance(op.get("value"), (bytes, bytearray))
                or self._verify(key) is not None
                or (key in self.bucket) != (kind == "update")
            ):
                break
            seen.add(key)
            run += 1
        count = run - start
        if kind == "insert":
            # Stop the run at capacity: the tail goes per-op, where the
            # overflow reports (and any split they trigger) fire exactly
            # when the scalar sequence would fire them.
            count = min(count, self.bucket.capacity - len(self.bucket))
        elif self.bucket.overflowing and len(self.bucket) > self._last_reported_size:
            return 1  # an overflow report is due; per-op path sends it
        return count if count >= 2 else 1

    def _apply_bulk_insert(self, ops: list[dict]) -> list[dict]:
        """Insert a run in one pass: ranks taken together, one store
        write per record, one columnar Δ-block for the run."""
        ranks = self._take_ranks(len(ops))
        keys: list[int] = []
        values: list[bytes] = []
        lengths: list[int] = []
        put = self.bucket.put
        assign = self._assign_rank
        for op, rank in zip(ops, ranks):
            key, value = op["key"], op["value"]
            assign(key, rank)
            put(key, value)
            keys.append(key)
            values.append(value)
            lengths.append(len(value))
        self._emit([self._parity_block("insert", keys, ranks, values, lengths)])
        # The run fits under capacity, so this is the scalar sequence's
        # final not-overflowing marker reset, not a report.
        self._report_overflow_if_needed()
        return ["applied"] * len(ops)

    def _apply_bulk_update(self, ops: list[dict]) -> list[dict]:
        """Update a run with one stacked-XOR delta kernel.

        Old and new payloads are stacked into two (run × symbols)
        matrices, XORed in one pass, and converted back to bytes in one
        call; each op's Δ is its row trimmed to max(len(old), len(new))
        — byte-identical to scalar ``delta_payload``, which zero-extends
        the shorter operand to exactly that length.
        """
        keys = [op["key"] for op in ops]
        news = [op["value"] for op in ops]
        olds = [self.bucket.get(k) for k in keys]
        lengths = [max(len(o), len(n)) for o, n in zip(olds, news)]
        longest = max(lengths)
        if longest:
            sym_len = self.field.symbol_length_for_bytes(longest)
            stacked_old = self.field.stack_payloads(olds, sym_len)
            stacked_new = self.field.stack_payloads(news, sym_len)
            delta = np.bitwise_xor(stacked_old, stacked_new)
            blob = self.field.bytes_from_symbols(delta.reshape(-1))
            row_bytes = len(blob) // len(ops)
        else:
            blob, row_bytes = b"", 0
        put = self.bucket.put
        ranks = [self.ranks[key] for key in keys]
        deltas: list[bytes] = []
        new_lengths: list[int] = []
        for idx, (key, new) in enumerate(zip(keys, news)):
            put(key, new)
            start = idx * row_bytes
            deltas.append(blob[start:start + lengths[idx]])
            new_lengths.append(len(new))
        self._emit(
            [self._parity_block("update", keys, ranks, deltas, new_lengths)]
        )
        # No size change and no report pending (run precondition), so
        # this only performs the scalar sequence's marker bookkeeping.
        self._report_overflow_if_needed()
        return ["applied"] * len(ops)

    # ------------------------------------------------------------------
    # splits: group membership follows the record
    # ------------------------------------------------------------------
    def handle_split(self, message: Message) -> Any:
        if self.level >= message.payload["new_level"]:
            return {"moved": 0, "kept": len(self.bucket)}  # re-sent: it ran
        target = message.payload["target"]
        stay, move = addressing.split_records(
            list(self.bucket.records.items()),
            lambda item: item[0],
            self.number,
            self.level,
            self.n0,
        )
        # Remove the movers from this group's record groups (batched).
        # Local state mutates *before* the parity send: a parity spare
        # rebuilt mid-send encodes from current data, so the in-flight
        # batch must already be reflected locally (see _send_parity_to).
        delete_ops = []
        for key, payload in move:
            rank = self._unassign_rank(key)
            delete_ops.append(self._parity_op("delete", key, rank, payload, 0))
            self._release_rank(rank)
        delete_ops.extend(self._compact())
        self.bucket.records = dict(stay)
        self.bucket.level += 1
        self._last_reported_size = -1
        if self._durable is not None:
            self._log({"ctl": "level", "level": self.bucket.level})
        self._emit(delete_ops)
        self.send(
            data_node(self.file_id, target),
            "records.bulk",
            {"records": move, "source": self.number},
        )
        self._report_overflow_if_needed()
        return {"moved": len(move), "kept": len(stay)}

    def handle_records_bulk(self, message: Message) -> None:
        insert_ops = []
        for key, payload in message.payload["records"]:
            rank = self._take_rank()
            self._assign_rank(key, rank)
            self.bucket.put(key, payload)
            insert_ops.append(
                self._parity_op("insert", key, rank, payload, len(payload))
            )
        self._emit(insert_ops)
        self._report_overflow_if_needed()

    def handle_merge(self, message: Message) -> Any:
        """This (last) bucket dissolves: remove every record from this
        group's record groups (batched parity deletes), then ship the
        records to the absorbing bucket, which re-groups them there.

        The last bucket at group position 0 is its group's only member:
        the coordinator retires the group's parity buckets afterwards —
        the batch then merely zeroes records that are about to be
        discarded, so it is skipped.
        """
        into = message.payload["into"]
        records = list(self.bucket.records.items())
        delete_ops = [] if self.position == 0 else [
            self._parity_op("delete", key, self.ranks[key], payload, 0)
            for key, payload in records
        ]
        self._wipe()
        self._emit(delete_ops)
        if self._durable is not None:
            self._log({"ctl": "wipe"})
        self.send(
            data_node(self.file_id, into),
            "records.bulk",
            {"records": records, "source": self.number},
        )
        return {"moved": len(records)}

    # ------------------------------------------------------------------
    # configuration & recovery support
    # ------------------------------------------------------------------
    def handle_config_parity(self, message: Message) -> None:
        """Coordinator raised this group's availability level."""
        self.parity_targets = list(message.payload["targets"])

    def handle_signature_dump(self, message: Message) -> dict:
        """Algebraic signatures of every record, keyed by rank.

        Constant bytes per record regardless of payload size — the
        audit's whole advantage over shipping payloads.  Ships Δs held
        by an in-flight batch first (see :meth:`handle_bucket_dump`) so
        parity and data describe the same state.
        """
        from repro.gf.signatures import signature_vector

        self.flush_parity()
        count = message.payload.get("count", 2)
        return {
            "position": self.position,
            "ranks": {
                self.ranks[key]: signature_vector(self.field, payload, count)
                for key, payload in self.bucket.records.items()
            },
        }

    def handle_record_fetch(self, message: Message) -> dict:
        """Direct fetch by key (record recovery addresses buckets
        explicitly from the parity directory — no A2 involved).

        Ships Δs held by an in-flight batch first: the decode combining
        this payload with parity records needs the parity to be current
        with it.
        """
        self.flush_parity()
        key = message.payload["key"]
        if key in self.bucket:
            return {"found": True, "payload": self.bucket.get(key)}
        return {"found": False, "payload": None}

    def handle_bucket_dump(self, message: Message) -> dict:
        """Everything recovery needs to treat this bucket as a survivor.

        Ships Δs held by an in-flight batch first: a split fired from
        inside this bucket's own ``ops.batch`` can start a recovery that
        dumps it mid-batch, and the decoder must not be fed a survivor
        ahead of its parity.  The reply is the checkpoint image's content
        (:meth:`_content`).
        """
        self.flush_parity()
        return self._content()

    def _wipe(self) -> None:
        """Forget every record and rank (a merge's ``ctl wipe`` frame
        replays as this, a restart begins with it)."""
        self.bucket.records = {}
        self.ranks = {}
        self._rank_to_key = {}
        self._free_ranks = []
        self._rank_counter = 0

    def handle_bucket_load(self, message: Message) -> None:
        """Install recovered (or restored) :meth:`_content` into a fresh
        (spare) data bucket.  Its ``parity_seq`` resumes the Δ stream
        where the lost bucket left it, so the surviving parity buckets'
        channel expectations stay aligned; the spare keeps its own
        fence epoch."""
        self._load_content(message.payload)
        if self._durable is not None:
            # A rebuilt (or snapshot-restored) image is the new durable
            # baseline; whatever the disk held belonged to another life.
            self.checkpoint_now()

    def handle_status(self, message: Message) -> dict:
        status = super().handle_status(message)
        status.update(group=self.group, position=self.position,
                      counter=self._rank_counter)
        if self._durable is not None:
            status.update(fenced=self.fenced, epoch=self.epoch)
        return status

    def handle_level_set(self, message: Message) -> Any:
        result = super().handle_level_set(message)
        if self._durable is not None:
            self._log({"ctl": "level", "level": self.bucket.level})
        return result

    # ------------------------------------------------------------------
    # durable storage plane: WAL, checkpoints, restart and catch-up
    # ------------------------------------------------------------------
    def enable_durability(self, config) -> None:
        """Attach the durability shell (``config.durability``).

        Ends with a baseline checkpoint: recovery then always finds a
        durable image of the bucket's *birth* state, so a crash before
        the first periodic checkpoint still replays cleanly.
        """
        self._durable = Durability(self, config, self._coordinator())
        self._delta_history = deque(maxlen=DELTA_LOG_CAPACITY)
        self.checkpoint_now()

    def _log(self, entry: dict) -> None:
        """One WAL frame (mutation op/block or a ``ctl`` record); a
        sequenced one also joins the history ring that serves a
        restarted parity bucket's catch-up ask.  A fail-stop drops what
        an in-flight batch holds (a dead node ships nothing): logged and
        unacked, those Δs are re-sent from the ring after a restart
        (:meth:`handle_catchup_load`)."""
        try:
            self._durable.log(entry)
        except NodeUnavailable:
            self._parity_queue.clear()
            raise
        if "ctl" not in entry:
            self._delta_history.append(entry)

    def checkpoint_now(self) -> None:
        """Write a full-state checkpoint and truncate the WAL."""
        self._durable.checkpoint(self._image(), len(self.bucket.records))

    def _image(self) -> dict:
        """The checkpoint image: the bucket's :meth:`_content` and its
        fence epoch."""
        return {"kind": "data", "epoch": self.epoch, **self._content()}

    def _content(self) -> dict:
        """The bucket as a few long columns — what a checkpoint writes,
        ``bucket.dump`` ships, ``bucket.load`` installs and a backup
        keeps.

        Records are three parallel columns in store order — the codec
        and the wire sizer take each in one pass where a list of
        per-record tuples would cost a walk over every field.  The
        lists are fresh: a dump is a copy, never a view of the bucket.
        No Δ is part of it: checkpoints are taken between messages and
        a dump ships held Δs first.
        """
        records = self.bucket.records
        return {
            "level": self.bucket.level,
            "counter": self._rank_counter,
            "free": sorted(self._free_ranks),
            "keys": list(records),
            "ranks": list(map(self.ranks.__getitem__, records)),
            "payloads": list(records.values()),
            "parity_seq": self._parity_seq,
        }

    def _load_image(self, state: dict) -> None:
        """Inverse of :meth:`_image` (restart)."""
        self.epoch = state["epoch"]
        self._load_content(state)

    def _load_content(self, state: dict) -> None:
        """Inverse of :meth:`_content`: replaces every record and rank."""
        self.bucket.level = state["level"]
        self._rank_counter = state["counter"]
        self._free_ranks = list(state["free"])
        heapq.heapify(self._free_ranks)
        keys, ranks = state["keys"], state["ranks"]
        self.bucket.records = dict(zip(keys, state["payloads"]))
        self.ranks = dict(zip(keys, ranks))
        self._rank_to_key = dict(zip(ranks, keys))
        self._parity_seq = state["parity_seq"]

    # -- restart-with-delta-catch-up -----------------------------------
    def on_restored(self) -> None:
        """Network hook: this node just came back from a crash.

        RAM-only servers (durability off) keep the legacy silent-rebirth
        semantics — state intact, nobody told — which the pre-durability
        chaos suites pin byte-for-byte: the hook does nothing.
        """
        if self._durable is not None:
            self._durable.restored(self._restart)

    def _restart(self) -> None:
        """Replay the durable prefix, fence, and rejoin the file."""
        net = self._net()
        state, tail, clean = self._durable.read_back("data")
        self._wipe()  # everything volatile is lost with the process
        self._parity_seq = 0
        self._delta_history.clear()
        self.epoch = 0
        if state is not None:
            self._load_image(state)
            for entry in tail:
                self._replay_entry(entry)
                if "ctl" not in entry:
                    self._delta_history.append(entry)
                    # the durable prefix the rejoin reports: catch-up
                    # fetches past it, channels behind it get a resend
                    self._parity_seq = self._entry_seq_range(entry)[1]
        self.fenced = True
        if net.tracer is not None:
            net.tracer.emit(
                "bucket.restart", self.node_id, "data", self.number, clean,
                len(tail), self._parity_seq,
            )
        self._durable.rejoin({
            "node": self.node_id,
            "kind": "data",
            "bucket": self.number,
            "group": self.group,
            "epoch": self.epoch,
            "seq": self._parity_seq,
            "clean": clean,
        })

    # -- WAL replay ----------------------------------------------------
    def _replay_entry(self, entry: dict) -> None:
        if "ctl" in entry:
            ctl = entry["ctl"]
            if ctl == "level":
                self.bucket.level = entry["level"]
            elif ctl == "counter":
                # compaction epilogue: free list drained, counter shrunk
                self._free_ranks = []
                self._rank_counter = entry["counter"]
            elif ctl == "wipe":
                self._wipe()
            return
        if "block" in entry:
            for key, rank, delta, length in zip(
                entry["keys"], entry["ranks"], entry["deltas"], entry["lengths"]
            ):
                self._replay_one(entry["block"], key, rank, delta, length)
            return
        self._replay_one(
            entry["op"], entry["key"], entry["rank"], entry["delta"],
            entry["length"],
        )

    def _replay_one(
        self, action: str, key: int, rank: int, delta: bytes, length: int
    ) -> None:
        """Apply one logged mutation to the store.

        Inserts log the payload verbatim; updates log the XOR Δ, so the
        new value is ``old ⊕ Δ`` trimmed to the logged length (exactly
        how the parity channel reconstructs it).
        """
        if action == "insert":
            self._adopt_rank(rank)
            self._assign_rank(key, rank)
            self.bucket.put(key, delta)
        elif action == "update":
            old = self.bucket.get(key)
            self.bucket.put(key, delta_payload(old, delta)[:length])
        elif key in self.bucket:  # delete
            self.bucket.delete(key)
            self._release_rank(self._unassign_rank(key))

    def _adopt_rank(self, rank: int) -> None:
        """Claim a *specific* rank during replay or catch-up: pull it
        from the free heap if present, else extend the counter to cover
        it (ranks skipped on the way up become free, exactly as the
        live allocation path left them)."""
        if rank <= self._rank_counter:
            if rank in self._free_ranks:
                self._free_ranks.remove(rank)
                heapq.heapify(self._free_ranks)
        else:
            while self._rank_counter < rank:
                self._rank_counter += 1
                if self._rank_counter < rank:
                    heapq.heappush(self._free_ranks, self._rank_counter)

    @staticmethod
    def _entry_seq_range(entry: dict) -> tuple[int, int]:
        """Inclusive Δ-sequence span of one logged entry."""
        if "block" in entry:
            return entry["seq0"], entry["seq0"] + len(entry["keys"]) - 1
        return entry["seq"], entry["seq"]

    # -- serving catch-up ----------------------------------------------
    def handle_wal_tail(self, message: Message) -> dict:
        """A restarted parity bucket asks for the Δs it missed.

        Returns every entry with a sequence number above ``after`` from
        the in-RAM history ring; ``covered`` is False when the ring no
        longer reaches back that far (checkpoints retire old WAL frames)
        — the asker must then fall back to a full rebuild.
        """
        after = message.payload["after"]
        live = self._parity_seq
        ops: list[dict] = []
        next_needed = after + 1
        covered = True
        for entry in self._delta_history or ():
            lo, hi = self._entry_seq_range(entry)
            if hi < next_needed:
                continue
            if lo > next_needed:
                covered = False
                break
            ops.append(entry)
            next_needed = hi + 1
        covered = covered and next_needed > live
        return {"covered": covered, "live": live, "ops": ops}

    # -- receiving catch-up --------------------------------------------
    def handle_catchup_load(self, message: Message) -> dict:
        """Apply the coordinator's delta catch-up verdict and unfence.

        ``set`` holds the *final* state of every key that changed while
        we were down (the coordinator already resolved per-key winners);
        ``delete`` lists keys whose final state is absence.  Neither
        fans out Δs — the live parity buckets already reflect them.

        ``resend_after`` (when present) means some parity bucket lags
        our own durable prefix — Δs we logged but never shipped (a
        fail-stop inside a batch, :meth:`_log`) or that were lost
        on the way: we re-fan-out our tail above it, in sequence order,
        from the history ring the replay refilled.  Per-channel sequence
        numbers make the copies other parities already hold harmless
        duplicates.  The reply's ``floor`` is the highest sequence the
        resend could *not* reach back past; the coordinator rebuilds any
        parity bucket still gapped below it.
        """
        payload = message.payload
        disk_seq = self._parity_seq
        deletes = payload.get("delete", [])
        items = payload.get("set", [])
        for key in deletes:
            if key in self.bucket:
                self.bucket.delete(key)
                self._release_rank(self._unassign_rank(key))
        # Two passes: release every stale rank first, then adopt the
        # final ones — a catch-up that swaps two keys' ranks would
        # otherwise collide mid-loop.
        for key, rank, value in items:
            if key in self.ranks:
                self._release_rank(self._unassign_rank(key))
        for key, rank, value in items:
            self._adopt_rank(rank)
            self._assign_rank(key, rank)
            self.bucket.put(key, value)
        self._parity_seq = payload["parity_seq"]
        self.fenced = False
        # Resend our unshipped tail to lagging parity channels.
        floor = disk_seq
        resend_after = payload.get("resend_after")
        if resend_after is not None and resend_after < disk_seq:
            # the ring is the replayed tail, in order, ending at disk_seq
            resend: list[dict] = []
            for entry in reversed(self._delta_history):
                lo, hi = self._entry_seq_range(entry)
                if hi != floor or hi <= resend_after:
                    break  # a gap (retired by a checkpoint) or below the lag
                resend.append(entry)
                floor = lo - 1
            floor = max(floor, resend_after)
            resend.reverse()
            if resend:
                self._fanout("parity.batch", {"ops": resend})
        net = self._net()
        if net.tracer is not None:
            net.tracer.emit(
                "catchup.data", self.node_id, self.number, len(items),
                len(deletes), self._parity_seq,
            )
        if net.metrics is not None:
            net.metrics.counter(
                "catchup.records", "records shipped by delta catch-up"
            ).inc(len(items) + len(deletes))
        self.checkpoint_now()
        return {"floor": floor}
