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
  group are in distinct buckets of one group by construction.

Every Δ is created as the parity bucket's *run* (``delta_run`` in
:mod:`repro.proto.schema`), one action over parallel columns: a scalar
mutation a run of one, a split's movers, a merge, a ``records.bulk`` or
a compaction one run per action and one message per parity bucket (the
paper's bulk-transfer note).  An ``ops.batch`` applies op by op through
the scalar primitives; each op's Δ grows the batch's open run while the
action repeats on a new rank.  A run is logged as the ``prun`` frame,
kept in the history ring, shipped and folded; a restarted bucket that
lost a WAL tail gets its runs back from a parity bucket's ring and
replays them as its own frames.
"""

from __future__ import annotations

import heapq
import zlib
from typing import Any

from repro.core.durable import BucketReceive, Durability, RunRing
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
#: Catch-up traffic (runs.catchup, runs.tail), structural commands and
#: status probes stay answerable — a fenced bucket is indistinguishable
#: from a dead one to the data plane, nothing more.
DATA_FENCED_KINDS = frozenset({
    "insert", "update", "delete", "search", "scan", "ops.batch",
    "record.rank", "bucket.dump", "signature.dump",
})


class RSDataServer(BucketReceive, DataServer):
    """One LH*RS data bucket: LH* behaviour plus parity maintenance.

    An instance holds 27 attributes.  CPython 3.11 keeps up to 29 in
    the object itself; at 30 every bucket carried its own dict — +11 MB
    of peak RSS at 6 600 buckets and slower attribute reads on every
    message — so new state belongs in an existing structure."""

    #: what its checkpoint images and restart trace call this kind
    KIND = "data"
    FENCED_KINDS = DATA_FENCED_KINDS

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
        #: the held runs, each with its set of ranks (what a joining run
        #: must miss)
        self._parity_queue: list[tuple[list, set[int]]] = []
        self.group = group_of(number, group_size)
        self.position = position_of(number, group_size)
        #: parity bucket node ids of this group, index order
        self.parity_targets = list(parity_targets or [])
        #: key -> rank for every stored record: the only index
        self.ranks: dict[int, int] = {}
        #: the rank column: ``_key_at[r]`` is the key holding rank r, or
        #: None while r is free; slot 0 is unused, so ``len - 1`` is the
        #: rank counter (the highest rank handed out)
        self._key_at: list[int | None] = [None]
        #: the free ranks below the counter (exactly the None slots but
        #: 0), a heap: the smallest is handed out first
        self._free_ranks: list[int] = []
        self.retry_policy = retry_policy or RetryPolicy()
        self.parity_ack = parity_ack
        #: monotonic Δ sequence number; the *same* stream goes to every
        #: parity bucket, so one counter serves all channels from here
        self._parity_seq = 0
        #: the durability shell (None = the legacy RAM-only server;
        #: enable_durability wires it when config.durability is on)
        self._durable: Durability | None = None
        #: the newest logged Δ-runs (durable buckets only)
        self._delta_history: RunRing | None = None
        #: incarnation stamped by the coordinator; a rebuilt spare under
        #: the same node id gets a higher epoch, fencing stale disks
        self.epoch = 0
        #: True between restart-replay and catch-up completion: the
        #: bucket answers catch-up traffic but refuses the data plane
        self.fenced = False

    # ------------------------------------------------------------------
    # rank management
    # ------------------------------------------------------------------
    def _take_ranks(self, count: int) -> list[int]:
        """``count`` ranks: the smallest free ones, then fresh ones.

        Taking the *lowest* free rank keeps each bucket's occupied rank
        set dense ({1..size} under pure growth), which maximizes record
        group occupancy across the bucket group — the storage-overhead
        figure of experiment E1 rides on this (§4.3's counter-reuse
        enhancement, applied locally at allocation time).
        """
        out: list[int] = []
        while self._free_ranks and len(out) < count:
            out.append(heapq.heappop(self._free_ranks))
        while len(out) < count:
            out.append(len(self._key_at))
            self._key_at.append(None)
        return out

    def _release_rank(self, rank: int) -> None:
        heapq.heappush(self._free_ranks, rank)

    def _assign_rank(self, key: int, rank: int) -> None:
        self.ranks[key] = rank
        self._key_at[rank] = key

    def _unassign_rank(self, key: int) -> int:
        rank = self.ranks.pop(key)
        self._key_at[rank] = None
        return rank

    def _compact(self) -> list[list]:
        """§4.3-style rank compaction; returns the Δ-runs it implies.

        Drains the free list: freed ranks inside {1..size} absorb the
        highest-ranked records (a delete run off the old ranks, all
        above the range, and an insert run onto the new, all inside
        it); freed ranks above it retire.  The highest occupied rank
        is the rank column's last slot once its trailing free slots are
        popped (the maximum only decreases), so the drain is
        O(moves + ranks scanned once), not O(moves × bucket size).
        """
        if not self.compact_ranks:
            return []
        target = len(self.ranks)
        key_at = self._key_at
        keys, old, new = [], [], []
        while self._free_ranks:
            free = heapq.heappop(self._free_ranks)
            if free > target:
                continue  # beyond the dense range: retire silently
            while key_at[-1] is None:
                key_at.pop()
            key = key_at.pop()
            keys.append(key)
            old.append(len(key_at))  # the popped slot's rank
            new.append(free)
            self._assign_rank(key, free)
        # {1..target} is full now; no frame for the shrink: the counter
        # is derived (_load_content)
        del key_at[target + 1:]
        if not keys:
            return []
        payloads = list(map(self.bucket.get, keys))
        return [
            self._run("delete", keys, old, payloads, [0] * len(keys)),
            self._run("insert", list(keys), new, list(payloads),
                      list(map(len, payloads))),
        ]

    # ------------------------------------------------------------------
    # parity messaging
    # ------------------------------------------------------------------
    def _run(
        self, action: str, keys: list[int], ranks: list[int],
        deltas: list[bytes], lengths: list[int],
    ) -> list:
        """Create one Δ-run: ``action`` at this bucket's position,
        numbered with the next ``len(keys)`` sequence numbers.

        Numbers are taken after the local mutation, so "everything
        through seq S is in my store" holds by construction (a parity
        spare rebuilt from dumps treats a retransmission of seq <= S as
        a duplicate), and the run is logged before it leaves or the op
        is acked (WAL before send)."""
        seq0 = self._parity_seq + 1
        self._parity_seq += len(keys)
        run = [action, self.position, seq0, keys, ranks, deltas, lengths]
        if self._durable is not None:
            self._log({"prun": run})
        return run

    def _emit_one(
        self, action: str, key: int, rank: int, delta: bytes, length: int
    ) -> None:
        """A scalar mutation's Δ.  Outside a batch it is a run of one,
        logged and shipped as ``parity.update``.  Inside one it takes the
        next sequence number and joins the queue's last run in place by
        :meth:`_hold`'s rule (no run of one is built for it); else that
        run closes (:meth:`_log`) and the Δ opens the next one."""
        if not self._in_batch:
            run = self._run(action, [key], [rank], [delta], [length])
            self._fanout("parity.update", {"runs": [run]})
            return
        queue = self._parity_queue
        self._parity_seq += 1
        if queue:
            run, held = queue[-1]
            if (
                run[0] == action
                and rank not in held
                and run[2] + len(held) == self._parity_seq
            ):
                run[3].append(key)
                run[4].append(rank)
                run[5].append(delta)
                run[6].append(length)
                held.add(rank)
                return
            if self._durable is not None:
                self._log()
        queue.append(([action, self.position, self._parity_seq, [key],
                       [rank], [delta], [length]], {rank}))

    def _emit(self, runs: list[list]) -> None:
        """A structural move's or a resend's runs, joined in stream
        order by :meth:`_hold`, as one ``parity.batch``."""
        for run in runs:
            self._hold(run)
        if not self._in_batch:
            self.flush_parity()

    def _hold(self, run: list) -> None:
        """Queue a run :meth:`_run` made, or a resent one, for the
        batch's ``parity.batch``.  It joins the queue's last run when it
        continues it — same action, the next sequence number, disjoint
        ranks — so the queue holds the runs a parity bucket folds in one
        pass each.  The queue owns fresh lists: the WAL frame and the
        history ring keep the run as it was created."""
        queue = self._parity_queue
        if queue:
            last, held = queue[-1]
            if (
                run[0] == last[0]
                and run[2] == last[2] + len(last[4])
                and held.isdisjoint(run[4])
            ):
                for column in range(3, 7):
                    last[column].extend(run[column])
                held.update(run[4])
                return
        queue.append(([*run[:3], *map(list, run[3:])], set(run[4])))

    def flush_parity(self) -> None:
        """Log the open run, then ship every held Δ as one
        ``parity.batch`` per parity target; nothing else ships the
        list."""
        if self._parity_queue:
            if self._durable is not None:
                self._log()
            queue, self._parity_queue = self._parity_queue, []
            self._fanout("parity.batch", {"runs": [run for run, _ in queue]})

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
        policy, net = self.retry_policy, self.network or self._net()
        for attempt in range(policy.attempts):
            try:
                if self.parity_ack:
                    net.call(self.node_id, target, kind, payload, size=size)
                else:
                    net.send(self.node_id, target, kind, payload, size=size)
                return None
            except DeliveryFault as fault:
                if fault.stage == "reply":
                    return None  # the Δ was applied; only the ack was lost
                if attempt + 1 < policy.attempts:
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
        (rank,) = self._take_ranks(1)
        self._assign_rank(key, rank)
        self.bucket.put(key, value)
        self._emit_one("insert", key, rank, value, len(value))

    def apply_update(self, key: int, value: bytes) -> None:
        if key not in self.bucket:
            self.apply_insert(key, value)
            return
        old = self.bucket.get(key)
        self.bucket.put(key, value)
        self._emit_one(
            "update", key, self.ranks[key], delta_payload(old, value), len(value)
        )

    def apply_delete(self, key: int) -> None:
        if key not in self.bucket:
            return
        payload = self.bucket.delete(key)
        rank = self._unassign_rank(key)
        self._emit_one("delete", key, rank, payload, 0)
        self._release_rank(rank)
        self._emit(self._compact())

    # ------------------------------------------------------------------
    # batched key operations: Δ-coalescing
    # ------------------------------------------------------------------
    def handle_ops_batch(self, message: Message) -> dict:
        """One client sub-batch, applied op by op with its Δs held (a
        split triggered mid-batch joins the list with its structural
        Δs).  At the end, however the batch ends — what was applied must
        reach parity — the list is logged and ships as ONE
        ``parity.batch`` per target, the coalesced-Δ message the 2D bulk
        fold feeds on."""
        self._in_batch = True
        try:
            return super().handle_ops_batch(message)
        finally:
            self._in_batch = False
            self.flush_parity()

    # ------------------------------------------------------------------
    # splits: group membership follows the record
    # ------------------------------------------------------------------
    def handle_split(self, message: Message) -> Any:
        if self.level >= message.payload["new_level"]:
            return {"moved": 0, "kept": len(self.bucket)}  # re-sent: it ran
        target = message.payload["target"]
        stay, move = addressing.split_records(
            list(self.bucket.records.items()), lambda item: item[0],
            self.number, self.level, self.n0,
        )
        # Remove the movers from this group's record groups (one run).
        # Local state mutates *before* the parity send: a parity spare
        # rebuilt mid-send encodes from current data, so the in-flight
        # batch must already be reflected locally (see _send_parity_to).
        runs = []
        if move:
            keys, payloads = map(list, zip(*move))
            ranks = list(map(self._unassign_rank, keys))
            for rank in ranks:
                self._release_rank(rank)
            runs.append(self._run("delete", keys, ranks, payloads, [0] * len(keys)))
        runs.extend(self._compact())
        self.bucket.records = dict(stay)
        self.bucket.level += 1
        self._last_reported_size = -1
        if self._durable is not None:
            self._log({"ctl": "level", "level": self.bucket.level})
        self._emit(runs)
        self.send(
            data_node(self.file_id, target),
            "records.bulk",
            {"records": move, "source": self.number},
        )
        self._report_overflow_if_needed()
        return {"moved": len(move), "kept": len(stay)}

    def handle_records_bulk(self, message: Message) -> None:
        """A split's or merge's movers join this bucket's record groups
        as one insert run.  A key this bucket already holds is skipped:
        its value is at least as new as the moved copy, so a second
        delivery of the message changes nothing."""
        moved = [
            (key, payload) for key, payload in message.payload["records"]
            if key not in self.bucket
        ]
        if moved:
            keys, payloads = map(list, zip(*moved))
            ranks = self._take_ranks(len(keys))
            for key, rank, payload in zip(keys, ranks, payloads):
                self._assign_rank(key, rank)
                self.bucket.put(key, payload)
            self._emit([self._run(
                "insert", keys, ranks, payloads, list(map(len, payloads))
            )])
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
        runs = []
        if records and self.position != 0:
            keys, payloads = map(list, zip(*records))
            ranks = list(map(self.ranks.__getitem__, keys))
            runs.append(self._run("delete", keys, ranks, payloads, [0] * len(keys)))
        self._wipe()
        self._emit(runs)
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

    def handle_record_rank(self, message: Message) -> dict | None:
        """This bucket's member of record group ``rank``, or None: what
        a parity bucket serving a degraded read multicasts for (the
        rank comes from its directory — no A2 involved).

        Ships Δs held by an in-flight batch first: the decode combining
        this payload with parity records needs the parity to be current
        with it.
        """
        self.flush_parity()
        rank = message.payload["rank"]
        key_at = self._key_at
        key = key_at[rank] if 0 < rank < len(key_at) else None
        if key is None:
            return None
        return {"key": key, "payload": self.bucket.get(key)}

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
        replays as this)."""
        self.bucket.records = {}
        self.ranks = {}
        self._key_at = [None]
        self._free_ranks = []

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
                      counter=len(self._key_at) - 1)
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
        self._delta_history = RunRing()
        self.checkpoint_now()

    def _log(self, frame: dict | None = None) -> None:
        """Close the queue's last run — log its Δs not logged yet (a
        batch's ops) as one ``prun`` frame — then log ``frame``, so
        frames keep sequence order; a run also joins the history ring
        that serves a restarted parity bucket's catch-up ask.  A
        fail-stop drops what an in-flight batch holds (a dead node ships
        nothing): logged and unacked, those Δs are re-sent from the ring
        after a restart (:meth:`handle_runs_catchup`)."""
        frames = [] if frame is None else [frame]
        if self._parity_queue:
            # the ring's newest run ends at the last logged sequence
            # number; the queue's Δs past it are the open ones
            run = self._parity_queue[-1][0]
            skip = max(0, self._delta_history.last + 1 - run[2])
            if skip < len(run[3]):
                frames.insert(0, {"prun": [
                    run[0], run[1], run[2] + skip,
                    *(column[skip:] for column in run[3:]),
                ]})
        for entry in frames:
            try:
                self._durable.log(entry)
            except NodeUnavailable:
                self._parity_queue.clear()
                raise
            if "prun" in entry:
                self._delta_history.remember(entry["prun"])

    def checkpoint_now(self) -> None:
        """Close the open run, write a full-state checkpoint and truncate
        the WAL: an image never holds Δs the log is still owed."""
        self._log()
        self._durable.checkpoint(self._image(), len(self.bucket.records))

    def _image(self) -> dict:
        """The checkpoint image: the bucket's :meth:`_content` and its
        fence epoch."""
        return {"kind": self.KIND, "epoch": self.epoch, **self._content()}

    def _content(self) -> dict:
        """The bucket as a few long columns — what a checkpoint writes,
        ``bucket.dump`` ships, ``bucket.load`` installs and a backup
        keeps.

        Records are three parallel columns in store order — the codec
        and the wire sizer take each in one pass where a list of
        per-record tuples would cost a walk over every field.  The
        lists are fresh: a dump is a copy, never a view of the bucket.
        No Δ is part of it: checkpoints are taken between messages and
        a dump ships held Δs first.  Nor is the rank counter or the free
        list: both follow from the ranks (:meth:`_load_content`).
        """
        records = self.bucket.records
        return {
            "level": self.bucket.level,
            "keys": list(records),
            "ranks": list(map(self.ranks.__getitem__, records)),
            "payloads": list(records.values()),
            "parity_seq": self._parity_seq,
        }

    def _load_image(self, state: dict | None) -> None:
        """Inverse of :meth:`_image` (restart).  None — no readable
        image — empties the bucket at the level it holds."""
        state = state or {"epoch": 0, "level": self.bucket.level, "keys": [],
                          "ranks": [], "payloads": [], "parity_seq": 0}
        self.epoch = state["epoch"]
        self._load_content(state)
        self._delta_history = RunRing()

    def _load_content(self, state: dict) -> None:
        """Inverse of :meth:`_content`: replaces every record and rank,
        and is the one place the rest is derived — the counter is the
        highest held rank, the free ranks the unheld ones below it.  A
        live bucket's free ranks are {1..counter} minus the held ones,
        so this hands out the ranks it would, whatever its counter."""
        self.bucket.level = state["level"]
        keys, ranks = state["keys"], state["ranks"]
        self.bucket.records = dict(zip(keys, state["payloads"]))
        self.ranks = dict(zip(keys, ranks))
        key_at: list[int | None] = [None] * (max(ranks, default=0) + 1)
        for key, rank in zip(keys, ranks):
            key_at[rank] = key
        self._key_at = key_at
        # ascending, so already a heap
        self._free_ranks = [
            rank for rank in range(1, len(key_at)) if key_at[rank] is None
        ]
        self._parity_seq = state["parity_seq"]

    # -- restart-with-delta-catch-up -----------------------------------
    def on_restored(self) -> None:
        """Network hook: this node just came back from a crash.

        RAM-only servers (durability off) keep the legacy silent-rebirth
        semantics — state intact, nobody told — which the pre-durability
        chaos suites pin byte-for-byte: the hook does nothing.
        """
        if self._durable is not None:
            self._durable.restart()

    def _restart_report(self, clean: bool) -> tuple[int, dict]:
        """``bucket.restart``'s ``bucket`` and the rejoin's fields."""
        return self.number, {"seq": self._parity_seq, "clean": clean}

    # -- WAL replay ----------------------------------------------------
    def _replay_frame(self, frame: dict) -> None:
        """Apply one logged frame to the store.  Inserts log the payload
        verbatim; updates log the XOR Δ, so the new value is ``old ⊕ Δ``
        trimmed to the logged length (exactly how the parity channel
        reconstructs it).  A run joins the history ring and ends the
        durable prefix the rejoin reports: catch-up fetches past it,
        channels behind it get a resend."""
        if "ctl" in frame:
            if frame["ctl"] == "level":
                self.bucket.level = frame["level"]
            elif frame["ctl"] == "wipe":
                self._wipe()
            return
        # the run, not the decoded frame: its ``lsn`` is this disk's
        # business, never the wire's
        run = frame["prun"]
        action, _, seq0, keys, ranks, deltas, lengths = run
        bucket = self.bucket
        for key, rank, delta, length in zip(keys, ranks, deltas, lengths):
            if action == "insert":
                self._adopt_rank(rank)
                self._assign_rank(key, rank)
                bucket.put(key, delta)
            elif action == "update":
                bucket.put(key, delta_payload(bucket.get(key), delta)[:length])
            elif key in bucket:  # delete
                bucket.delete(key)
                self._release_rank(self._unassign_rank(key))
        self._delta_history.remember(run)
        self._parity_seq = seq0 + len(keys) - 1

    def _adopt_rank(self, rank: int) -> None:
        """Claim a *specific* rank during replay: pull it from the free
        heap if present, else extend the counter to cover it (ranks
        skipped on the way up become free, exactly as the live
        allocation path left them)."""
        top = len(self._key_at)
        if rank >= top:
            for skipped in range(top, rank):
                heapq.heappush(self._free_ranks, skipped)
            self._key_at.extend([None] * (rank + 1 - top))
        elif rank in self._free_ranks:
            self._free_ranks.remove(rank)
            heapq.heapify(self._free_ranks)

    # -- serving catch-up ----------------------------------------------
    def handle_runs_tail(self, message: Message) -> dict:
        """A restarted parity bucket asks for the Δs it missed: the
        history ring's runs past ``after`` (:meth:`RunRing.tail`)."""
        return self._delta_history.tail(
            message.payload["after"], self._parity_seq
        )

    # -- receiving catch-up --------------------------------------------
    def handle_runs_catchup(self, message: Message) -> dict:
        """Replay the Δs a live parity bucket applied past our durable
        prefix ``disk_seq``, resend what lagging ones miss, and unfence.

        ``runs`` is the newest covering parity ring's tail, the runs as
        we created them.  The Δs of the first that we hold are dropped —
        an update Δ is an XOR and must not apply twice — and the rest
        replay as the WAL's own frames; nothing fans out.

        ``resend_after`` (when present) means some parity bucket lags
        ``disk_seq`` — Δs we logged but never shipped (a fail-stop inside
        a batch, :meth:`_log`) or that were lost on the way: the ring's
        runs past it, taken while it still ends at ``disk_seq``, go out
        again (other channels skip them as duplicates).  The reply's
        ``floor`` is the highest sequence the resend could *not* reach
        back past; the coordinator rebuilds any parity still gapped.
        """
        payload = message.payload
        floor = self._parity_seq
        resend_after = payload.get("resend_after")
        resend = []
        if resend_after is not None and resend_after < floor:
            resend = self._delta_history.tail(resend_after, floor)["runs"]
            if resend:
                floor = resend_after
        applied = 0
        for run in payload["runs"]:
            skip = max(0, self._parity_seq + 1 - run[2])
            if skip < len(run[3]):
                if skip:
                    run = [*run[:2], run[2] + skip,
                           *(column[skip:] for column in run[3:])]
                self._replay_frame({"prun": run})
                applied += len(run[3])
        with self._durable.catching_up(applied):
            self._emit(resend)
            net = self._net()
            if net.tracer is not None:
                net.tracer.emit(
                    "catchup.data", self.node_id, self.number, applied,
                    self._parity_seq,
                )
        return {"ok": True, "applied": applied, "floor": floor}
