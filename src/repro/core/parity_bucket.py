"""The LH*RS parity bucket server.

Parity bucket i of bucket group g holds one parity record per record
group (rank) of g: the fold of every member's payload scaled by
this bucket's generator-row coefficient for the member's position.

The coefficients are handed in by the coordinator at creation.  With the
normalized Cauchy generator the rows are *nested*: row i is the same for
every availability level k > i, so raising a group's k never touches
existing parity buckets — the property scalable availability leans on.
Row 0 is all ones, making parity bucket 0 a pure XOR site.

Idempotence: every Δ carries the sending data bucket's monotonic
operation sequence number, and this bucket tracks the next expected
number per group position.  A Δ below the expectation is a
retransmission and is *skipped* — folding it again would silently
corrupt the parity, since the fold is its own inverse in GF(2^w).  A Δ
above it proves this bucket missed traffic (a dropped message): it
reports itself stale to the coordinator, which rebuilds it from the
group's data.

Storage and maintenance each have one shape.  A record is one row of
a :class:`~repro.core.stripe_store.StripeStore` — parity symbols, key
and length directory alike, behind a rank→row map — and nothing else:
a dump is a copy of those columns, signature scans run as one 2D
kernel, a checkpoint writes the columns as they stand, and the one
per-record form is :meth:`StripeStore.snapshot`, which ``parity.rank``
replies with and a degraded read decodes from (``parity.recover``).
Every Δ is created by
its data bucket as a *run* (one position, one action, distinct ranks,
consecutive sequence numbers; ``delta_run`` in
:mod:`repro.proto.schema`), and a ``parity.update``, a ``parity.batch``,
a catch-up tail and a WAL frame all carry runs as created.
:meth:`ParityServer._fold_run` folds one — the only routine that writes
Δ-derived symbols — and a durable bucket rings the part it applied per
position, the runs a restarted data bucket replays.
"""

from __future__ import annotations

from repro.core.durable import BucketReceive, Durability, RunRing
from repro.core.group import data_node, parity_node
from repro.core.recovery import RecoveryError
from repro.core.stripe_store import ABSENT, KEY_LIMIT, NO_KEY, StripeStore
from repro.gf.field import GF
from repro.rs.codec import RSCodec
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node

#: Kinds a fenced (restarted, not yet caught-up) parity bucket refuses
#: with NodeUnavailable: everything that folds Δs or serves content.
#: Catch-up traffic (runs.catchup, runs.tail), channel resets and
#: status probes stay answerable.
PARITY_FENCED_KINDS = frozenset(
    {
        "parity.update",
        "parity.batch",
        "parity.recover",
        "parity.rank",
        "parity.dump",
        "signature.dump",
    }
)


class ParityServer(BucketReceive, Node):
    """One parity bucket of one bucket group."""

    #: what its checkpoint images and restart trace call this kind
    KIND = "parity"
    FENCED_KINDS = PARITY_FENCED_KINDS

    def __init__(
        self,
        node_id: str,
        file_id: str,
        group: int,
        index: int,
        row: list[int],
        field: GF,
        generator: str = "cauchy",
    ):
        super().__init__(node_id)
        self.file_id = file_id
        self.group = group
        self.index = index
        self.row = list(row)
        self.field = field
        #: the generator kind ``row`` is a row of: a degraded read
        #: decodes with the group's other rows
        self.generator = generator
        self._store = StripeStore(field, slots=len(self.row))
        #: next expected Δ sequence number per group position (default 1)
        self._expected_seq: dict[int, int] = {}
        #: retransmissions skipped / gaps detected (observability)
        self.duplicates_skipped = 0
        self.gaps_detected = 0
        #: sticky gap marker: this bucket's content is behind its data.
        #: Surfaced in status replies so the probe loop rebuilds the
        #: bucket even when the report.stale was lost (coordinator down).
        self.stale = False
        #: newest coordinator state checkpoint (HA header; see
        #: RSCoordinator.checkpoint_to_parity)
        self.coord_checkpoint: dict | None = None
        #: §4.1's in-bucket secondary index: member key -> (rank, pos).
        #: Makes record recovery's lookup O(1) instead of a scan over
        #: every parity record ("shortens the bucket search time
        #: drastically" at negligible storage, as the paper notes);
        #: carrying the position too removes a scan over the record's
        #: key directory.
        self._key_index: dict[int, tuple[int, int]] = {}
        #: GF multiply-accumulate symbol operations performed (CPU model)
        self.symbol_ops = 0
        #: how many of those folds were coefficient-1 (pure XOR)
        self.xor_folds = 0
        self.general_folds = 0
        #: the durability shell (None = the legacy RAM-only server;
        #: enable_durability wires it when config.durability is on)
        self._durable: Durability | None = None
        #: per-position ring of the applied runs (durable buckets only) —
        #: serves a restarted data bucket's catch-up ask
        self._delta_log: dict[int, RunRing] | None = None
        self.epoch = 0
        self.fenced = False

    # ------------------------------------------------------------------
    # the Δ-record protocol
    # ------------------------------------------------------------------
    def _fold_run(
        self,
        action: str,
        pos: int,
        seq0: int,
        keys: list[int],
        ranks: list[int],
        deltas: list[bytes],
        lengths: list[int],
        wal: bool = True,
    ) -> tuple[int, bool]:
        """Fold one run of Δs; returns ``(applied, stale)``.

        The one place parity is maintained: channel check, fold into the
        store, key directory, ``_key_index``, counters, Δ-log ring, WAL.

        A run classifies against its channel in one comparison.
        ``seq0`` above the expectation is ``stale``: a prior Δ never
        arrived, this bucket's content is behind its data and must be
        rebuilt, so nothing applies.  Below it, the Δs up to the
        expectation are retransmissions and are skipped; the rest apply.
        Each Δ still gets its own ``parity.delta`` event.

        Validation comes before any state change and the channel only
        advances after the fold: a rejected or failed Δ can be resent
        and will apply.  ``wal`` is False when the caller replays the
        WAL or checkpoints the whole state itself.
        """
        if action not in ("insert", "update", "delete"):
            raise ValueError(f"unknown parity op {action!r}")
        if not 0 <= pos < len(self.row):
            raise ValueError(
                f"group position {pos} outside 0..{len(self.row) - 1}"
            )
        n = len(ranks)
        if n > 1 and len(set(ranks)) != n:
            # A scatter over repeated ranks would drop all but one fold.
            raise ValueError("the ranks of a parity run must be distinct")
        span = keys if n == 1 else (min(keys, default=0), max(keys, default=0))
        if not NO_KEY < span[0] <= span[-1] < KEY_LIMIT:
            raise ValueError("member keys are signed 64-bit integers")
        tracer = self.network.tracer if self.network is not None else None
        expected = self._expected_seq.get(pos, 1)
        if seq0 > expected:
            self.gaps_detected += 1
            self.stale = True
            if tracer is not None:
                self._trace_deltas(
                    tracer, action, pos, "stale", seq0, 1, expected, 0
                )
            return 0, True
        if seq0 < expected:
            skip = min(n, expected - seq0)
            self.duplicates_skipped += skip
            if tracer is not None:
                self._trace_deltas(
                    tracer, action, pos, "duplicate", seq0, skip, expected, 0
                )
            n -= skip
            seq0 += skip
            keys, ranks = keys[skip:], ranks[skip:]
            deltas, lengths = deltas[skip:], lengths[skip:]
        if n == 0:
            return 0, False

        field, store = self.field, self._store
        coefficient = self.row[pos]
        try:
            # The kernel follows the run length: a lone Δ scales into
            # its row view in place, a longer run is stacked, scaled in
            # one table translate and scattered in one fancy-index XOR.
            if n == 1:
                symbols = field.symbol_length_for_bytes(len(deltas[0]))
                field.scale_accumulate(
                    store.ensure(ranks[0], symbols), coefficient, deltas[0]
                )
            else:
                needs = [field.symbol_length_for_bytes(len(d)) for d in deltas]
                symbols = sum(needs)
                stacked = field.stack_payloads(deltas, max(needs))
                store.scatter_xor(
                    ranks, needs,
                    stacked if coefficient == 1
                    else field.mul_matrix(stacked, coefficient),
                )
        except BaseException:
            # No half-born record (a row no member was ever written to)
            # for parity.recover / parity.dump to see.
            for rank in ranks:
                if rank in store and not store.snapshot(rank)["lengths"]:
                    store.release(rank)
            raise

        # The fold may have reallocated the store: fetch its cells now.
        slots, row_of, key_index = store.slots, store._row_of, self._key_index
        key_cells, length_cells = store.key_cells, store.length_cells
        for key, rank, length in zip(keys, ranks, lengths):
            first = row_of[rank] * slots
            if action == "delete":
                key_cells[first + pos] = NO_KEY
                length_cells[first + pos] = ABSENT
                key_index.pop(key, None)
                if key_cells[first : first + slots].tolist().count(NO_KEY) == slots:
                    # All members gone: the accumulated deltas cancel.
                    store.release(rank)
                continue
            if action == "insert":
                key_cells[first + pos] = key
                key_index[key] = (rank, pos)
            length_cells[first + pos] = length
        self.symbol_ops += symbols
        if coefficient == 1:
            self.xor_folds += n
        else:
            self.general_folds += n

        if tracer is not None:
            self._trace_deltas(tracer, action, pos, "apply", seq0, n, expected, 1)
        self._expected_seq[pos] = expected + n
        if self._durable is not None:
            run = [action, pos, seq0, keys, ranks, deltas, lengths]
            ring = self._delta_log.get(pos)
            if ring is None:
                ring = self._delta_log[pos] = RunRing()
            ring.remember(run)
            if wal:
                self._durable.log({"prun": run})
        return n, False

    def _trace_deltas(
        self, tracer, action: str, pos: int, verdict: str,
        seq0: int, count: int, expected: int, step: int,
    ) -> None:
        """One ``parity.delta`` event per sequenced Δ of a verdict span;
        the expectation moves (``step`` 1) only while Δs apply."""
        for i in range(count):
            tracer.emit(
                "parity.delta", self.node_id, pos, seq0 + i,
                expected + i * step, verdict, action,
            )

    def _report_stale(self) -> None:
        """Tell the coordinator this bucket missed Δ traffic (rebuild me).

        A down coordinator is tolerated: the staleness stays in
        :attr:`stale` and the next probe round (post-takeover) sweeps
        it up from the status reply instead.
        """
        try:
            self.send(
                f"{self.file_id}.coord", "report.stale", {"node": self.node_id}
            )
        except (NodeUnavailable, UnknownNode):
            pass

    # ------------------------------------------------------------------
    # coordinator-state checkpoints (HA headers)
    # ------------------------------------------------------------------
    def handle_coord_checkpoint(self, message: Message) -> None:
        """Store the coordinator's state snapshot (newest term, then LSN,
        wins: a primary that adopted a checkpoint numbers its journal anew)."""
        new, old = message.payload, self.coord_checkpoint
        if old is None or (new["term"], new["lsn"]) >= (old["term"], old["lsn"]):
            self.coord_checkpoint = dict(new)

    def handle_coord_checkpoint_fetch(self, message: Message) -> dict | None:
        """Return the stored coordinator checkpoint (None = never saw one)."""
        if self.coord_checkpoint is None:
            return None
        return dict(self.coord_checkpoint)

    def handle_parity_update(self, message: Message) -> dict:
        """Δ-runs from one data bucket: a scalar mutation's run of one
        (``parity.update``), or the runs of a structural move or a
        client batch (``parity.batch``, which also traces how many Δs
        it carries).  The reply is the ack in ``parity_ack`` mode; plain
        sends discard it.

        The runs of one message share a channel and are contiguous, so
        the first stale run means every later one is too — stop and
        report once.  A whole bucket's content never arrives here: a new
        or rebuilt parity bucket is loaded by ``parity.load``.
        """
        runs = message.payload["runs"]
        if message.kind == "parity.batch":
            tracer = self.network.tracer if self.network is not None else None
            if tracer is not None:
                tracer.emit(
                    "parity.batch", self.node_id, sum(len(run[3]) for run in runs)
                )
        applied = 0
        for run in runs:
            done, stale = self._fold_run(*run)
            applied += done
            if stale:
                self._report_stale()
                return {"status": "stale", "applied": applied}
        return {"status": "applied" if applied else "duplicate", "applied": applied}

    handle_parity_batch = handle_parity_update

    def handle_parity_reset(self, message: Message) -> None:
        """Close the Δ-channels of retired group positions.

        Sent by the coordinator when a data bucket dissolves in a merge
        while its group lives on.  A later split may re-create the
        bucket as a *fresh* server whose sequence counter restarts at
        zero; without the reset its Δs would arrive below the old
        channel expectation and be skipped as retransmissions.
        """
        positions = message.payload["positions"]
        tracer = self.network.tracer if self.network is not None else None
        if tracer is not None:
            tracer.emit("parity.reset", self.node_id, list(positions))
        self._close_channels(positions)
        if self._durable is not None:
            self._durable.log({"ctl": "reset", "positions": list(positions)})

    def _close_channels(self, positions: list[int]) -> None:
        for pos in positions:
            self._expected_seq.pop(pos, None)
            if self._delta_log is not None:
                self._delta_log.pop(pos, None)

    # ------------------------------------------------------------------
    # queries used by recovery
    # ------------------------------------------------------------------
    def handle_parity_dump(self, message: Message) -> dict:
        """Everything this bucket knows (bucket recovery reads this): a
        copy of the store's used rows and the channel expectations."""
        return {
            "store": self._store.dump(),
            "expected_seqs": dict(self._expected_seq),
        }

    def handle_parity_recover(self, message: Message) -> dict:
        """Serve one key whose data bucket is unavailable (or slow).

        A miss in the key directory is authoritative: every stored
        record of the group has an entry in every parity bucket, so the
        searched key does not exist and the key search can terminate
        *unsuccessfully with certainty* even while data buckets are down.

        On a hit, one ``record.rank`` multicast fetches the record
        group's other members from the survivors the directory lists;
        each reply must carry the key the directory names.  A member
        down, fenced or silent costs one ``parity.rank`` share from the
        next of the group's other live parity buckets (``parity``, from
        the coordinator, with the group's ``level``), and the m shares
        decode with :meth:`RSCodec.recover`.
        """
        payload = message.payload
        entry = self._key_index.get(payload["key"])
        if entry is None:
            return {"found": False, "value": None}
        rank, pos = entry
        m = len(self.row)
        first = self.group * m
        targets = {
            data_node(self.file_id, first + p): p
            for p, key in enumerate(self._store.keys_of(rank))
            if key != NO_KEY and p != pos
        }
        replies, _ = self._net().multicast(
            self.node_id, list(targets), "record.rank", {"rank": rank}
        )
        # The survivors flushed any Δ they held: read this bucket's
        # record now, and check every reply against it.
        record = self._store.snapshot(rank)
        keys = record["keys"]
        shares = {p: b"" for p in range(m) if p not in keys}
        for node_id, reply in replies.items():
            p = targets[node_id]
            if keys.get(p) != (None if reply is None else reply["key"]):
                raise RecoveryError(
                    f"directory lists key {keys.get(p)} at bucket "
                    f"{first + p} but the bucket denies it"
                )
            shares[p] = b"" if reply is None else reply["payload"]
        shares[m + self.index] = record["parity"]
        for index in payload["parity"]:
            if len(shares) >= m:
                break
            try:
                snapshot = self.call(
                    parity_node(self.file_id, self.group, index),
                    "parity.rank", {"rank": rank},
                )
            except (NodeUnavailable, DeliveryFault):
                continue
            if snapshot is not None:
                shares[m + index] = snapshot["parity"]
        if len(shares) < m:
            raise RecoveryError(
                f"record group ({self.group}, {rank}): only {len(shares)} "
                f"shares survive, {m} needed"
            )
        codec = RSCodec(m, payload["level"], self.field, self.generator)
        value = codec.recover(
            shares, [pos], payload_lengths={pos: record["lengths"][pos]}
        )[pos]
        return {"found": True, "value": value}

    def handle_parity_rank(self, message: Message) -> dict | None:
        """Snapshot of one rank's parity record (or None)."""
        rank = message.payload["rank"]
        return self._store.snapshot(rank) if rank in self._store else None

    def handle_parity_load(self, message: Message) -> None:
        """Install a store image — rebuilt, encoded for a raise, or
        restored — into a fresh (spare) parity bucket."""
        image = message.payload["store"]
        if image["slots"] != len(self.row):
            raise ValueError(
                f"an image of {image['slots']} group positions for a group "
                f"of {len(self.row)}"
            )
        self._store.load_image(image)
        self._key_index = self._store.locations()
        # A rebuilt spare is encoded from the group's *current* data, so
        # every Δ the senders have issued is already reflected; adopting
        # their counters makes any in-flight retransmission a duplicate.
        self._expected_seq = {
            int(pos): seq
            for pos, seq in message.payload.get("expected_seqs", {}).items()
        }
        self.stale = False
        if self._durable is not None:
            # A rebuilt image is the new durable baseline; whatever the
            # disk held belonged to another life.
            self._delta_log.clear()
            self.checkpoint_now()

    def handle_signature_dump(self, message: Message) -> dict:
        """Algebraic signatures of every parity record, keyed by rank.

        The whole bucket is one stacked matrix, so the signatures come
        out of one vectorized pass per signature symbol (zero padding
        contributes nothing to a signature).
        """
        from repro.gf.signatures import signature_matrix

        ranks, matrix = self._store.stacked()
        vectors = signature_matrix(
            self.field, matrix, message.payload.get("count", 2)
        )
        return {"index": self.index, "ranks": dict(zip(ranks, vectors))}

    def handle_status(self, message: Message) -> dict:
        status = {
            "group": self.group,
            "index": self.index,
            "records": len(self._store),
            "parity_bytes": self._store.nbytes(),
            "stale": self.stale,
        }
        if self._durable is not None:
            status.update(fenced=self.fenced, epoch=self.epoch)
        return status

    # ------------------------------------------------------------------
    # durable storage plane: WAL, checkpoints, restart and catch-up
    # ------------------------------------------------------------------
    def enable_durability(self, config) -> None:
        """Attach the durability shell (``config.durability``); ends
        with the baseline checkpoint of the bucket's birth state."""
        self._durable = Durability(self, config, f"{self.file_id}.coord")
        self._delta_log = {}
        self.checkpoint_now()

    def checkpoint_now(self) -> None:
        """Write a full-state checkpoint and truncate the WAL."""
        self._durable.checkpoint(self._image(), len(self._store))

    def _image(self) -> dict:
        """The checkpoint image: the live state, column for column —
        ``store`` is :meth:`StripeStore.image`.  Nothing is transposed or
        walked per record: the codec packs each array in one pass.  The
        wire carries the same store form: ``parity.dump`` ships a copy of
        its used rows, ``parity.load`` installs one.  The Δ rings are not
        imaged: a restart refills them from the WAL replay only.
        """
        return {
            "kind": self.KIND,
            "epoch": self.epoch,
            "store": self._store.image(),
            "expected_seqs": self._expected_seq,
            "stale": self.stale,
            "coord": self.coord_checkpoint,
        }

    def _load_image(self, state: dict | None) -> None:
        """Inverse of :meth:`_image` (restart); None — no readable image
        — loads the bucket as it was born."""
        state = state or {
            "epoch": 0, "store": StripeStore(self.field, len(self.row)).image(),
            "expected_seqs": {}, "stale": False, "coord": None,
        }
        self.epoch = state["epoch"]
        self._store.load_image(state["store"])
        self._key_index = self._store.locations()
        self._expected_seq = state["expected_seqs"]
        self.stale = state["stale"]
        self.coord_checkpoint = state["coord"]
        self._delta_log = {}

    # -- restart-with-delta-catch-up -----------------------------------
    def on_restored(self) -> None:
        """Network hook: this node just came back from a crash (the
        rule of :meth:`RSDataServer.on_restored`)."""
        if self._durable is not None:
            self._durable.restart()

    def _restart_report(self, clean: bool) -> tuple[int, dict]:
        """``bucket.restart``'s ``bucket`` and the rejoin's fields (a
        stale bucket's prefix proves nothing)."""
        return self.index, {"expected_seqs": dict(self._expected_seq),
                            "clean": clean and not self.stale}

    # -- WAL replay ----------------------------------------------------
    def _replay_frame(self, frame: dict) -> None:
        if "prun" in frame:
            self._fold_run(*frame["prun"], wal=False)
        elif frame["ctl"] == "reset":
            self._close_channels(frame["positions"])

    # -- serving catch-up ----------------------------------------------
    def handle_runs_tail(self, message: Message) -> dict:
        """A restarted data bucket asks for the Δs it issued past
        ``after``: position ``pos``'s ring of applied runs
        (:meth:`RunRing.tail`), as the data bucket created them."""
        pos = message.payload["pos"]
        return self._delta_log.get(pos, RunRing()).tail(
            message.payload["after"], self._expected_seq.get(pos, 1) - 1
        )

    # -- receiving catch-up --------------------------------------------
    def handle_runs_catchup(self, message: Message) -> dict:
        """Apply the Δs this bucket missed while down, then unfence.

        ``runs`` is each group member's WAL tail past our channel
        expectation, the runs as the member logged them, in sequence
        order.  Everything runs through the normal channel check, so
        overlap with what we already hold dedups per Δ; a gap (``stale``
        verdict) means the coordinator's coverage check was defeated by
        a concurrent channel advance — report failure so it falls back
        to a full rebuild.
        """
        applied = 0
        for run in message.payload["runs"]:
            # Not logged run by run: the catch-up's checkpoint covers them.
            done, stale = self._fold_run(*run, wal=False)
            applied += done
            if stale:
                return {"ok": False, "applied": applied}
        self.stale = False
        with self._durable.catching_up(applied):
            net = self._net()
            if net.tracer is not None:
                net.tracer.emit(
                    "catchup.parity", self.node_id, self.group, self.index,
                    applied,
                )
        return {"ok": True, "applied": applied}
