"""The LH*RS coordinator.

Extends the LH* coordinator with the high-availability duties:

* every new bucket group gets k parity buckets at birth (k from the
  availability policy at that moment);
* the scalable-availability policy can raise k as the file grows — new
  groups are born at the higher level, and the split pointer retrofits
  existing ones: fresh parity buckets are encoded from the group's data
  and the group's data servers learn their new parity targets;
* unavailability reports converge here: searches are served through
  record recovery (degraded reads) and failed buckets are rebuilt onto
  spares under their logical addresses;
* the coordinator itself is expendable: its durable state is one
  object (``self.durable``, a ``repro.core.journal.JournalState``) that
  only ``_journal`` writes — append, apply, replicate — and that is
  checkpointed into parity-bucket headers, so a standby replays the
  journal, *is handed* the state and rolls interrupted restructurings
  forward (see ``repro.core.standby``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import count

from repro.core.config import LHRSConfig
from repro.core.group import data_node, group_buckets, group_count, group_of, parity_node
from repro.core.data_bucket import RSDataServer
from repro.core.journal import RETIRED, CoordinatorJournal, JournalRecord, JournalState
from repro.core.parity_bucket import ParityServer
from repro.core.recovery import (
    RecoveryError,
    RecoveryManager,
    parse_node_id,
    reconstruct_state,
)
from repro.obs.metrics import MTTR_BUCKETS
from repro.rs.generator import parity_matrix
from repro.sdds.coordinator import Coordinator, SplitPolicy
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode


class CoordinatorCrashed(DeliveryFault):
    """The coordinator died mid-command (an armed crash point fired).

    Subclasses :class:`DeliveryFault` so the client retry ladders treat
    a coordinator lost mid-chain exactly like any other transient
    delivery failure: back off, retry, and — once a standby has taken
    over — replay the (ack-tokened) request against the new primary.
    """

    def __init__(self, node_id: str, point: str):
        super().__init__(node_id, "request")
        self.point = point


#: entries the coordinator's health log keeps before evicting the oldest
HEALTH_LOG_CAPACITY = 512


class BoundedHealthLog:
    """Drop-oldest ring buffer over probe-round health entries.

    The self-healing loop appends one entry per round forever; a
    long-lived coordinator must not grow without bound on its own
    telemetry.  Reads behave like a list (len, iteration, indexing and
    slicing — ``bench_e16_lifetime`` consumes it that way); evictions
    are counted in :attr:`dropped` and surfaced as a gauge.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("health log capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[dict] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, entry: dict) -> None:
        if len(self._entries) == self.capacity:
            self.dropped += 1
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]


class RSCoordinator(Coordinator):
    """Coordinator of one LH*RS file."""

    def __init__(
        self,
        node_id: str,
        file_id: str,
        capacity: int | None = None,
        n0: int | None = None,
        policy: SplitPolicy | None = None,
        config: LHRSConfig | None = None,
    ):
        self.config = config or LHRSConfig()
        if capacity is not None and capacity != self.config.bucket_capacity:
            raise ValueError("capacity is fixed by LHRSConfig.bucket_capacity")
        if n0 is not None and n0 != self.config.group_size:
            raise ValueError("n0 is fixed by LHRSConfig.group_size (one group)")
        super().__init__(
            node_id,
            file_id,
            capacity=self.config.bucket_capacity,
            n0=self.config.group_size,
            policy=policy,
        )
        self.field = self.config.make_field()
        #: write-ahead journal of state transitions (HA substrate)
        self.journal = CoordinatorJournal(spares=self.config.spare_servers)
        #: everything a takeover must not forget — group levels, spare
        #: balance, bucket epochs, term, open intents, the committed
        #: (n, i) — written by :meth:`_journal` alone
        self.durable: JournalState = self.journal.replay()
        self.recovery = RecoveryManager(self)
        #: per-probe-round health entries (the self-healing loop's log;
        #: bench_e16_lifetime consumes this), a drop-oldest ring
        self.health_log = BoundedHealthLog(HEALTH_LOG_CAPACITY)
        #: first probe round that saw each currently-down node (feeds
        #: the probe.mttr histogram when the node comes back)
        self._down_since: dict[str, float] = {}
        #: standby replica node ids this primary replicates to
        self.standby_ids: list[str] = []
        #: armed crash points (fault injection inside a command chain)
        self.crash_points: set[str] = set()
        #: crash points that actually fired on this object
        self.crash_log: list[str] = []
        #: intents rolled forward (or aborted) by adopt_journal_state
        self.takeover_resumes: list[dict] = []
        self._appends_since_checkpoint = 0
        self._last_beat_sent = float("-inf")
        self._hb_busy = False

    @property
    def spares_remaining(self) -> int | None:
        """Hot spares left in the pool (None = unbounded)."""
        return self.durable.spares

    @property
    def term(self) -> int:
        """Monotonic takeover epoch (each standby promotion adds one)."""
        return self.durable.term

    def take_spare(self) -> None:
        """Consume one hot spare for a recovery; raises when exhausted."""
        spares = self.durable.spares
        if spares is None:
            return
        if spares <= 0:
            raise RecoveryError(
                "hot-spare pool exhausted: provision more servers before "
                "further recoveries"
            )
        self._journal("spares", remaining=spares - 1)

    # ------------------------------------------------------------------
    # journal, replication, checkpoints
    # ------------------------------------------------------------------
    def _journal(self, type: str, **payload) -> JournalRecord:
        """The only writer of :attr:`durable`: append one record, apply
        it, replicate and checkpoint when HA is on.

        Journaling is always local (it costs no messages); replication
        to standbys and parity-header checkpoints only happen once
        standbys are attached, so a replica-less file pays nothing.
        """
        record = self.journal.append(type, **payload)
        self.durable.apply(record)
        network = self.network
        if network is None:
            return record
        if network.tracer is not None:
            network.tracer.emit("coord.journal", type, record.lsn)
        if self.standby_ids:
            wire = [record.to_wire()]
            for standby_id in self.standby_ids:
                try:
                    self.call(
                        standby_id,
                        "coord.journal.append",
                        {"records": wire, "term": self.term},
                    )
                except (NodeUnavailable, UnknownNode):
                    # A down standby catches up from the journal.fetch
                    # path once it hears a heartbeat again.
                    continue
            self._appends_since_checkpoint += 1
            if (
                self._appends_since_checkpoint
                >= self.config.journal_checkpoint_interval
            ):
                self.checkpoint_to_parity()
        return record

    def checkpoint_to_parity(self) -> None:
        """Push a state snapshot into every parity bucket's header.

        The checkpoint is the journal's belt-and-braces: a takeover that
        finds the journal empty (or truncated) asks the parity buckets
        for the newest checkpoint before falling back to probing the
        data buckets themselves.
        """
        snapshot = self.durable.snapshot()
        network = self._net()
        delivered = 0
        for group in snapshot["group_levels"]:
            for node_id in self.parity_nodes(group):
                try:
                    self.send(node_id, "coord.checkpoint", snapshot)
                    delivered += 1
                except (NodeUnavailable, UnknownNode):
                    continue
        self._appends_since_checkpoint = 0
        if network.tracer is not None:
            network.tracer.emit("coord.checkpoint", snapshot["lsn"], delivered)

    def arm_crash(self, point: str) -> None:
        """Arm a crash point: the next command reaching it kills this
        coordinator mid-chain (fault injection for takeover tests)."""
        self.crash_points.add(point)

    def _crash_hook(self, point: str) -> None:
        if point not in self.crash_points:
            return
        self.crash_points.discard(point)
        self.crash_log.append(point)
        network = self._net()
        if network.tracer is not None:
            network.tracer.emit("coord.crash", point, self.node_id)
        network.fail(self.node_id)
        raise CoordinatorCrashed(self.node_id, point)

    # ------------------------------------------------------------------
    # HA message handlers + heartbeat
    # ------------------------------------------------------------------
    def handle_coord_ping(self, message: Message) -> dict:
        """Lease-confirmation probe from a suspicious standby."""
        return {"term": self.term, "lsn": self.journal.last_lsn}

    def handle_coord_journal_fetch(self, message: Message) -> dict:
        """A replica pulls the journal suffix it is missing."""
        after = int(message.payload.get("after", 0))
        return {"records": self.journal.since(after), "term": self.term}

    def handle_coord_whois(self, message: Message) -> dict:
        """Client failover probe: the active primary answers for itself."""
        return {"primary": self.node_id, "ready": True}

    def _heartbeat_tick(self, now: float) -> None:
        """Clock listener: renew the standbys' lease on the primary.

        Self-deactivates when this object is no longer the registered
        coordinator (a standby replaced it) or is currently failed.
        """
        network = self.network
        if network is None or self._hb_busy or not self.standby_ids:
            return
        if network.nodes.get(self.node_id) is not self:
            return
        if self.node_id in network.failed:
            return
        if now - self._last_beat_sent < self.config.heartbeat_interval:
            return
        self._hb_busy = True
        try:
            self._last_beat_sent = now
            beat = {"term": self.term, "lsn": self.journal.last_lsn}
            for standby_id in self.standby_ids:
                try:
                    self.send(standby_id, "coord.heartbeat", beat)
                except (NodeUnavailable, UnknownNode, DeliveryFault):
                    continue
        finally:
            self._hb_busy = False

    # ------------------------------------------------------------------
    # takeover adoption: journal -> checkpoints -> survivor probes
    # ------------------------------------------------------------------
    def adopt_journal_state(self, replayed: JournalState, term: int) -> None:
        """Take over past ``term`` (a promoting standby registered this
        object under the coordinator id): hold the replayed state, then
        roll open intents forward.  A journal that never saw bootstrap
        journals what the newest parity-header checkpoint says — else
        the A6-style survivor probe — so it replays to that state too.
        """
        self.durable = durable = replayed
        if durable.n is None:
            found = self.newest_checkpoint() or self._discover_from_survivors()
            for type, payload in found.records():
                self._journal(type, **payload)
        self._journal("takeover", term=max(term, durable.term) + 1)
        self.state.n, self.state.i = durable.n, durable.i
        self.state.splits_done = self.state.bucket_count - self.state.n0
        # Every group of the current extent must have a known level; a
        # journal-less takeover probes the parity namespace for them.
        for group in range(
            group_count(self.state.bucket_count, self.config.group_size)
        ):
            if group not in durable.group_levels:
                level = self._probe_group_level(group)
                if level:
                    self._journal("group.level", group=group, level=level)
        # Innermost intent first: a raise triggered inside a split must
        # settle before the split itself is rolled forward.
        for record in reversed(durable.open_intents):
            self._resume_intent(record)
        # A replica that was down replays a strict prefix: re-enter the
        # splits and merges whose buckets show the file went on without it.
        nodes = self._net().nodes
        while data_node(self.file_id, self.state.bucket_count) in nodes:
            self.split_once()
        while data_node(self.file_id, self.state.bucket_count - 1) not in nodes:
            self.merge_once()
        # The last split's retrofit is no intent: the policy is re-read.
        if self.state.bucket_count > self.state.n0:
            self._retrofit(self.state.next_merge()[0])
        if self.standby_ids:
            self.checkpoint_to_parity()

    def _walk(self, node_of, kind: str = "status"):
        """Call ``kind`` on ``node_of(0)``, ``node_of(1)``, … until an
        address is not registered; yields each reply (None for a node
        that is down).  Needs no prior knowledge of the extent."""
        for index in count():
            try:
                yield self.call(node_of(index), kind)
            except UnknownNode:
                return
            except (NodeUnavailable, DeliveryFault):
                yield None

    def newest_checkpoint(self) -> JournalState | None:
        """Newest coordinator checkpoint any reachable parity bucket
        holds (None when nothing is reachable or nothing was stored);
        an empty parity row ends the walk over the groups."""
        best: dict | None = None
        for group in count():
            row = list(self._walk(
                partial(parity_node, self.file_id, group), "coord.checkpoint.fetch"
            ))
            if not row:
                return None if best is None else JournalState.from_snapshot(best)
            for reply in row:
                if reply is not None and (
                    best is None
                    or (reply["term"], reply["lsn"]) > (best["term"], best["lsn"])
                ):
                    best = reply

    def _discover_from_survivors(self) -> JournalState:
        """A6 discipline with nothing else to go on: probe data-bucket
        levels sequentially and reconstruct ``(n, i)`` from survivors."""
        replies = self._walk(partial(data_node, self.file_id))
        levels = {r["bucket"]: r["level"] for r in replies if r is not None}
        n, i = reconstruct_state(levels, self.state.n0)
        return JournalState(n, i, spares=self.durable.spares, term=self.durable.term)

    def _probe_group_level(self, group: int) -> int:
        """How many parity buckets exist for ``group`` (0 = none)."""
        return sum(1 for _ in self._walk(partial(parity_node, self.file_id, group)))

    # ------------------------------------------------------------------
    # intent roll-forward
    # ------------------------------------------------------------------
    def _resume_intent(self, record: JournalRecord) -> None:
        """Settle one open intent: a command is its own roll-forward.

        A split or merge is re-entered — through the command itself,
        whose every step tolerates having run — only when the plan
        re-derived from the replayed state equals the journaled one.
        Otherwise the intent is stale (leaked by a command that raised,
        or finished with its ``intent.end`` not replicated): it is
        closed as aborted and the state is left alone.
        """
        payload = record.payload
        op = payload.get("op")
        network = self._net()
        if network.tracer is not None:
            network.tracer.emit("coord.resume", op, record.lsn)
        self.takeover_resumes.append({"op": op, "lsn": record.lsn})
        plan = (payload.get("source"), payload.get("target"), payload.get("level"))
        shrinkable = self.state.bucket_count > self.state.n0
        if op == "split" and plan == self.state.next_split():
            if data_node(self.file_id, plan[1]) in network.failed:
                # The target died after the crash.  It belongs to the
                # file only in the post-split extent, so only there can
                # it be rebuilt — and it must be, before the split ships
                # records to it.
                self.state.advance_split()
                self._ensure_available(data_node(self.file_id, plan[1]))
                self.state.retreat_merge()
            self.split_once(record)
        elif op == "merge" and shrinkable and plan == self.state.next_merge():
            self.merge_once(record)
        elif op == "raise":
            self._resume_raise(record)
        elif op == "recover":
            self._resume_recover(record)
        else:
            self._journal("intent.end", begin=record.lsn, outcome="abort")

    def _resume_raise(self, record: JournalRecord) -> None:
        """Abort a half-done availability raise, then redo it.

        Partially encoded new parity columns are unregistered and the
        group's level reset to the pre-raise value — the redo is then an
        ordinary (atomic-at-this-layer) ``raise_group_level``.
        """
        payload = record.payload
        group = payload["group"]
        from_level, to_level = payload["from_level"], payload["to_level"]
        network = self._net()
        for index in range(from_level, to_level):
            node_id = parity_node(self.file_id, group, index)
            if node_id in network.nodes:
                network.unregister(node_id)
        if self.durable.group_levels.get(group, 0) > from_level:
            self._journal("group.level", group=group, level=from_level)
        self._journal("intent.end", begin=record.lsn, outcome="abort")
        if group not in self.durable.group_levels:
            return  # the group has since retired
        self._ensure_available(*self.data_nodes(group))
        self.raise_group_level(group, to_level)

    def _resume_recover(self, record: JournalRecord) -> None:
        """Abort the interrupted recovery intent and re-probe the group.

        Recovery is idempotent roll-forward by construction (spares are
        fresh objects, installs re-run); what matters after a takeover
        is that still-down members get rebuilt, which the best-effort
        re-recovery does.
        """
        self._journal("intent.end", begin=record.lsn, outcome="abort")
        group = record.payload["group"]
        if group not in self.durable.group_levels:
            return
        members = self.data_nodes(group) + self.parity_nodes(group)
        down = [n for n in members if not self._net().is_available(n)]
        if down:
            self.recovery.recover_nodes(down, best_effort=True)

    # ------------------------------------------------------------------
    # group/parity bookkeeping
    # ------------------------------------------------------------------
    def group_level(self, group: int) -> int:
        """Current availability level k of a bucket group."""
        try:
            return self.durable.group_levels[group]
        except KeyError:
            raise KeyError(f"bucket group {group} does not exist") from None

    @property
    def group_levels(self) -> dict[int, int]:
        """Read-only view of every group's availability level."""
        return dict(self.durable.group_levels)

    def data_nodes(self, group: int) -> list[str]:
        """Addresses of a group's data buckets in the current extent."""
        members = group_buckets(
            group, self.config.group_size, self.state.bucket_count
        )
        return [data_node(self.file_id, bucket) for bucket in members]

    def parity_nodes(self, group: int) -> list[str]:
        """Addresses of a group's parity buckets (none: no such group)."""
        return [
            parity_node(self.file_id, group, index)
            for index in range(self.durable.group_levels.get(group, 0))
        ]

    def parity_row(self, index: int) -> list[int]:
        """Generator row for parity bucket ``index`` (nested rows).

        With the normalized Cauchy construction, row ``index`` of the
        (m, k) parity matrix is the same for every k > index, so the row
        can be issued before knowing how high k will ever scale.
        """
        matrix = parity_matrix(
            self.field, self.config.group_size, index + 1, self.config.generator
        )
        return matrix.row(index)

    def make_parity_server(self, group: int, index: int) -> ParityServer:
        server = ParityServer(
            node_id=parity_node(self.file_id, group, index),
            file_id=self.file_id,
            group=group,
            index=index,
            row=self.parity_row(index),
            field=self.field,
            generator=self.config.generator,
        )
        return self._outfit(server)

    def make_server(self, number: int, level: int) -> RSDataServer:
        group = group_of(number, self.config.group_size)
        server = RSDataServer(
            node_id=data_node(self.file_id, number),
            file_id=self.file_id,
            number=number,
            level=level,
            capacity=self.capacity,
            n0=self.state.n0,
            group_size=self.config.group_size,
            parity_targets=self.parity_nodes(group),
            compact_ranks=self.config.compact_ranks,
            field_width=self.config.field_width,
            retry_policy=self.config.retry_policy,
            parity_ack=self.config.parity_ack,
        )
        return self._outfit(server)

    def _outfit(self, server):
        """What every bucket server gets: its queue bound and, on a
        durable file, its address's current epoch and its disk."""
        server.inbound_queue_limit = self.config.bucket_queue_limit
        if self.config.durability:
            server.epoch = self.durable.bucket_epochs.get(server.node_id, 0)
            server.enable_durability(self.config)
        return server

    def bump_epoch(self, node_id: str) -> None:
        """Advance a bucket address's incarnation — the fence behind a
        spare install, or a merge a down parity bucket missed — so a
        restarted server whose disk predates it can never catch up into
        a file that already replaced it."""
        epoch = self.durable.bucket_epochs.get(node_id, 0) + 1
        self._journal("bucket.epoch", node=node_id, epoch=epoch)

    # ------------------------------------------------------------------
    # growth hooks
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Create group 0's parity buckets, then the initial data buckets."""
        self._create_group(0)
        super().bootstrap()
        self._journal("file.state", n=self.state.n, i=self.state.i)

    def _create_group(self, group: int) -> None:
        """Give ``group`` its level and parity buckets, whichever of the
        two it still lacks (a resumed split may find it half-born)."""
        if group not in self.durable.group_levels:
            self._journal("group.level", group=group, level=self.policy_level)
        for index, node_id in enumerate(self.parity_nodes(group)):
            if node_id not in self._net().nodes:
                self._net().register(self.make_parity_server(group, index))

    def on_new_bucket(self, number: int, level: int) -> None:
        if number % self.config.group_size == 0:
            self._create_group(group_of(number, self.config.group_size))

    def merge_once(self, intent: JournalRecord | None = None) -> tuple[int, int]:
        """Shrink by one bucket, maintaining parity on both groups.

        The dissolving bucket's records leave its record groups (batched
        Δ-deletes) and re-enter the absorber's (fresh ranks, batched
        Δ-inserts, via the ordinary bulk path).  When the dissolving
        bucket was its group's only member, the whole group — parity
        buckets included — retires with it (:meth:`on_bucket_removed`).
        ``intent`` is the open record of an interrupted merge a takeover
        re-enters; the live command journals its own.
        """
        source, target, level = self.state.next_merge()
        m = self.config.group_size
        group = group_of(target, m)
        # The participants must be up before the state retreats (see
        # _ensure_available on why recovery cannot happen mid-command):
        # both data buckets and the parity buckets that are to forget the
        # dissolved position (an empty bucket ships no Δ to heal one).
        self._ensure_available(
            data_node(self.file_id, target), data_node(self.file_id, source),
            *self.parity_nodes(group),
        )
        tracer = self._net().tracer
        if tracer is not None:
            tracer.emit("merge.start", target, target % m == 0)
        begin = intent or self._journal(
            "intent.begin", op="merge", source=source, target=target, level=level
        )
        result = super().merge_once()
        self._journal("file.state", n=self.state.n, i=self.state.i)
        self._journal("intent.end", begin=begin.lsn)
        if tracer is not None:
            tracer.emit("merge.end", source, target)
        return result

    def on_bucket_removed(self, number: int) -> None:
        """Retire the dissolved bucket's group if it was the only member,
        else close its Δ-channels so a future split re-creating the
        bucket (fresh sequence counter) is not mistaken for
        retransmissions.  A parity bucket that is down (``auto_recover``
        off) gets no reset: a rebuild from data has no channel for the
        position, and the epoch fence keeps a restart from catching up
        onto the dead one."""
        m = self.config.group_size
        group, pos = group_of(number, m), number % m
        if group not in self.durable.group_levels:
            return  # already retired (idempotent under resume)
        parity = self.parity_nodes(group)
        network = self._net()
        if pos == 0:
            self._journal("group.level", group=group, level=RETIRED)
        for node_id in parity:
            if pos == 0:
                if node_id in network.nodes:
                    network.unregister(node_id)
            elif network.is_available(node_id):
                self.send(node_id, "parity.reset", {"positions": [pos]})
            else:
                self.bump_epoch(node_id)

    @property
    def policy_level(self) -> int:
        """The level the policy asks of every group at the current extent."""
        groups = group_count(self.state.bucket_count, self.config.group_size)
        return self.config.effective_policy.level_for(groups)

    def _retrofit(self, source: int) -> None:
        """The split pointer paces the retrofit: raise split source
        ``source``'s group if it lags :attr:`policy_level`, its down data
        buckets recovered first (``auto_recover`` off: it waits a split)."""
        group, target = group_of(source, self.config.group_size), self.policy_level
        if self.group_level(group) < target and self._ensure_available(
            *self.data_nodes(group)
        ):
            self.raise_group_level(group, target)

    def raise_group_level(self, group: int, new_level: int) -> None:
        """Add parity buckets to an existing group and encode them.

        A new parity column is the RS encode group recovery already
        performs for a lost one — a loss of the new indices against zero
        prior content — so the recovery machinery builds it from the
        members' dumps and delivers it by ``parity.load``; no spare is
        taken and the existing parity buckets are not read.  Then the
        group's data servers are told their new parity targets.
        """
        current = self.group_level(group)
        if new_level <= current:
            return
        tracer = self._net().tracer
        if tracer is not None:
            tracer.emit("availability.raise", group, current, new_level)
        if self.config.generator != "cauchy":
            raise RecoveryError(
                "raising availability needs nested generator rows; "
                "only the cauchy construction provides them"
            )
        # Read the group's data *before* committing anything: a dead
        # member surfaces here and leaves the group untouched (recover
        # it, then retry the raise).
        dumps = self.recovery.dump_data(group)
        begin = self._journal(
            "intent.begin",
            op="raise",
            group=group,
            from_level=current,
            to_level=new_level,
        )
        self._journal("group.level", group=group, level=new_level)
        self._crash_hook("raise.mid")
        self.recovery.encode_parity(group, dumps, range(current, new_level))
        targets = self.parity_nodes(group)
        for node_id in self.data_nodes(group):
            self.send(node_id, "config.parity", {"targets": targets})
        self._journal("intent.end", begin=begin.lsn)

    # ------------------------------------------------------------------
    # unavailability handling
    # ------------------------------------------------------------------
    def handle_report_unavailable(self, message: Message) -> None:
        """A client or server hit an unavailable bucket.

        Key searches are answered immediately through record recovery
        (degraded mode); the failed bucket (and any other
        casualties in its group) is then rebuilt onto a spare so later
        operations proceed normally.
        """
        payload = message.payload
        kind, op = payload.get("kind"), payload.get("op")
        tracer = self._net().tracer
        if tracer is not None:
            tracer.emit("report.unavailable", payload.get("node"), kind)

        if kind == "search" and op:
            found, value = self.recovery.recover_record(op["key"])
            self.send(
                op["client"],
                "search.result",
                {
                    "request": op["request"],
                    "key": op["key"],
                    "found": found,
                    "value": value,
                },
            )
            op = None  # already served

        node_id = payload["node"]
        if self.config.auto_recover:
            if not self._net().is_available(node_id):
                self.recovery.recover_nodes([node_id])
        elif op is not None or kind is None:
            # Mutations and parity-update failures cannot proceed in
            # degraded mode — losing them silently is never acceptable.
            raise RecoveryError(
                f"{node_id} is unavailable and auto_recover is disabled"
            )
        if op is not None:
            # Complete the mutation against the recovered bucket.
            self.deliver_routed(kind, dict(op, hops=op.get("hops", 0) + 1),
                                self.state.address(op["key"]))

    def handle_read_degraded(self, message: Message) -> dict:
        """Serve one key through record recovery while its data bucket
        is *slow but alive* — the client's hedged / circuit-broken
        alternate read path (gray-failure tolerance).

        Unlike :meth:`handle_report_unavailable` nothing is declared
        failed and no rebuild starts: the bucket still answers pings,
        it is merely blowing its latency SLO, so the coordinator only
        reconstructs the record from the group's other members and
        parity.  ``served=False`` tells the client to fall back to the
        primary's answer (no parity, or a member genuinely down).
        """
        try:
            found, value = self.recovery.recover_record(message.payload["key"])
        except (RecoveryError, NodeUnavailable, DeliveryFault):
            return {"served": False, "found": False, "value": None}
        return {"served": True, "found": found, "value": value}

    def deliver_routed(self, kind: str, op: dict, target: int) -> None:
        try:
            self.send(data_node(self.file_id, target), kind, op)
        except NodeUnavailable:
            if not self.config.auto_recover:
                raise
            self.recovery.recover_nodes([data_node(self.file_id, target)])
            self.send(data_node(self.file_id, target), kind, op)

    def _ensure_available(self, *node_ids: str) -> bool:
        """Recover any of the given nodes that are currently down; True
        when all of them are up.

        Called *before* a structural change (split/merge) touches the
        file state: recovering then is safe because the rebuilt bucket's
        level still matches the directory.  Recovering after the state
        advanced would rebuild at the post-change level while the
        content is still pre-change — which is why the restructuring
        paths never try to recover mid-command.  (Node crashes only
        happen between operation chains, so a participant alive here is
        alive for the whole command.)
        """
        down = [n for n in node_ids if n in self._net().failed]
        if down and self.config.auto_recover:
            self.recovery.recover_nodes(down)
        return not any(n in self._net().failed for n in down)

    def split_once(self, intent: JournalRecord | None = None) -> tuple[int, int]:
        """One split, bracketed by its intent; ``intent`` is the open
        record of an interrupted split a takeover re-enters.  The source
        group's retrofit follows once it closed: a raise is a command of
        its own and reads the extent the split produced."""
        source, target, level = self.state.next_split()
        self._ensure_available(data_node(self.file_id, source))
        begin = intent or self._journal(
            "intent.begin", op="split", source=source, target=target, level=level
        )
        result = super().split_once()
        self._journal("file.state", n=self.state.n, i=self.state.i)
        self._journal("intent.end", begin=begin.lsn)
        self._retrofit(source)
        return result

    def handle_report_stale(self, message: Message) -> None:
        """A parity bucket detected a gap in its Δ stream (or a sender
        exhausted its retry budget against it): its content no longer
        reflects the group's data.  Rebuild it from the data, which is
        always current (mutations precede their Δ sends).
        """
        node_id = message.payload["node"]
        tracer = self._net().tracer
        if tracer is not None:
            tracer.emit("report.stale", node_id)
        if not self.config.auto_recover:
            raise RecoveryError(
                f"{node_id} reported stale parity and auto_recover is disabled"
            )
        self.recovery.recover_nodes([node_id])

    def probe(self, best_effort: bool = False) -> dict:
        """Actively sweep every server for unavailability and recover.

        The papers let the coordinator detect failures itself (e.g.
        while requesting a split); this models a full probe round:
        multicast a status ping to every data and parity bucket, recover
        whatever did not answer.  ``best_effort`` (the self-healing
        loop) records per-group recovery failures instead of raising.
        Returns the probe summary.
        """
        targets = [
            data_node(self.file_id, b) for b in self.state.buckets()
        ] + [
            node for g in sorted(self.durable.group_levels)
            for node in self.parity_nodes(g)
        ]
        network = self._net()
        replies, unavailable = network.multicast(self.node_id, targets, "status")
        # A parity bucket that detected a Δ gap while the coordinator
        # was unreachable carries the staleness in its status reply —
        # the probe sweeps it up even though the report.stale was lost.
        stale = sorted(
            node for node, reply in replies.items() if reply.get("stale")
        )
        summary = {
            "probed": len(targets),
            "unavailable": list(unavailable),
            "stale": stale,
        }
        if network.tracer is not None:
            network.tracer.emit("probe.round", len(targets), len(unavailable))
        for node in unavailable:
            self._down_since.setdefault(node, network.now)
        needs_recovery = list(unavailable) + stale
        if needs_recovery and self.config.auto_recover:
            summary["recovered"] = self.recovery.recover_nodes(
                needs_recovery, best_effort=best_effort
            )
        # Repair-time accounting: a node first seen down at t_down that
        # answers again now contributes (now - t_down) to probe.mttr.
        # MTTR_BUCKETS is a module-level import: the accounting (and the
        # _down_since bookkeeping) must not depend on the metrics layer.
        if self._down_since:
            metrics = network.metrics
            for node in list(self._down_since):
                if network.is_available(node):
                    downtime = network.now - self._down_since.pop(node)
                    if metrics is not None:
                        metrics.histogram(
                            "probe.mttr",
                            MTTR_BUCKETS,
                            "probe-cycle repair time",
                        ).observe(downtime)
        return summary

    def run_probe_cycle(
        self, rounds: int = 1, advance_per_round: float = 1.0
    ) -> list[dict]:
        """The autonomous self-healing loop: probe, recover, log, repeat.

        Each round advances the simulated clock (letting scheduled
        crash/restore windows fire and delayed messages mature), sweeps
        every server, recovers what it can — best-effort, so a group
        beyond help or an exhausted spare pool is recorded rather than
        fatal — and appends a health entry to :attr:`health_log`.
        Returns this cycle's entries.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        entries: list[dict] = []
        for _ in range(rounds):
            if advance_per_round:
                self._net().advance(advance_per_round)
            summary = self.probe(best_effort=True)
            recovered = summary.get("recovered", {})
            entry = {
                "time": self._net().now,
                "probed": summary["probed"],
                "unavailable": list(summary["unavailable"]),
                "stale": list(summary.get("stale", [])),
                "recovered_groups": recovered.get("groups", 0),
                "recovered_data_buckets": recovered.get("data_buckets", 0),
                "recovered_parity_buckets": recovered.get("parity_buckets", 0),
                "records_rebuilt": recovered.get("records", 0),
                "errors": recovered.get("errors", []),
                "spares_remaining": self.spares_remaining,
            }
            self.health_log.append(entry)
            entries.append(entry)
        net = self._net()
        if net.metrics is not None:
            net.metrics.gauge(
                "coord.health_log.dropped",
                "health entries evicted from the bounded ring",
            ).set(self.health_log.dropped)
        return entries

    def handle_rejoin(self, message: Message) -> dict:
        """Self-detected recovery (§2.5.4-style): a restarted server asks
        whether it still carries its bucket or was replaced meanwhile.

        A payload carrying an ``epoch`` is the durable-storage handshake
        (docs/durability.md): the server replayed its WAL, is fenced, and
        asks to be caught up from the missed Δ tail.  The coordinator
        admits it only when its incarnation matches (no spare was
        installed under the address meanwhile) and the local replay was
        clean; otherwise — or when the delta tail is no longer covered —
        it falls back to a full RS rebuild onto a spare.  Payloads
        without ``epoch`` keep the legacy answer-only behavior."""
        node_id = message.payload["node"]
        parsed = parse_node_id(self.file_id, node_id)
        if parsed is None:
            return {"role": "unknown"}
        current = self._net().nodes.get(node_id)
        sender = self._net().nodes.get(message.sender)
        if current is not None and current is sender:
            if "epoch" in message.payload:
                return self._rejoin_durable(parsed, message.payload)
            return {"role": "current"}
        return {"role": "spare", "replacement": node_id}

    def _rejoin_durable(self, parsed, payload: dict) -> dict:
        node_id = payload["node"]
        expected = self.durable.bucket_epochs.get(node_id, 0)
        if payload["epoch"] != expected or not payload.get("clean", False):
            return self._rejoin_rebuild(node_id)
        try:
            if parsed[0] == "data":
                caught = self.recovery.catch_up_data(parsed[1], payload)
            else:
                caught = self.recovery.catch_up_parity(
                    parsed[1], parsed[2], payload
                )
        except (RecoveryError, NodeUnavailable, UnknownNode, DeliveryFault):
            caught = False
        if not caught:
            return self._rejoin_rebuild(node_id)
        return {"role": "caught-up"}

    def _rejoin_rebuild(self, node_id: str) -> dict:
        """Delta catch-up refused or impossible: full rebuild fallback."""
        net = self._net()
        if net.tracer is not None:
            net.tracer.emit("catchup.fallback", node_id)
        if net.metrics is not None:
            net.metrics.counter(
                "catchup.fallbacks",
                "restarts that fell back to a full RS rebuild",
            ).inc()
        if net.is_available(node_id):
            net.fail(node_id)
        try:
            self.recovery.recover_nodes([node_id])
        except RecoveryError:
            # Not recoverable right now (spares exhausted, too many
            # losses); the self-healing probe loop retries later.
            return {"role": "fenced"}
        return {"role": "rebuilt"}
