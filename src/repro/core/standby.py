"""Standby coordinator replicas: lease monitoring and takeover.

The active coordinator replicates every journal record synchronously to
its standbys (``coord.journal.append``) and renews their lease with
periodic heartbeats.  A standby whose lease expires first *confirms*
the suspicion with a direct ping (check-then-fence: a slow heartbeat is
not a death certificate), then promotes itself:

1. catch up the journal from the surviving peers,
2. depose the dead primary (unregister its node, detach its heartbeat),
3. build a fresh :class:`~repro.core.coordinator.RSCoordinator` under
   the *same* node id — clients keep addressing ``<file>.coord`` and
   only pay a whois round when they notice the blackout,
4. replay the journal and hand the state to ``adopt_journal_state``
   (``self.durable = replayed``; a journal-less replica falls back to
   the parity-header checkpoint, then survivor probes), which journals
   the takeover at the bumped term and rolls open restructuring intents
   forward,
5. resume heartbeating.

Clients that hit the dead primary before any standby noticed use the
``coord.whois`` pull path: the answering standby either vouches for the
primary, reports the remaining lease (the client backs off exactly that
long), or — lease already expired — performs the takeover inline.

Everything rides the ordinary simulated network: heartbeats, journal
replication and whois are counted messages, standbys are registered
nodes the :class:`~repro.sim.failure.FailureInjector` can kill too.
"""

from __future__ import annotations

from repro.core.config import LHRSConfig
from repro.core.coordinator import RSCoordinator
from repro.core.journal import CoordinatorJournal
from repro.sdds.coordinator import SplitPolicy
from repro.sim.messages import Message
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode
from repro.sim.node import Node


class StandbyCoordinator(Node):
    """A passive coordinator replica watching the primary's lease."""

    def __init__(
        self,
        node_id: str,
        file_id: str,
        config: LHRSConfig,
        policy: SplitPolicy | None = None,
        primary_id: str | None = None,
        peer_ids: list[str] | None = None,
    ):
        super().__init__(node_id)
        self.file_id = file_id
        self.config = config
        self.policy = policy
        self.primary_id = primary_id or f"{file_id}.coord"
        #: every standby id of this file (including self)
        self.peer_ids = list(peer_ids or [node_id])
        self.journal = CoordinatorJournal(spares=config.spare_servers)
        self.last_beat = 0.0
        self.term = 0
        #: how many takeovers this standby performed
        self.takeovers = 0
        self._busy = False

    # ------------------------------------------------------------------
    # replication plane
    # ------------------------------------------------------------------
    def handle_coord_journal_append(self, message: Message) -> dict:
        """Synchronous journal replication from the primary."""
        self.journal.ingest(message.payload["records"])
        self.term = max(self.term, int(message.payload.get("term", 0)))
        self.last_beat = self._net().now
        if self.journal.gaps():
            self._catch_up(message.sender)
        return {"lsn": self.journal.last_lsn}

    def handle_coord_heartbeat(self, message: Message) -> None:
        """Lease renewal; a journal position ahead of ours triggers a
        pull of the missing suffix (we were down for some appends)."""
        self.last_beat = self._net().now
        self.term = max(self.term, int(message.payload.get("term", 0)))
        if int(message.payload.get("lsn", 0)) > self.journal.last_lsn:
            self._catch_up(message.sender)
        elif self.journal.gaps():
            self._catch_up(message.sender)

    def handle_coord_journal_fetch(self, message: Message) -> dict:
        """Serve our journal suffix to a promoting (or lagging) peer."""
        after = int(message.payload.get("after", 0))
        return {"records": self.journal.since(after), "term": self.term}

    def _catch_up(self, source: str) -> None:
        try:
            reply = self.call(
                source,
                "coord.journal.fetch",
                {"after": self.journal.contiguous_lsn},
            )
        except (NodeUnavailable, UnknownNode, DeliveryFault):
            return
        self.journal.ingest(reply["records"])
        self.term = max(self.term, int(reply.get("term", 0)))

    # ------------------------------------------------------------------
    # client pull path
    # ------------------------------------------------------------------
    def handle_coord_whois(self, message: Message) -> dict:
        """Who is the coordinator?  Vouch, stall, or take over inline."""
        network = self._net()
        if network.tracer is not None:
            network.tracer.emit("coord.whois", self.node_id, message.sender)
        if network.is_available(self.primary_id):
            return {"primary": self.primary_id, "ready": True}
        remaining = self.config.lease_timeout - (network.now - self.last_beat)
        if remaining > 0:
            return {
                "primary": self.primary_id,
                "ready": False,
                "retry_after": remaining,
            }
        self.take_over(reason="whois")
        return {"primary": self.primary_id, "ready": True}

    # ------------------------------------------------------------------
    # lease monitor
    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        """Clock listener: expire the lease and confirm before fencing.

        Re-entrancy guard: our own calls tick the clock, which runs the
        listeners again before the call even delivers.
        """
        network = self.network
        if network is None or self._busy:
            return
        if network.nodes.get(self.node_id) is not self:
            return
        if self.node_id in network.failed:
            return
        if now - self.last_beat < self.config.lease_timeout:
            return
        self._busy = True
        try:
            if network.is_available(self.primary_id):
                try:
                    reply = self.call(self.primary_id, "coord.ping")
                except DeliveryFault:
                    return  # inconclusive — stay suspicious, retry next tick
                except (NodeUnavailable, UnknownNode):
                    pass  # died under us: fall through to takeover
                else:
                    self.last_beat = network.now
                    self.term = max(self.term, int(reply.get("term", 0)))
                    if int(reply.get("lsn", 0)) > self.journal.last_lsn:
                        self._catch_up(self.primary_id)
                    return
            if network.tracer is not None:
                network.tracer.emit(
                    "coord.lease.expired", self.node_id, self.primary_id,
                    now - self.last_beat,
                )
            self.take_over(reason="lease")
        finally:
            self._busy = False

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def take_over(self, reason: str = "lease") -> RSCoordinator | None:
        """Assume the coordinator identity (returns the new primary).

        Returns None when another standby won the race (the primary id
        answers again by the time we look).
        """
        network = self._net()
        if network.is_available(self.primary_id):
            return None  # lost the race — a peer already promoted
        was_busy = self._busy
        self._busy = True
        try:
            tracer = network.tracer
            if tracer is not None:
                tracer.emit(
                    "coord.takeover.start", self.node_id, reason, self.term
                )
            # Final catch-up: a peer may hold records we missed.
            for peer_id in self.peer_ids:
                if peer_id == self.node_id:
                    continue
                try:
                    reply = self.call(
                        peer_id,
                        "coord.journal.fetch",
                        {"after": self.journal.contiguous_lsn},
                    )
                except (NodeUnavailable, UnknownNode, DeliveryFault):
                    continue
                self.journal.ingest(reply["records"])
                self.term = max(self.term, int(reply.get("term", 0)))
            # The catch-up calls tick the clock: a peer's lease monitor
            # may have promoted meanwhile.  Its replication already put
            # the takeover in our journal — stand down.
            if network.is_available(self.primary_id):
                return None
            # Fence the deposed primary: its node and heartbeat go away
            # before the replacement registers under the same id.
            old = network.nodes.get(self.primary_id)
            if old is not None:
                network.unregister(self.primary_id)
                heartbeat = getattr(old, "_heartbeat_tick", None)
                if heartbeat is not None:
                    network.remove_clock_listener(heartbeat)
            coordinator = RSCoordinator(
                node_id=self.primary_id,
                file_id=self.file_id,
                policy=self.policy,
                config=self.config,
            )
            coordinator.journal = self.journal.clone()
            coordinator.standby_ids = list(self.peer_ids)
            network.register(coordinator)
            network.add_clock_listener(coordinator._heartbeat_tick)
            coordinator.adopt_journal_state(self.journal.replay(), self.term)
            self.term = coordinator.term
            self.takeovers += 1
            self.last_beat = network.now
            if tracer is not None:
                tracer.emit(
                    "coord.takeover.end", self.node_id, self.term,
                    coordinator.journal.last_lsn, len(coordinator.takeover_resumes),
                )
            return coordinator
        finally:
            self._busy = was_busy
