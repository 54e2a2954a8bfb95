"""The simulated switched network.

Delivery is synchronous and depth-first: ``send`` invokes the recipient's
handler inline and returns nothing (fire-and-forget, 1 message);
``call`` returns the handler's return value and charges the reply
message too (2 messages), matching how the papers count a key search
(request + record back) versus an insert (request only).

Unavailability is modelled at the node level: messages to a failed node
raise :class:`NodeUnavailable` at the *sender*, standing in for the
sender's timeout.  The timeout itself costs no message.

A :class:`~repro.sim.faults.FaultPlane` (optional) adds message-level
faults on top: drops, duplicates, bounded delays and transient failures
(:class:`DeliveryFault`).  The network also keeps a **logical clock**:
``now`` advances by one unit per top-level operation and by ``advance``
(a sender backing off).  Clock listeners (failure schedules) and the
release of matured delayed messages run only at depth 0 — between
operation chains, never in the middle of one.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from repro.obs.trace import OMITTED
from repro.proto.wire import REPLY_KINDS
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.stats import MessageStats

#: Kinds a bounded inbound queue may shed under overload.  Deliberately
#: an allowlist of foreground data traffic: shedding structural or
#: recovery control messages would turn an overload into a torn split,
#: and every kind here is safe to retry (mutations are value-idempotent
#: and Δ-parity is deduped by sequence number).
DEFAULT_SHEDDABLE_KINDS = frozenset(
    {"insert", "update", "delete", "search", "parity.update", "ops.batch"}
)


class UnknownNode(KeyError):
    """Message addressed to a node id that was never registered."""


class NodeUnavailable(RuntimeError):
    """The addressed node is currently failed (sender's timeout fires)."""

    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} is unavailable")
        self.node_id = node_id


class DeliveryFault(RuntimeError):
    """Transient message-level failure, visible to the sender.

    Raised when the fault plane drops or fails a ``call``'s request or
    reply, or transiently fails a ``send``.  Unlike
    :class:`NodeUnavailable` the addressed node is (as far as the sender
    knows) alive — retrying after a backoff is the right reaction.
    ``stage`` is ``"request"`` (handler did NOT run) or ``"reply"``
    (handler DID run; the result was lost — the at-least-once case).
    """

    def __init__(self, node_id: str, stage: str = "request"):
        super().__init__(
            f"delivery to {node_id!r} failed transiently ({stage} lost)"
        )
        self.node_id = node_id
        self.stage = stage


class NodeBusy(DeliveryFault):
    """Typed backpressure reply: the recipient's bounded inbound queue
    is full and the message was shed at admission.

    Subclasses :class:`DeliveryFault` so every existing retry ladder
    honors it, with ``stage == "busy"`` — the handler did NOT run, and
    unlike a transient fault the *right* reaction is a jittered backoff
    (draining the queue) rather than an immediate resend.
    """

    def __init__(self, node_id: str, depth: int, limit: int):
        RuntimeError.__init__(
            self,
            f"node {node_id!r} is overloaded: inbound queue "
            f"{depth}/{limit}, message shed",
        )
        self.node_id = node_id
        self.stage = "busy"
        self.queue_depth = depth
        self.queue_limit = limit


class ServiceModel:
    """Deterministic per-link latency + per-node service-queue model.

    The simulator's delivery stays synchronous and its logical clock
    still ticks once per top-level operation; latency here is *virtual*:
    every delivery charges

        ``link(sender→recipient) + service(recipient) × slowdown ×
        (1 + queue_depth(recipient))``

    into :attr:`accumulated`, which :attr:`Network.virtual_time` adds to
    the logical clock.  Clients measure an operation as the difference
    of ``virtual_time`` around it — so a straggler (``slowdown`` comes
    from the fault plane's slow rules) or a deep queue shows up as tail
    latency without perturbing the pinned message/clock accounting.

    Queues model per-node service backlogs: each delivery parks one
    unit of work on the recipient, and backlogs drain at ``drain_rate``
    per clock unit (lazily, on read).  A node with a bounded inbound
    queue (``Node.inbound_queue_limit``) sheds sheddable kinds once its
    backlog reaches the bound — the typed ``busy`` reply of the
    backpressure protocol.

    Everything is deterministic: the only randomness enters through
    jittered slow rules, which draw from the fault plane's seeded
    generator.
    """

    def __init__(
        self,
        link_latency: float = 0.25,
        service_time: float = 1.0,
        drain_rate: float = 1.0,
        sheddable_kinds=DEFAULT_SHEDDABLE_KINDS,
    ):
        if link_latency < 0 or service_time < 0:
            raise ValueError("latencies cannot be negative")
        if drain_rate <= 0:
            raise ValueError("drain_rate must be positive")
        self.link_latency = link_latency
        self.service_time = service_time
        self.drain_rate = drain_rate
        self.sheddable_kinds = frozenset(sheddable_kinds)
        #: (sender, recipient) -> base link latency override
        self.link_overrides: dict[tuple[str, str], float] = {}
        #: node id -> base service time override
        self.service_overrides: dict[str, float] = {}
        #: total virtual latency charged since installation
        self.accumulated = 0.0
        self.max_depth_seen = 0.0
        #: node id -> deepest backlog ever seen there (the global
        #: ``max_depth_seen`` is dominated by unbounded control nodes;
        #: per-node highs show whether a *bounded* queue held its cap)
        self.max_depths: dict[str, float] = {}
        self.counters: Counter = Counter()
        self._depths: dict[str, float] = {}
        self._drained_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    def set_link(self, sender: str, recipient: str, latency: float) -> None:
        """Override one directed link's base latency."""
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.link_overrides[(sender, recipient)] = latency

    def set_service(self, node_id: str, service_time: float) -> None:
        """Override one node's base service time."""
        if service_time < 0:
            raise ValueError("service time cannot be negative")
        self.service_overrides[node_id] = service_time

    # ------------------------------------------------------------------
    def queue_depth(self, node_id: str, now: float) -> float:
        """Current backlog at a node (drains lazily with the clock)."""
        depth = self._depths.get(node_id, 0.0)
        if depth:
            last = self._drained_at.get(node_id, now)
            depth = max(0.0, depth - (now - last) * self.drain_rate)
            self._depths[node_id] = depth
        self._drained_at[node_id] = now
        return depth

    def charge(self, message: Message, now: float, slowdown: float = 1.0) -> float:
        """Account one delivery: returns its virtual latency and parks
        one unit of work on the recipient's queue."""
        link = self.link_overrides.get(
            (message.sender, message.recipient), self.link_latency
        )
        service = self.service_overrides.get(
            message.recipient, self.service_time
        )
        depth = self.queue_depth(message.recipient, now)
        latency = link + service * slowdown * (1.0 + depth)
        self._depths[message.recipient] = depth + 1.0
        if depth + 1.0 > self.max_depth_seen:
            self.max_depth_seen = depth + 1.0
        if depth + 1.0 > self.max_depths.get(message.recipient, 0.0):
            self.max_depths[message.recipient] = depth + 1.0
        self.accumulated += latency
        self.counters["deliveries"] += 1
        if slowdown > 1.0:
            self.counters["slowed_deliveries"] += 1
        return latency

    def charge_bulk(self, node_id: str, units: float, now: float) -> None:
        """Park ``units`` of backlog on a node without a message charge.

        Rebuild transfers move a whole bucket in one RPC: the message
        itself is charged like any call, but the serialization work it
        leaves behind scales with the records moved.  Subsequent
        deliveries to the node pay for that backlog through the queue
        term until it drains — which is exactly what recovery pacing
        throttles against.
        """
        depth = self.queue_depth(node_id, now) + units
        self._depths[node_id] = depth
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        if depth > self.max_depths.get(node_id, 0.0):
            self.max_depths[node_id] = depth
        self.counters["bulk_units"] += units

    def charge_link(self, sender: str, recipient: str) -> float:
        """Account a reply leg: wire time only (the caller is already
        waiting; nothing queues at a client)."""
        link = self.link_overrides.get((sender, recipient), self.link_latency)
        self.accumulated += link
        return link


class Network:
    """Node registry, message transport, accounting and failure state."""

    def __init__(self, multicast_available: bool = True):
        self.nodes: dict[str, Node] = {}
        self.failed: set[str] = set()
        self.stats = MessageStats()
        self.multicast_available = multicast_available
        self._depth = 0
        #: logical clock: 1 unit per top-level operation, plus advance()
        self.now = 0.0
        self.fault_plane = None
        #: latency/queue plane (None = latency-free, zero overhead)
        self.service = None
        self._clock_listeners: list[Callable[[float], None]] = []
        #: delivery scheduler hook for matured delayed messages (None =
        #: the fixed legacy order; see repro.check.scheduler)
        self.scheduler = None
        #: structured event tracer (None = tracing off, zero overhead)
        self.tracer = None
        #: metrics registry (None = metrics off)
        self.metrics = None
        self._m_messages = None
        self._m_bytes = None
        self._m_queue_depth = None
        self._m_queue_max = None
        self._m_shed = None

    # ------------------------------------------------------------------
    # registry and failure state
    # ------------------------------------------------------------------
    def register(self, node: Node) -> None:
        """Attach a node; its id must be unique on this network."""
        if node.node_id in self.nodes:
            raise ValueError(f"node id {node.node_id!r} already registered")
        self.nodes[node.node_id] = node
        node.network = self
        if self.tracer is not None:
            self.tracer.emit("node.register", node.node_id)

    def unregister(self, node_id: str) -> None:
        """Detach a node entirely (decommissioned server).

        Strict: unregistering an unknown id raises :class:`UnknownNode`
        — a typo in a decommissioning schedule should fail loudly, not
        silently do nothing.
        """
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        del self.nodes[node_id]
        self.failed.discard(node_id)
        if self.tracer is not None:
            self.tracer.emit("node.unregister", node_id)

    def fail(self, node_id: str) -> None:
        """Make a node unavailable (crash / partition / power-off)."""
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        self.failed.add(node_id)
        if self.tracer is not None:
            self.tracer.emit("node.fail", node_id)

    def restore(self, node_id: str, silent: bool = False) -> None:
        """Bring a failed node back (its state as the node object holds it).

        Strict: restoring an id that was never registered raises
        :class:`UnknownNode`, mirroring :meth:`fail` — a misspelled
        failure schedule must not silently "succeed".  Restoring a
        registered, not-failed node is a no-op (the node may have been
        rebuilt onto a spare while its crash window was still open).

        A restored node that defines ``on_restored`` (the durable
        bucket servers) is told it just rebooted, which starts its
        local replay + rejoin handshake.  ``silent=True`` skips the
        hook — the legacy rebirth semantics (node state intact, nobody
        told), kept as the escape hatch chaos tests rely on.  Nodes
        without the hook restore exactly as before either way.
        """
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        was_failed = node_id in self.failed
        if was_failed and self.tracer is not None:
            self.tracer.emit("node.restore", node_id)
        self.failed.discard(node_id)
        if was_failed and not silent:
            hook = getattr(self.nodes[node_id], "on_restored", None)
            if hook is not None:
                hook()

    def is_available(self, node_id: str) -> bool:
        """True when the node exists and is not failed."""
        return node_id in self.nodes and node_id not in self.failed

    # ------------------------------------------------------------------
    # fault plane and logical clock
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane) -> None:
        """Attach a :class:`~repro.sim.faults.FaultPlane` (None removes)."""
        self.fault_plane = plane
        if plane is not None:
            plane.tracer = self.tracer

    def install_scheduler(self, scheduler) -> None:
        """Attach a delivery :class:`~repro.check.scheduler.Scheduler`
        (None removes).

        The scheduler decides the delivery order of each matured batch
        in :meth:`_pump` — the model checker's systematic-exploration
        hook.  With none installed (or the FIFO scheduler) the pump
        delivers in the fixed legacy order, byte-for-byte (pinned by
        the determinism tests).
        """
        self.scheduler = scheduler
        if scheduler is not None:
            scheduler.bind(self)

    def install_service_model(self, model) -> None:
        """Attach a :class:`ServiceModel` (None removes).

        With a model installed every delivery accrues virtual latency
        (see :attr:`virtual_time`) and nodes with a bounded
        ``inbound_queue_limit`` shed excess sheddable traffic with
        :class:`NodeBusy`.  Without one, nothing here is consulted.
        """
        self.service = model
        self._bind_service_instruments()

    @property
    def virtual_time(self) -> float:
        """Logical clock plus all accrued virtual latency.

        Clients bracket an operation with this to measure its
        end-to-end latency; identical to ``now`` when no service model
        is installed.
        """
        if self.service is None:
            return self.now
        return self.now + self.service.accumulated

    def install_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.obs.trace.Tracer` (None removes).

        The tracer's clock is bound to this network's logical clock, so
        every event timestamp is simulated time — the determinism the
        replay tests rely on.  With no tracer installed every emission
        site is a single ``is None`` check.
        """
        self.tracer = tracer
        if tracer is not None:
            tracer.clock = self  # read as ``clock.now``
        if self.fault_plane is not None:
            self.fault_plane.tracer = tracer

    def install_metrics(self, registry) -> None:
        """Attach a :class:`~repro.obs.metrics.MetricsRegistry` (None
        removes).  The network feeds the global ``net.*`` counters, and
        every labelled :class:`MessageStats` window that closes lands in
        the registry's per-operation histograms.
        """
        self.metrics = registry
        self.stats.metrics = registry
        if registry is not None:
            self._m_messages = registry.counter(
                "net.messages", "messages delivered"
            )
            self._m_bytes = registry.counter(
                "net.bytes", "payload bytes delivered"
            )
        else:
            self._m_messages = None
            self._m_bytes = None
        self._bind_service_instruments()

    def _bind_service_instruments(self) -> None:
        """Create the service-plane instruments once both a metrics
        registry and a service model are present."""
        if self.metrics is None or self.service is None:
            self._m_queue_depth = None
            self._m_queue_max = None
            self._m_shed = None
            return
        from repro.obs.metrics import QUEUE_DEPTH_BUCKETS

        self._m_queue_depth = self.metrics.histogram(
            "svc.queue_depth",
            QUEUE_DEPTH_BUCKETS,
            "recipient backlog seen by each delivery",
        )
        self._m_queue_max = self.metrics.gauge(
            "svc.queue_depth.max", "deepest backlog any node reached"
        )
        self._m_shed = self.metrics.counter(
            "svc.shed", "messages shed by bounded inbound queues"
        )

    def add_clock_listener(self, listener: Callable[[float], None]) -> None:
        """Register a callback invoked with ``now`` at each clock step.

        Listeners run only between operation chains (depth 0); failure
        schedules use this to apply crash/restore windows.
        """
        self._clock_listeners.append(listener)

    def remove_clock_listener(self, listener: Callable[[float], None]) -> None:
        """Detach a clock listener (no-op when absent).

        A coordinator takeover uses this to silence the deposed
        primary's heartbeat.
        """
        try:
            self._clock_listeners.remove(listener)
        except ValueError:
            pass

    def advance(self, dt: float = 1.0) -> float:
        """Advance the logical clock (a sender waiting / backing off).

        At depth 0 this also runs clock listeners and delivers matured
        delayed messages; mid-chain it only moves the clock (the
        catch-up happens when the chain unwinds).
        """
        if dt < 0:
            raise ValueError("time cannot go backwards")
        self.now += dt
        if self._depth == 0:
            self._run_listeners()
            self._pump()
        return self.now

    def _tick(self) -> None:
        """One clock unit per top-level operation."""
        self.now += 1.0
        self._run_listeners()
        self._pump()

    def _run_listeners(self) -> None:
        if not self._clock_listeners:
            return
        # Snapshot: a listener may add/remove listeners (a standby
        # taking over swaps the primary's heartbeat) mid-iteration.
        for listener in list(self._clock_listeners):
            listener(self.now)

    def _pump(self) -> None:
        """Deliver matured delayed messages (depth 0 only).

        A message whose recipient died or was decommissioned while it
        was in flight is counted as lost, not raised — nobody is waiting
        on a fire-and-forget send from the past.
        """
        plane = self.fault_plane
        if plane is None:
            return
        due = plane.release_due(self.now)
        if due and self.scheduler is not None:
            due = self.scheduler.schedule(due, self)
        for message in due:
            if self.tracer is not None:
                self.tracer.emit(
                    "msg.release", message.recipient, message.kind
                )
            try:
                self._deliver(message)
            except (UnknownNode, NodeUnavailable):
                plane.counters["lost_in_flight"] += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "msg.lost", message.recipient, message.kind,
                        "recipient gone",
                    )
            except NodeBusy:
                # A matured delayed message arriving at a full queue is
                # simply lost — nobody waits on a send from the past.
                plane.counters["lost_in_flight"] += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "msg.lost", message.recipient, message.kind, "shed"
                    )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> Any:
        if message.recipient not in self.nodes:
            raise UnknownNode(message.recipient)
        if message.recipient in self.failed:
            raise NodeUnavailable(message.recipient)
        if self.service is not None:
            self._service_admit(message)
        self._depth += 1
        self.stats.record(message.kind, message.size, self._depth)
        if self._m_messages is not None:
            self._m_messages.inc()
            self._m_bytes.inc(message.size)
        if self.tracer is not None:
            self.tracer.emit(
                "msg.deliver", message.sender, message.recipient,
                message.kind, message.size, self._depth, OMITTED,
            )
        try:
            return self.nodes[message.recipient].receive(message)
        finally:
            self._depth -= 1

    def _service_admit(self, message: Message) -> None:
        """Admission control and latency accounting for one delivery.

        Raises :class:`NodeBusy` at the *sender* when the recipient's
        bounded inbound queue is full and the kind is sheddable —
        the backpressure reply senders honor with a jittered backoff.
        Admitted messages charge virtual latency, stretched by any
        matching slow rules on the fault plane (gray failures).
        """
        service = self.service
        recipient = message.recipient
        limit = getattr(self.nodes[recipient], "inbound_queue_limit", None)
        depth = service.queue_depth(recipient, self.now)
        if (
            limit is not None
            and message.kind in service.sheddable_kinds
            and depth >= limit
        ):
            service.counters["shed"] += 1
            if self._m_shed is not None:
                self._m_shed.inc()
            if self.tracer is not None:
                self.tracer.emit(
                    "msg.shed", recipient, message.kind, int(depth), limit
                )
            raise NodeBusy(recipient, int(depth), limit)
        plane = self.fault_plane
        slowdown = (
            plane.slowdown(recipient, self.now) if plane is not None else 1.0
        )
        service.charge(message, self.now, slowdown)
        if self._m_queue_depth is not None:
            self._m_queue_depth.observe(depth)
            self._m_queue_max.set(service.max_depth_seen)

    def send(self, sender: str, recipient: str, kind: str, payload: Any = None,
             size: int = 0) -> None:
        """Fire-and-forget unicast: one message, no reply charged.

        ``size`` optionally carries the wire size (header included) the
        sender found for another copy of this very payload; it must be
        what the envelope would estimate.  0 estimates as always."""
        if self._depth == 0:
            self._tick()
        message = Message(sender, recipient, kind, payload, size)
        if self.tracer is not None:
            self.tracer.emit(
                "msg.send", sender, recipient, kind, message.size, OMITTED
            )
        plane = self.fault_plane
        if plane is not None:
            outcome, release_at = plane.outcome_for(message, self.now)
            if outcome == "drop":
                # Silently lost: the message left the sender (charged)
                # but never arrives — the UDP case.
                plane.counters["dropped"] += 1
                self.stats.record(message.kind, message.size, self._depth + 1)
                if self.tracer is not None:
                    self.tracer.emit("msg.lost", recipient, kind, "drop")
                return
            if outcome == "fail":
                plane.counters["failed"] += 1
                raise DeliveryFault(recipient, "request")
            if outcome == "delay":
                plane.hold(message, release_at)
                if self.tracer is not None:
                    self.tracer.emit("msg.hold", recipient, kind, release_at)
                return
            if outcome == "duplicate":
                plane.counters["duplicated"] += 1
                self._deliver(message)
                self._deliver(Message(sender, recipient, kind, payload,
                                      message.size))
                return
            if outcome == "corrupt":
                plane.counters["corrupted"] += 1
                self._deliver(self._corrupted_copy(message))
                return
        self._deliver(message)

    def call(self, sender: str, recipient: str, kind: str, payload: Any = None,
             size: int = 0) -> Any:
        """Request/reply unicast: two messages, returns the handler result.

        Under a fault plane the request and the reply can each be lost
        (raising :class:`DeliveryFault` at the sender — its timeout) or
        the request duplicated (the handler runs twice; the second
        result is returned, as after a retransmission).  Calls are never
        delayed: they model a blocking RPC.
        """
        if self._depth == 0:
            self._tick()
        message = Message(sender, recipient, kind, payload, size)
        if self.tracer is not None:
            self.tracer.emit(
                "msg.send", sender, recipient, kind, message.size, True
            )
        plane = self.fault_plane
        if plane is not None:
            outcome, _ = plane.outcome_for(message, self.now, can_delay=False)
            if outcome in ("drop", "fail"):
                plane.counters["dropped" if outcome == "drop" else "failed"] += 1
                if outcome == "drop":
                    self.stats.record(message.kind, message.size, self._depth + 1)
                    if self.tracer is not None:
                        self.tracer.emit("msg.lost", recipient, kind, "drop")
                raise DeliveryFault(recipient, "request")
            if outcome == "duplicate":
                plane.counters["duplicated"] += 1
                self._deliver(message)
                result = self._deliver(
                    Message(sender, recipient, kind, payload, message.size))
            elif outcome == "corrupt":
                plane.counters["corrupted"] += 1
                result = self._deliver(self._corrupted_copy(message))
            else:
                result = self._deliver(message)
            reply = Message(recipient, sender, REPLY_KINDS[kind], result)
            outcome, _ = plane.outcome_for(reply, self.now, can_delay=False)
            if outcome in ("drop", "fail"):
                plane.counters["dropped" if outcome == "drop" else "failed"] += 1
                if outcome == "drop":
                    self.stats.record(reply.kind, reply.size, self._depth + 1)
                    if self.tracer is not None:
                        self.tracer.emit("msg.lost", sender, reply.kind, "drop")
                raise DeliveryFault(recipient, "reply")
            self._record_reply(reply, self._depth + 1)
            return result
        result = self._deliver(message)
        reply = Message(recipient, sender, REPLY_KINDS[kind], result)
        self._record_reply(reply, self._depth + 1)
        return result

    def _corrupted_copy(self, message: Message) -> Message:
        """The message with a seeded byte-flip in every bytes value of
        its payload, however deeply nested (a Δ-run's deltas sit in a
        list inside a list).

        Models in-flight corruption that slips past link checksums: the
        frame arrives, parses, and carries wrong bytes — exactly what
        the algebraic-signature scrub exists to catch.  Flip positions
        draw from the fault plane's generator (deterministic per seed).
        """
        rng = self.fault_plane.rng

        def flip(value: Any) -> Any:
            if isinstance(value, dict):
                return {key: flip(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return type(value)(map(flip, value))
            if not isinstance(value, bytes) or not value:
                return value
            buf = bytearray(value)
            pos = int(rng.integers(len(buf)))
            buf[pos] ^= 1 << int(rng.integers(8))
            return bytes(buf)

        return Message(
            message.sender, message.recipient, message.kind,
            flip(message.payload), message.size,
        )

    def _record_reply(self, reply: Message, depth: int) -> None:
        """Account one successful reply leg (stats, metrics, trace)."""
        self.stats.record(reply.kind, reply.size, depth)
        if self.service is not None:
            self.service.charge_link(reply.sender, reply.recipient)
        if self._m_messages is not None:
            self._m_messages.inc()
            self._m_bytes.inc(reply.size)
        if self.tracer is not None:
            self.tracer.emit(
                "msg.reply", reply.sender, reply.recipient, reply.kind,
                reply.size,
            )

    def multicast(
        self,
        sender: str,
        recipients: list[str],
        kind: str,
        payload: Any = None,
        collect_replies: bool = True,
    ) -> tuple[dict[str, Any], list[str]]:
        """Deliver to many nodes; returns ``(replies, unavailable)``.

        With hardware multicast available the request costs one message
        regardless of fan-out, otherwise one per recipient (the papers
        price scans both ways).  Replies are always unicast.  Failed
        recipients are skipped and reported, letting deterministic
        termination protocols detect the gap.  Under a fault plane a
        recipient whose request copy — or collected *reply* — is dropped
        or transiently failed also lands in ``unavailable``: from the
        sender's seat a lost reply and a dead node look identical (only
        the timeout fires).  The reply leg passes through the same
        fault-plane rules as a ``call``'s reply; a lost reply means the
        handler DID run (the at-least-once case).
        """
        unavailable: list[str] = []
        replies: dict[str, Any] = {}
        charged_request = False
        plane = self.fault_plane
        size = 0  # the first copy sizes the payload, the rest reuse it
        for recipient in recipients:
            if not self.is_available(recipient):
                unavailable.append(recipient)
                continue
            message = Message(sender, recipient, kind, payload, size)
            size = message.size
            if plane is not None:
                outcome, _ = plane.outcome_for(message, self.now, can_delay=False)
                if outcome in ("drop", "fail"):
                    plane.counters[
                        "dropped" if outcome == "drop" else "failed"
                    ] += 1
                    unavailable.append(recipient)
                    continue
                if outcome == "corrupt":
                    plane.counters["corrupted"] += 1
                    message = self._corrupted_copy(message)
            if self.multicast_available and charged_request:
                # Multicast fabric: later copies of the request are free.
                self._depth += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "msg.deliver", sender, recipient, kind,
                        message.size, self._depth, True,
                    )
                try:
                    result = self.nodes[recipient].receive(message)
                finally:
                    self._depth -= 1
            else:
                try:
                    result = self._deliver(message)
                except NodeBusy:
                    # An overloaded recipient looks like a dead one from
                    # the multicaster's seat: only the timeout fires.
                    unavailable.append(recipient)
                    continue
                charged_request = True
            if collect_replies:
                reply = Message(recipient, sender, REPLY_KINDS[kind], result)
                if plane is not None:
                    outcome, _ = plane.outcome_for(
                        reply, self.now, can_delay=False
                    )
                    if outcome in ("drop", "fail"):
                        plane.counters[
                            "dropped" if outcome == "drop" else "failed"
                        ] += 1
                        if outcome == "drop":
                            self.stats.record(
                                reply.kind, reply.size, self._depth + 2
                            )
                            if self.tracer is not None:
                                self.tracer.emit(
                                    "msg.lost", sender, reply.kind, "drop"
                                )
                        unavailable.append(recipient)
                        continue
                self._record_reply(reply, self._depth + 2)
                replies[recipient] = result
        return replies, unavailable
