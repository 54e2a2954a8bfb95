"""Continuous cross-layer invariant checking over the trace stream.

The chaos tests assert *end-state* properties (parity decodes, acked
writes survive); this auditor asserts *path* properties — things that
must hold at every step, where a violation seen live points at the
exact message that broke it.  It subscribes to a
:class:`~repro.obs.trace.Tracer` for the event types its rules read and
has the tracer's ring retain a tail of recent events, so a failed check
raises :class:`InvariantViolation` carrying the offending event *and*
the trace leading up to it (the explain-on-failure dump).

Streaming rules (checked on every subscribed event):

* **no-delivery-to-failed** — a ``msg.deliver`` whose recipient the
  failure state (tracked from ``node.fail``/``node.restore`` events)
  says is down.  The network's own guard makes this impossible through
  the public API; the auditor proves it stays impossible.
* **gap-implies-fault** — a Δ-parity sequence gap (``parity.delta``
  with verdict ``stale``) observed while *no* fault has ever been
  declared on the trace (no ``fault.injected``, ``node.fail``,
  ``msg.hold`` or ``msg.lost``).  Gaps are how parity buckets detect
  lost traffic; on a clean network a gap can only mean sender or
  channel state corruption.

State rule (checked at quiesce points via :meth:`check_file`):

* **parity-generation** — per group, every parity bucket's Δ-channel
  expectation equals each live data member's generation
  (``_parity_seq``): parity generation == max data generation.  A
  parity channel *ahead* of its data bucket is corruption at any time;
  *behind* at a quiesce point means a silently lost Δ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.trace import EVENTS, Row, TraceEvent, Tracer, render

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.file import LHRSFile

#: Event types that count as "a failure was declared" — after any of
#: these, Δ-sequence gaps are expected behaviour, not corruption.
FAULT_EVIDENCE = frozenset(
    {"fault.injected", "node.fail", "msg.hold", "msg.lost", "msg.shed"}
)
#: What the streaming rules read; nothing else is delivered.
AUDITED = FAULT_EVIDENCE | {
    "node.restore", "node.unregister", "msg.deliver", "parity.delta"
}
_TO = EVENTS["msg.deliver"].index("to")
_VERDICT = EVENTS["parity.delta"].index("verdict")


class InvariantViolation(AssertionError):
    """An audited invariant broke; carries the evidence.

    ``str()`` renders the rule, the offending event and the trace tail
    — what a failed chaos test prints instead of a bare assert.
    """

    def __init__(self, rule: str, detail: str, event: TraceEvent | None,
                 tail: list[TraceEvent]):
        self.rule = rule
        self.detail = detail
        self.event = event
        self.tail = tail
        lines = [f"invariant {rule!r} violated: {detail}"]
        if event is not None:
            lines.append(f"offending event: {event!r}")
        lines.append(f"--- trace tail ({len(tail)} events) ---")
        lines.extend(repr(e) for e in tail)
        super().__init__("\n".join(lines))


class InvariantAuditor:
    """Subscribe me to a tracer; I keep watch and the ring remembers
    the tail.

    ``strict=True`` (default) raises :class:`InvariantViolation` at the
    moment a streaming rule breaks — inside the offending operation's
    stack, which is exactly where a debugger wants to be.  With
    ``strict=False`` violations accumulate in :attr:`violations` for a
    post-hoc :meth:`assert_clean`.

    Attached to a ``network`` already in service, the failure state
    starts from what the network holds: its failed nodes, and — as
    fault evidence — a node that is down or a fault plane that has
    already acted.
    """

    def __init__(self, tracer: Tracer, tail: int = 200, strict: bool = True,
                 network=None):
        self.tracer = tracer
        self.strict = strict
        self._tail = tail
        self.violations: list[InvariantViolation] = []
        #: nodes the trace says are currently failed
        self.failed: set[str] = set()
        #: count of fault-evidence events seen so far
        self.fault_evidence = 0
        if network is not None:
            self.failed.update(network.failed)
            plane = network.fault_plane
            self.fault_evidence = len(network.failed) + (
                sum(plane.counters.values()) if plane is not None else 0
            )
        self._attached_at = tracer.emitted
        tracer.retain(tail)
        self._watched = AUDITED - {"msg.deliver", "parity.delta"}
        tracer.subscribe(self._on_event, self._watched, rows=True)
        self._rewatch()

    def _rewatch(self) -> None:
        """Take ``msg.deliver`` only while a node is down and
        ``parity.delta`` only until the first fault evidence: outside
        those spans their rules cannot fire."""
        for type, wanted in (
            ("msg.deliver", bool(self.failed)),
            ("parity.delta", not self.fault_evidence),
        ):
            if wanted == (type in self._watched):
                continue
            if wanted:
                self.tracer.subscribe(self._on_event, {type}, rows=True)
            else:
                self.tracer.unsubscribe(self._on_event, {type})
            self._watched = self._watched ^ {type}

    @property
    def events_seen(self) -> int:
        """Events emitted since attach (cheap liveness indicator)."""
        return self.tracer.emitted - self._attached_at

    def close(self) -> None:
        """Detach from the tracer."""
        self.tracer.unsubscribe(self._on_event)

    # ------------------------------------------------------------------
    def _violate(self, rule: str, detail: str, event: TraceEvent | None) -> None:
        tail = self.tracer.tail(min(self._tail, self.events_seen))
        violation = InvariantViolation(rule, detail, event, tail)
        self.violations.append(violation)
        if self.strict:
            raise violation

    def _on_event(self, row: Row) -> None:
        kind = row[2]
        values = row[4]
        if kind == "msg.deliver":
            if values[_TO] in self.failed:
                event = render(row)
                self._violate(
                    "no-delivery-to-failed",
                    f"message {event.attrs.get('kind')!r} delivered to failed "
                    f"node {values[_TO]!r}",
                    event,
                )
        elif kind == "parity.delta":
            if values[_VERDICT] == "stale" and self.fault_evidence == 0:
                event = render(row)
                self._violate(
                    "gap-implies-fault",
                    "Δ-parity sequence gap (expected "
                    f"{event.attrs.get('expected')}, got {event.attrs.get('seq')}) "
                    "on a trace with no declared failures",
                    event,
                )
        elif kind in FAULT_EVIDENCE:
            self.fault_evidence += 1
            if kind == "node.fail":
                self.failed.add(values[0])
            self._rewatch()
        else:  # node.restore, node.unregister: the node is the one value
            self.failed.discard(values[0])
            self._rewatch()

    # ------------------------------------------------------------------
    def check_file(self, file: "LHRSFile") -> list[str]:
        """Quiesce-point generation audit: parity == data, per group.

        Walks the live server objects directly (no messages): for every
        group, each parity bucket's next-expected Δ sequence per
        position must be exactly ``data._parity_seq + 1`` for the live
        data member at that position, and no data bucket may hold a Δ
        (one is held only while an ``ops.batch`` applies; a hold that
        outlives its message is a leak).  Call this when the file is
        quiet — all Δs delivered, no open failures; the chaos tests
        call it after the final heal + recovery pass.

        Returns the list of problems (empty = clean) and also records
        them as violations under the ``parity-generation`` rule.
        """
        problems: list[str] = []
        network = file.network
        for server in list(network.nodes.values()):
            if not hasattr(server, "parity_targets"):
                continue  # not a data bucket
            if server.node_id in network.failed:
                continue
            if server._parity_queue:
                problems.append(
                    f"data bucket {server.node_id} has "
                    f"{len(server._parity_queue)} held Δs outside an "
                    f"ops.batch (leaked hold)"
                )
                continue
            for target in server.parity_targets:
                parity = network.nodes.get(target)
                if parity is None or target in network.failed:
                    continue
                expected = parity._expected_seq.get(server.position, 1)
                generation = expected - 1
                if generation > server._parity_seq:
                    problems.append(
                        f"parity {target} channel for position "
                        f"{server.position} is AHEAD of data "
                        f"{server.node_id}: generation {generation} > "
                        f"data seq {server._parity_seq}"
                    )
                elif generation < server._parity_seq:
                    problems.append(
                        f"parity {target} channel for position "
                        f"{server.position} is behind data "
                        f"{server.node_id} at quiesce: generation "
                        f"{generation} < data seq {server._parity_seq}"
                    )
        for problem in problems:
            self._violate("parity-generation", problem, None)
        return problems

    # ------------------------------------------------------------------
    def assert_clean(self) -> None:
        """Raise the first recorded violation (non-strict mode wrap-up)."""
        if self.violations:
            raise self.violations[0]

    def __repr__(self) -> str:
        return (
            f"InvariantAuditor({self.events_seen} events, "
            f"{len(self.violations)} violations, "
            f"{len(self.failed)} nodes down)"
        )
