"""Structured event tracing over the simulated cluster.

The papers evaluate every operation by counting messages; this module
records *which* messages (and splits, recoveries, Δ-folds, faults) in a
replayable stream, so a number that moved can be explained instead of
re-derived.  Three properties drive the design:

* **Zero overhead when off.**  Nothing here is consulted unless a
  :class:`Tracer` has been installed on the network
  (:meth:`~repro.sim.network.Network.install_tracer`); every emission
  site guards with a single ``tracer is None`` check and builds no
  event objects, formats no strings, when tracing is off.
* **Determinism.**  Events carry the *simulated* clock and a global
  sequence number — never wall-clock time — so two runs with the same
  seeds produce byte-identical traces (:meth:`Tracer.to_jsonl` is the
  canonical serialization; the replay-determinism test pins this).
* **Typed events, rendered on read.**  Every type declares its
  attributes in a registry (:data:`EVENTS`); a typo in an emission site
  raises instead of silently producing an unmatchable stream.  A site
  passes the values positionally and the tracer stores one tuple per
  event; the :class:`TraceEvent` and its ``attrs`` dict are built only
  when somebody reads them.

Spans give events causal structure: ``with tracer.span("recovery",
group=3):`` emits ``span.start``/``span.end`` pairs with ids and parent
links, and every event emitted inside carries the enclosing span's id.
Subscribers (the invariant auditor, a metrics bridge, a test) see the
events of the types they asked for as they happen, via
:meth:`Tracer.subscribe`.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import Any, Callable, Iterable

#: The span/event taxonomy, by group: every type declares its attributes
#: once, as ``proto/schema.py`` does for message kinds (``name?`` = some
#: sites leave it out).  docs/observability.md carries the generated
#: table (``python -m repro lint --event-table``).
TAXONOMY: dict[str, dict[str, str]] = {
    # span.start also carries the opener's own keywords
    "spans": {
        "span.start": "name id parent",
        "span.end": "name id duration error",
    },
    "message plane": {
        "msg.send": "from to kind size rpc?",
        "msg.deliver": "from to kind size depth free?",
        "msg.reply": "from to kind size",
        "msg.hold": "to kind release_at",
        "msg.release": "to kind",
        "msg.lost": "to kind reason",
        "msg.shed": "to kind depth limit",
    },
    "fault plane and failure state": {
        "fault.injected": "outcome kind to",
        "node.fail": "node",
        "node.restore": "node",
        "node.register": "node",
        "node.unregister": "node",
    },
    "file structure": {
        "split.start": "source target new_level",
        "split.end": "source target moved kept",
        "merge.start": "target retiring",
        "merge.end": "source target",
        "availability.raise": "group level new_level",
    },
    "parity maintenance": {
        "parity.delta": "node pos seq expected verdict op",
        "parity.batch": "node ops",
        "parity.reset": "node positions",
    },
    "recovery and self-healing": {
        "recovery.start": "group",
        "recovery.rank": "group rank rebuilt stripe_symbols",
        "recovery.end": "group records data_buckets parity_buckets",
        "probe.round": "probed unavailable",
        "report.stale": "node",
        "report.unavailable": "node kind",
    },
    "client discipline": {
        "op.retry": "op attempt key? node?",
        "op.failed": "op key attempts",
        "client.unavailable": "node op key fenced?",
    },
    "bulk scatter-gather data plane": {
        "batch.scatter": "op round ops buckets",
        "batch.rebin": "op bucket ops round",
        "batch.fallback": "op ops",
    },
    # hedged/degraded reads, deadlines, per-bucket circuit breakers and
    # paced rebuilds
    "gray-failure tolerance": {
        "op.hedged": "key bucket primary hedged",
        "op.deadline_miss": "latency budget",
        "breaker.open": "bucket",
        "breaker.close": "bucket",
        "recovery.paced": "wait",
    },
    # repro.check: a matured batch was deferred or delivered out of the
    # legacy pump order
    "model-checking schedulers": {
        "sched.defer": "to kind count",
        "sched.reorder": "batch",
    },
    # journal, checkpoints, lease and takeover
    "coordinator HA": {
        "coord.journal": "record lsn",
        "coord.checkpoint": "lsn delivered",
        "coord.crash": "point node",
        "coord.lease.expired": "node primary idle",
        "coord.takeover.start": "node reason term",
        "coord.takeover.end": "node term lsn resumed",
        "coord.resume": "op lsn",
        "coord.whois": "node client",
    },
    # local checkpoints, restart replay and the delta catch-up /
    # full-rebuild-fallback rejoin path
    "durable storage plane": {
        "disk.checkpoint": "node lsn records",
        "bucket.restart": "node kind bucket clean replayed seq?",
        "catchup.data": "node bucket applied seq",
        "catchup.parity": "node group index applied",
        "catchup.fallback": "node",
    },
}

#: type -> attribute names, in the positional order of :meth:`Tracer.emit`
EVENTS: dict[str, tuple[str, ...]] = {
    type: tuple(name.rstrip("?") for name in spec.split())
    for group in TAXONOMY.values()
    for type, spec in group.items()
}
EVENT_TYPES = frozenset(EVENTS)


#: passed in the place of an optional attribute a site leaves out: the
#: rendered ``attrs`` omit it (``None`` is a value and renders ``null``)
OMITTED: Any = Ellipsis


class UnknownEventType(ValueError):
    """An emission site used an event type outside :data:`EVENT_TYPES`."""


def _fields(type: str) -> tuple[str, ...]:
    try:
        return EVENTS[type]
    except KeyError:
        raise UnknownEventType(
            f"{type!r} is not a registered trace event type"
        ) from None


class TraceEvent:
    """One trace record: ``(seq, time, type, span, attrs)``.

    ``time`` is the network's logical clock at emission; ``span`` is the
    id of the enclosing span (0 = no span).  ``attrs`` is a flat dict of
    JSON-serializable values — payload *sizes*, never payload bytes.
    """

    __slots__ = ("seq", "time", "type", "span", "attrs")

    def __init__(self, seq: int, time: float, type: str, span: int, attrs: dict):
        self.seq = seq
        self.time = time
        self.type = type
        self.span = span
        self.attrs = attrs

    def to_json(self) -> str:
        """Canonical one-line serialization (sorted keys, compact)."""
        return json.dumps(
            {
                "seq": self.seq,
                "t": self.time,
                "type": self.type,
                "span": self.span,
                **{f"a.{k}": v for k, v in sorted(self.attrs.items())},
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )

    def __repr__(self) -> str:
        attrs = " ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        return f"[{self.seq:>6} t={self.time:g} s={self.span}] {self.type} {attrs}"


class Span:
    """An open span; use :meth:`Tracer.span` rather than this directly."""

    __slots__ = ("span_id", "parent_id", "name", "start_time", "tracer")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int, name: str):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_time = tracer.now()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close_span(self, error=exc_type is not None)


class _CallableClock:
    """``Tracer(clock=fn)``: ``fn()`` behind the ``now`` the tracer reads."""

    def __init__(self, read: Callable[[], float]):
        self.read = read

    now = property(lambda self: self.read())


#: One stored event: ``(seq, time, type, span, values)``.  ``values``
#: line up with ``EVENTS[type]``; one trailing dict, when present, holds
#: caller-named extras (``span.start``, the named form of ``emit``).
Row = tuple


def render(row: Row) -> TraceEvent:
    """The :class:`TraceEvent` (with its ``attrs`` dict) of one row."""
    seq, time, type, span, values = row
    fields = EVENTS[type]
    attrs = {k: v for k, v in zip(fields, values) if v is not OMITTED}
    if len(values) > len(fields):
        attrs.update(values[-1])
    return TraceEvent(seq, time, type, span, attrs)


class Tracer:
    """The event stream: a clock, a span stack, one ring, subscribers.

    An event is stored as a :data:`Row` and rendered to a
    :class:`TraceEvent` only when somebody reads it: :attr:`events`,
    :meth:`tail`, :meth:`to_jsonl`, a subscriber that asked for objects.
    ``capacity=None`` keeps every event (needed for byte-identical
    replay comparisons); a bounded capacity exposes only the most recent
    ones.  The ring itself holds ``max(capacity, retain(n))`` rows —
    the auditor's explain-on-failure tail comes out of it, so long soaks
    can run with a small capacity.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int | None = None,
    ):
        #: logical-clock source, anything with a ``now`` attribute — the
        #: network itself once Network.install_tracer has run
        self.clock: Any = None if clock is None else _CallableClock(clock)
        self._rows: deque[Row] = deque(maxlen=capacity)
        self.capacity = capacity
        #: events emitted so far == the last sequence number handed out
        self.emitted = 0
        self._span_counter = 0
        self._span_stack: list[Span] = []
        #: type -> [(callback, wants_rows)]
        self._subscribers: dict[str, list[tuple[Callable, bool]]] = {}
        #: counts per event type (cheap always-on summary)
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    @property
    def current_span(self) -> int:
        """Id of the innermost open span (0 when none)."""
        return self._span_stack[-1].span_id if self._span_stack else 0

    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[Any], None],
        types: Iterable[str] | None = None,
        rows: bool = False,
    ) -> None:
        """Register a callback invoked synchronously with every event of
        ``types`` (default: all) — with the rendered :class:`TraceEvent`,
        or with the stored :data:`Row` when ``rows`` is set."""
        for type in EVENTS if types is None else types:
            _fields(type)
            self._subscribers.setdefault(type, []).append((callback, rows))

    def unsubscribe(
        self, callback: Callable[[Any], None], types: Iterable[str] | None = None
    ) -> None:
        """Drop the registrations of ``callback`` (default: all of them)."""
        for type in list(self._subscribers) if types is None else types:
            kept = [e for e in self._subscribers.get(type, ()) if e[0] != callback]
            if kept:
                self._subscribers[type] = kept
            else:
                self._subscribers.pop(type, None)

    def retain(self, n: int) -> None:
        """Keep at least the last ``n`` rows in the ring, whatever the
        capacity :attr:`events` exposes."""
        if self._rows.maxlen is not None and self._rows.maxlen < n:
            self._rows = deque(self._rows, maxlen=n)

    # ------------------------------------------------------------------
    def emit(self, type: str, *values: Any, **attrs: Any) -> TraceEvent | None:
        """Record one event: ``values`` in the order :data:`EVENTS`
        declares for ``type``, :data:`OMITTED` for an optional attribute
        left out.  The only form library code uses (``repro lint``
        checks the count); nothing is built but the row.

        Tests and user code may name the attributes instead, undeclared
        ones welcome — ``emit("msg.send", to="f.d1", note=1)`` — and get
        the rendered event back.
        """
        named = not values
        if named:
            values = tuple(attrs.pop(name, OMITTED) for name in _fields(type))
            if attrs:
                values += (attrs,)
        elif attrs:
            raise TypeError("positional values and named attributes do not mix")
        try:
            self.counts[type] += 1
        except KeyError:
            _fields(type)
            self.counts[type] = 1
        seq = self.emitted = self.emitted + 1
        stack = self._span_stack
        clock = self.clock
        row = (
            seq,
            clock.now if clock is not None else 0.0,
            type,
            stack[-1].span_id if stack else 0,
            values,
        )
        self._rows.append(row)
        subscribers = self._subscribers.get(type)
        if subscribers:
            for callback, wants_rows in subscribers:
                callback(row if wants_rows else render(row))
        return render(row) if named else None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span: ``with tracer.span("recovery", group=3): ...``.

        Emits ``span.start`` now and ``span.end`` (with the span's
        simulated duration and an ``error`` flag) on exit.  Nesting
        builds parent links.
        """
        self._span_counter += 1
        span = Span(self, self._span_counter, self.current_span, name)
        self._span_stack.append(span)
        # The start event belongs *to* the new span.
        self.emit("span.start", name, span.span_id, span.parent_id,
                  *([attrs] if attrs else ()))
        return span

    def _close_span(self, span: Span, error: bool = False) -> None:
        if not self._span_stack or self._span_stack[-1] is not span:
            raise RuntimeError("spans must close LIFO (innermost first)")
        self.emit("span.end", span.name, span.span_id,
                  self.now() - span.start_time, error)
        self._span_stack.pop()

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The buffered stream (the last ``capacity`` events), rendered."""
        return self.tail(len(self))

    def tail(self, n: int = 30) -> list[TraceEvent]:
        """The last ``n`` events (the explain-on-failure dump); may
        reach past ``capacity`` into what :meth:`retain` keeps."""
        if n <= 0:
            return []
        newest_first = islice(reversed(self._rows), n)
        return [render(row) for row in newest_first][::-1]

    def format_tail(self, n: int = 30) -> str:
        """Human-readable trace tail, one event per line."""
        lines = [repr(event) for event in self.tail(n)]
        return "\n".join(lines) if lines else "(trace empty)"

    def to_jsonl(self, events: Iterable[TraceEvent] | None = None) -> str:
        """Canonical JSON-lines serialization of the buffered stream.

        Byte-identical across runs with identical seeds — the contract
        the replay-determinism test enforces.
        """
        source = self.events if events is None else events
        return "\n".join(event.to_json() for event in source) + "\n"

    def clear(self) -> None:
        """Drop buffered events (sequence numbers keep counting)."""
        self._rows.clear()

    def __len__(self) -> int:
        stored = len(self._rows)
        return stored if self.capacity is None else min(stored, self.capacity)

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self)} events buffered, {self.emitted} emitted, "
            f"{len(self._subscribers)} subscribed types)"
        )
