"""The LH*RS client.

Identical to the LH* client in failure-free operation — the paper's
point: key searches and scans never touch parity, so the availability
machinery is free until something fails.  When the addressed bucket is
unavailable the client reports to the coordinator, which serves searches
through record recovery (degraded mode) and rebuilds the bucket.

Gray failures get the same treatment as death, one step earlier: with a
read deadline configured (``LHRSConfig.read_deadline``, and a
:class:`~repro.sim.network.ServiceModel` installed), every read carries
a latency budget.  A read that outruns the client's adaptive p99 is
*hedged* — the parity-reconstruction path serves the same record through
the coordinator, and the effective latency is whichever path would have
answered first.  A bucket that keeps blowing the budget trips a
per-bucket circuit breaker: reads short-circuit to the degraded path for
a cooldown instead of queueing behind a straggler.  The record comes
back identical either way (the property tests pin this); only the tail
latency differs.
"""

from __future__ import annotations

from collections import deque

from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.trace import OMITTED
from repro.sdds.client import Client, SearchOutcome
from repro.sim.network import DeliveryFault, NodeUnavailable, UnknownNode

#: A read is hedged once it outruns this quantile of the client's recent
#: read latencies; the first ``HEDGE_MIN_SAMPLES`` reads (warm-up) hedge
#: at half the deadline.
HEDGE_QUANTILE = 0.99
HEDGE_MIN_SAMPLES = 16
#: This many consecutive slow reads against one bucket open its breaker
#: for ``BREAKER_COOLDOWN`` clock units; the first read after the
#: cooldown probes the primary again.
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN = 32.0


class _Breaker:
    """Per-bucket circuit breaker over consecutive slow reads."""

    __slots__ = ("threshold", "cooldown", "slow_streak", "opened_at")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.slow_streak = 0
        self.opened_at: float | None = None

    def is_open(self, now: float) -> bool:
        return (
            self.opened_at is not None
            and now < self.opened_at + self.cooldown
        )

    def record(self, slow: bool, now: float) -> str | None:
        """Fold one read's verdict in; returns "opened"/"closed" on a
        state transition (the first read after a cooldown is the
        half-open probe: it either closes the breaker or re-opens it).
        """
        if slow:
            self.slow_streak += 1
            reopening = self.opened_at is not None
            if self.slow_streak >= self.threshold or reopening:
                self.opened_at = now
                self.slow_streak = 0
                return "opened"
            return None
        self.slow_streak = 0
        if self.opened_at is not None:
            self.opened_at = None
            return "closed"
        return None


class RSClient(Client):
    """An application's access point to one LH*RS file."""

    def __init__(self, *args, deadline: float | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        #: per-read latency budget in virtual time units, the SLO
        #: (None = plain LH*RS behaviour)
        self.deadline = deadline
        #: recent effective read latencies, for the adaptive hedge delay
        self._latency_samples: deque[float] = deque(maxlen=256)
        self._breakers: dict[int, _Breaker] = {}
        self.hedged_reads = 0
        self.deadline_misses = 0
        self.degraded_fallbacks = 0
        #: effective latency of the most recent deadline-governed read.
        #: The simulator runs hedges after the primary instead of racing
        #: them, so wall virtual-time around ``search`` double-counts a
        #: hedged read; this is the client's own accounting (min of the
        #: two paths), the number the latency histogram records.
        self.last_read_latency: float | None = None

    # ------------------------------------------------------------------
    # failure reporting (hard failures: the bucket is dead)
    # ------------------------------------------------------------------
    def on_unavailable(self, kind: str, payload: dict,
                       failure: NodeUnavailable) -> None:
        """Report the failure to the coordinator, which completes the
        operation (degraded read or recover-then-deliver).

        Goes through the failover-aware send: when the coordinator died
        too, the whois pull path waits out the standby lease and the
        report lands on the new primary instead.

        A *fenced* refusal (the bucket restarted from disk and is
        mid-catch-up, not dead — durable storage plane) is forwarded
        with the distinction intact: the coordinator must not treat an
        epoch-fenced bucket as a fresh loss, and the trace stream keeps
        the two failure shapes apart.
        """
        # The marker is added only when set: report payloads and trace
        # attrs stay byte-identical to the pre-durability plane whenever
        # no fencing is involved.
        extra = {"fenced": True} if getattr(failure, "fenced", False) else {}
        net = self.network
        if net is not None and net.tracer is not None:
            net.tracer.emit(
                "client.unavailable", failure.node_id, kind,
                payload.get("key"), True if extra else OMITTED,
            )
        self._coord_send(
            "report.unavailable",
            {"kind": kind, "op": payload, "node": failure.node_id, **extra},
        )

    # ------------------------------------------------------------------
    # batched operations: recovery and routing hooks
    # ------------------------------------------------------------------
    def _batch_unavailable(self, kind: str, op: dict, failure) -> bool:
        """A batch target died: report it (the coordinator recovers the
        bucket onto a spare under the same address), then retry the
        sub-batch — the LH*RS answer to a dead bucket, batched.  The
        report carries no op to complete: the retried sub-batch delivers
        the ops itself once the bucket is back."""
        net = self.network
        if net is not None and net.tracer is not None:
            net.tracer.emit(
                "client.unavailable", failure.node_id, kind, op.get("key"),
                OMITTED,
            )
        try:
            self._coord_send(
                "report.unavailable",
                {"kind": None, "op": None, "node": failure.node_id},
            )
        except (NodeUnavailable, UnknownNode, DeliveryFault):
            # Coordinator dark: fall back to the scalar path, whose
            # failover machinery (and failure surface) is authoritative.
            return False
        return True

    def _batch_route_scalar(self, kind: str, op: dict) -> bool:
        """Open-breaker searches skip the batch plane: the scalar
        :meth:`search` carries the hedge/degraded machinery a slow
        bucket needs, which an ``ops.batch`` call would bypass."""
        net = self.network
        if (
            kind != "search" or self.deadline is None
            or net is None or net.service is None
        ):
            return False
        breaker = self._breakers.get(self.image.address(op["key"]))
        return breaker is not None and breaker.is_open(net.now)

    # ------------------------------------------------------------------
    # deadline/hedged reads (gray failures: the bucket is slow)
    # ------------------------------------------------------------------
    def _search_impl(self, key: int) -> SearchOutcome:
        # Overrides the scalar ladder *inside* the base class's
        # recording wrapper: whatever path serves the read — primary,
        # hedge or breaker short-circuit — the recorded outcome is the
        # one the application saw.
        deadline = self.deadline
        net = self.network
        if deadline is None or net is None or net.service is None:
            return super()._search_impl(key)

        bucket = self.image.address(key)
        breaker = self._breakers.get(bucket)
        if breaker is None:
            breaker = self._breakers[bucket] = _Breaker(
                BREAKER_THRESHOLD, BREAKER_COOLDOWN
            )

        if breaker.is_open(net.now):
            start = net.virtual_time
            outcome = self._degraded_search(key)
            if outcome is not None:
                self._count("read.breaker.short_circuit")
                self._observe_read(net.virtual_time - start, deadline)
                return outcome
            # The alternate path is dark too — fall through and take
            # our chances with the primary.

        start = net.virtual_time
        outcome = super()._search_impl(key)
        elapsed = net.virtual_time - start

        effective = elapsed
        hedged = False
        hedge_after = self._hedge_delay(deadline)
        if elapsed > hedge_after:
            hedge_start = net.virtual_time
            alternate = self._degraded_search(key)
            if alternate is not None:
                hedged = True
                self.hedged_reads += 1
                self._count("read.hedged")
                # The hedge would have fired hedge_after into the
                # primary read and raced it; the client sees whichever
                # path answers first.
                hedge_total = hedge_after + (net.virtual_time - hedge_start)
                if net.tracer is not None:
                    net.tracer.emit(
                        "op.hedged", key, bucket, round(elapsed, 3),
                        round(hedge_total, 3),
                    )
                if hedge_total < effective:
                    effective = hedge_total
                    outcome = alternate

        miss = self._observe_read(effective, deadline)
        transition = breaker.record(miss or hedged, net.now)
        if transition == "opened":
            self._count("read.breaker.opened")
        if transition is not None and net.tracer is not None:
            net.tracer.emit(
                "breaker.open" if transition == "opened" else "breaker.close",
                bucket,
            )
        return outcome

    def _degraded_search(self, key: int) -> SearchOutcome | None:
        """The alternate read path: parity reconstruction through the
        coordinator, exactly as if the bucket were dead.  Returns None
        when the coordinator cannot serve it (no parity, coordinator
        dark) — the caller falls back to the primary's answer."""
        try:
            reply = self.call(
                f"{self.file_id}.coord", "read.degraded", {"key": key}
            )
        except (NodeUnavailable, UnknownNode, DeliveryFault):
            return None
        if not isinstance(reply, dict) or not reply.get("served"):
            return None
        self.degraded_fallbacks += 1
        return SearchOutcome(
            key=key, found=reply["found"], value=reply["value"]
        )

    def _hedge_delay(self, deadline: float) -> float:
        """Adaptive hedge trigger: :data:`HEDGE_QUANTILE` of this
        client's recent reads (half the deadline until warmed up).

        Clamped to half the deadline from above: past that point a
        hedge could no longer finish inside the budget, and an
        unclamped quantile chases its own tail — hedged reads inflate
        the sample quantile, which delays the next hedge further.
        """
        samples = self._latency_samples
        if len(samples) < HEDGE_MIN_SAMPLES:
            return deadline / 2.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(HEDGE_QUANTILE * len(ordered)))
        return min(ordered[index], deadline / 2.0)

    def _observe_read(self, effective: float, deadline: float) -> bool:
        """Record one read's effective latency; True = deadline miss."""
        self._latency_samples.append(effective)
        self.last_read_latency = effective
        net = self.network
        if net is not None and net.metrics is not None:
            net.metrics.histogram(
                "op.read.latency",
                LATENCY_BUCKETS,
                "end-to-end read latency (virtual time)",
            ).observe(effective)
        miss = effective > deadline
        if miss:
            self.deadline_misses += 1
            self._count("read.deadline_miss")
            if net is not None and net.tracer is not None:
                net.tracer.emit(
                    "op.deadline_miss", round(effective, 3), deadline
                )
        return miss

    def _count(self, name: str) -> None:
        net = self.network
        if net is not None and net.metrics is not None:
            net.metrics.counter(name).inc()
