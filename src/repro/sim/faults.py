"""Message-level fault injection: the network's fault plane.

The crash model (`Network.fail`) covers hard node loss; real deployments
also face a hostile *message* plane: requests vanish, retransmissions
duplicate them, switch queues delay them, and links flap without any
node being down.  :class:`FaultPlane` injects exactly those faults into
the simulated network, deterministically (every draw comes from one
seeded generator) and selectively (rules match on sender, recipient and
message kind, so an experiment can batter the Δ-parity channel while
leaving, say, scans alone).

Semantics in a synchronous simulator:

* **drop** — a fire-and-forget ``send`` is silently lost (the sender has
  no way to know: the UDP case).  A ``call``'s request or reply loss
  surfaces as :class:`~repro.sim.network.DeliveryFault` at the sender —
  its timeout fires.  A lost *reply* means the handler DID run: the
  at-least-once hazard the Δ sequence numbers exist for.
* **duplicate** — delivered twice (a retransmission after a lost ack).
* **delay** — held and re-delivered after a bounded number of later
  network operations.  Delivery order is FIFO *per (sender, recipient)
  channel* (the TCP guarantee); messages on other channels overtake
  freely.
* **fail** — a transient, sender-visible delivery failure
  (:class:`DeliveryFault`), distinct from ``drop`` in that the sender
  learns about it immediately and can back off and retry.

Structural control messages (splits, merges, bulk transfers, recovery
dumps/loads) ride a protected channel by default — modelling the
coordinator's TCP-with-retries control connections — because replaying
half a split is not a fault any protocol is expected to survive.  Tests
may override ``protected_kinds`` to explore exactly that.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.sim.rng import DEFAULT_SEED, make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.messages import Message

#: Kinds exempt from fault injection unless explicitly overridden:
#: file-structure and recovery control traffic (the reliable channel).
DEFAULT_PROTECTED_KINDS = frozenset(
    {
        "split",
        "merge",
        "records.bulk",
        "level.set",
        "config.parity",
        "bucket.dump",
        "bucket.load",
        "parity.dump",
        "parity.load",
        "parity.reset",
        "route",
        "report.unavailable",
        "report.stale",
        # coordinator HA control plane: journal replication and
        # checkpoints are the reliable channel takeover correctness
        # rests on (heartbeats/pings/whois stay fault-prone — their
        # consumers tolerate loss by design).
        "coord.journal.append",
        "coord.journal.fetch",
        "coord.checkpoint",
        "coord.checkpoint.fetch",
        # restart/catch-up control plane: a rejoining bucket's tail
        # fetch and state transfer ride the reliable channel, like the
        # recovery dumps/loads above (the rejoin request itself stays
        # fault-prone — its sender retries).
        "runs.tail",
        "runs.catchup",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (simulated time).

    ``delay(attempt)`` is the wait after the attempt of that index:
    ``backoff_base * backoff_factor**attempt`` capped at ``backoff_max``.
    Waiting advances the network's logical clock, which matures delayed
    messages and lets scheduled crash windows pass — backing off is how
    a sender *outlives* a transient fault.

    With ``jitter`` enabled the deterministic schedule becomes the
    *envelope* of a decorrelated-jitter draw: the wait after attempt a
    is uniform in ``[backoff_base, 3 * delay(a-1)]``, capped at
    ``backoff_max``.  Senders that failed together then retry spread
    out instead of thundering-herding the bucket the instant it
    restores.  The draw is a pure function of ``(jitter_seed, salt,
    attempt)`` — no shared generator state — so every simulation stays
    replayable and each sender decorrelates by salting with its own
    node id.  Off by default: the pinned backoff tests (and the paper's
    message accounting) use the exact exponential schedule.
    """

    attempts: int = 4
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 16.0
    jitter: bool = False
    jitter_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("retry attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1 (non-shrinking)")

    def delay(self, attempt: int, salt: int = 0) -> float:
        """Backoff after the ``attempt``-th failure (0-based).

        ``salt`` decorrelates independent senders under ``jitter`` (pass
        a stable per-sender value, e.g. a CRC of the node id); it is
        ignored on the exact no-jitter path.
        """
        exact = min(
            self.backoff_base * self.backoff_factor**attempt, self.backoff_max
        )
        if not self.jitter or exact <= 0:
            return exact
        prev = self.backoff_base if attempt == 0 else min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        rng = np.random.default_rng(
            [self.jitter_seed & 0xFFFFFFFF, salt & 0xFFFFFFFF, attempt]
        )
        lo = self.backoff_base
        hi = max(lo, 3.0 * prev)
        return min(lo + (hi - lo) * float(rng.random()), self.backoff_max)


@dataclass(frozen=True)
class FaultRule:
    """One fault-injection rule; the first matching rule decides.

    ``kinds`` is an exact set (None = every kind); ``sender`` and
    ``recipient`` are glob patterns (None = anyone).  The probabilities
    are cumulative-exclusive: a single uniform draw picks drop, else
    fail, else duplicate, else corrupt, else delay, else clean delivery.
    """

    kinds: frozenset[str] | None = None
    sender: str | None = None
    recipient: str | None = None
    drop: float = 0.0
    fail: float = 0.0
    duplicate: float = 0.0
    #: delivered with seeded byte-flips in bytes-valued payload fields
    #: (an in-flight corruption the algebraic-signature scrub must catch)
    corrupt: float = 0.0
    delay: float = 0.0
    #: a delayed message matures within (0, delay_window] clock units
    delay_window: float = 4.0
    #: rule expires at this simulation time (None = never)
    until: float | None = None

    def __post_init__(self) -> None:
        for name in ("drop", "fail", "duplicate", "corrupt", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        if (
            self.drop + self.fail + self.duplicate + self.corrupt + self.delay
            > 1.0
        ):
            raise ValueError("fault probabilities must sum to <= 1")
        if self.delay_window <= 0:
            raise ValueError("delay_window must be positive")

    def matches(self, message: "Message", now: float) -> bool:
        if self.until is not None and now >= self.until:
            return False
        if self.kinds is not None and message.kind not in self.kinds:
            return False
        if self.sender is not None and not fnmatchcase(
            message.sender, self.sender
        ):
            return False
        if self.recipient is not None and not fnmatchcase(
            message.recipient, self.recipient
        ):
            return False
        return True


@dataclass(frozen=True)
class SlowRule:
    """Gray failure: a node stays alive but its service slows down.

    Where :class:`FaultRule` kills or loses messages, a slow rule only
    *stretches* them — the straggler case the crash model cannot
    express.  ``node`` is a glob over node ids; every matching rule
    multiplies the node's service time in the network's
    :class:`~repro.sim.network.ServiceModel`.

    ``factor`` is the multiplier when the rule starts; ``ramp`` adds to
    it per clock unit elapsed since ``start`` (a degrading NIC or a
    filling disk worsens over time — the canonical gray failure).
    ``jitter`` perturbs each query by a uniform ± fraction drawn from
    the plane's seeded generator, so slowness is noisy yet replayable.
    ``until`` expires the rule (the straggler recovers on its own).
    """

    node: str = "*"
    factor: float = 1.0
    ramp: float = 0.0
    jitter: float = 0.0
    start: float = 0.0
    until: float | None = None

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("slow factor must be >= 1 (a speedup is not a fault)")
        if self.ramp < 0:
            raise ValueError("ramp cannot be negative (rules only degrade)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.until is not None and self.until <= self.start:
            raise ValueError("until must come after start")

    def applies(self, node_id: str, now: float) -> bool:
        if now < self.start:
            return False
        if self.until is not None and now >= self.until:
            return False
        return fnmatchcase(node_id, self.node)


@dataclass(frozen=True)
class DiskRule:
    """Storage-plane faults for a node's :class:`~repro.store.SimDisk`.

    Where :class:`FaultRule` batters messages in flight, a disk rule
    batters bytes at rest: ``torn_write`` is the probability a crash
    leaves a prefix of the first unsynced append behind (a torn WAL
    frame), ``bitrot`` the probability a crash flips ``bitrot_flips``
    seeded bytes in one durable file, ``io_error`` the per-operation
    probability of a transient :class:`~repro.store.DiskError`, and
    ``slow_factor`` stretches the virtual io time of every fsync.
    Matching rules merge: probabilities take the max, slow factors
    multiply.  Crashing always loses the unsynced tail — that is the
    disk model itself, not a fault rule.
    """

    node: str = "*"
    torn_write: float = 0.0
    bitrot: float = 0.0
    bitrot_flips: int = 1
    io_error: float = 0.0
    slow_factor: float = 1.0
    until: float | None = None

    def __post_init__(self) -> None:
        for name in ("torn_write", "bitrot", "io_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        if self.bitrot_flips < 1:
            raise ValueError("bitrot_flips must be >= 1")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1 (a speedup is not a fault)")

    def applies(self, node_id: str, now: float) -> bool:
        if self.until is not None and now >= self.until:
            return False
        return fnmatchcase(node_id, self.node)


class FaultPlane:
    """Per-message fault decisions plus the delayed-message hold queues."""

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        protected_kinds: Iterable[str] = DEFAULT_PROTECTED_KINDS,
    ):
        self.rng = rng or make_rng()
        self.rules: list[FaultRule] = []
        self.slow_rules: list[SlowRule] = []
        self.disk_rules: list[DiskRule] = []
        self.protected_kinds = frozenset(protected_kinds)
        #: (sender, recipient) -> FIFO of (release_at, Message)
        self._held: dict[tuple[str, str], deque] = {}
        self.counters: Counter = Counter()
        #: tracer to announce injected faults on (set by the network's
        #: install_tracer/install_fault_plane; None = silent)
        self.tracer = None

    def _trace(self, message: "Message", outcome: str) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "fault.injected", outcome, message.kind, message.recipient
            )

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_rule(self, **kwargs) -> FaultRule:
        """Append a :class:`FaultRule` (keyword arguments as its fields)."""
        kinds = kwargs.get("kinds")
        if kinds is not None:
            kwargs["kinds"] = frozenset(kinds)
        rule = FaultRule(**kwargs)
        self.rules.append(rule)
        return rule

    def add_slow_rule(self, **kwargs) -> SlowRule:
        """Append a :class:`SlowRule` (keyword arguments as its fields)."""
        rule = SlowRule(**kwargs)
        self.slow_rules.append(rule)
        return rule

    def add_disk_rule(self, **kwargs) -> DiskRule:
        """Append a :class:`DiskRule` (keyword arguments as its fields)."""
        rule = DiskRule(**kwargs)
        self.disk_rules.append(rule)
        return rule

    def disk_profile(self, node_id: str, now: float) -> dict:
        """Merged disk-fault profile for one node at one instant.

        Probabilities take the max across matching rules, slow factors
        multiply; an empty dict means the neutral profile.
        """
        profile: dict = {}
        slow = 1.0
        for rule in self.disk_rules:
            if not rule.applies(node_id, now):
                continue
            for name in ("torn_write", "bitrot", "io_error"):
                value = getattr(rule, name)
                if value > profile.get(name, 0.0):
                    profile[name] = value
            if rule.bitrot > 0.0:
                profile["bitrot_flips"] = max(
                    profile.get("bitrot_flips", 1), rule.bitrot_flips
                )
            slow *= rule.slow_factor
        if slow != 1.0:
            profile["slow_factor"] = slow
        return profile

    def clear_rules(self) -> None:
        """Drop every rule (fault, slow and disk); held messages stay
        queued until released."""
        self.rules.clear()
        self.slow_rules.clear()
        self.disk_rules.clear()

    # ------------------------------------------------------------------
    # gray failure: service slowdown
    # ------------------------------------------------------------------
    def slowdown(self, node_id: str, now: float) -> float:
        """Combined service-time multiplier for a node (1.0 = healthy).

        Matching slow rules compose multiplicatively (a ramping disk
        *and* an overloaded NIC).  Jittered rules draw from the plane's
        seeded generator: deterministic given the simulation's message
        order, like every other fault decision.
        """
        if not self.slow_rules:
            return 1.0
        total = 1.0
        for rule in self.slow_rules:
            if not rule.applies(node_id, now):
                continue
            factor = rule.factor + rule.ramp * (now - rule.start)
            if rule.jitter:
                factor *= (
                    1.0 + rule.jitter * (2.0 * float(self.rng.random()) - 1.0)
                )
            total *= max(factor, 1.0)
            self.counters["slowed"] += 1
        return total

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def outcome_for(
        self, message: "Message", now: float, can_delay: bool = True
    ) -> tuple[str, float]:
        """Fate of one message: ``(outcome, release_at)``.

        Outcomes: ``deliver``, ``drop``, ``fail``, ``duplicate``,
        ``delay`` (with its maturity time).  A message on a channel with
        held traffic is forced to ``delay`` behind it — per-channel FIFO,
        so a delayed mutation can never be overtaken by a later one from
        the same sender.  ``can_delay=False`` (request/reply legs of a
        ``call``, multicast) converts ``delay`` into clean delivery.
        """
        if message.kind in self.protected_kinds:
            return "deliver", now
        channel = (message.sender, message.recipient)
        queue = self._held.get(channel)
        if can_delay and queue:
            release_at = max(queue[-1][0], now)
            self._trace(message, "delay")
            return "delay", release_at
        for rule in self.rules:
            if not rule.matches(message, now):
                continue
            draw = float(self.rng.random())
            if draw < rule.drop:
                self._trace(message, "drop")
                return "drop", now
            draw -= rule.drop
            if draw < rule.fail:
                self._trace(message, "fail")
                return "fail", now
            draw -= rule.fail
            if draw < rule.duplicate:
                self._trace(message, "duplicate")
                return "duplicate", now
            draw -= rule.duplicate
            if draw < rule.corrupt:
                self._trace(message, "corrupt")
                return "corrupt", now
            draw -= rule.corrupt
            if draw < rule.delay and can_delay:
                jitter = float(self.rng.random()) * rule.delay_window
                self._trace(message, "delay")
                return "delay", now + max(jitter, 1e-9)
            return "deliver", now
        return "deliver", now

    # ------------------------------------------------------------------
    # hold queues (delayed messages)
    # ------------------------------------------------------------------
    def hold(self, message: "Message", release_at: float) -> None:
        """Queue a delayed message for later release."""
        channel = (message.sender, message.recipient)
        queue = self._held.setdefault(channel, deque())
        if queue:
            release_at = max(release_at, queue[-1][0])  # keep FIFO maturity
        queue.append((release_at, message))
        self.counters["delayed"] += 1

    def requeue(self, message: "Message", release_at: float) -> None:
        """Re-hold an already-matured message (scheduler deferral).

        Same queue discipline as :meth:`hold`, but counted separately:
        a deferral is a *scheduling* decision, not a new injected fault.
        """
        self.hold(message, release_at)
        self.counters["delayed"] -= 1
        self.counters["deferred"] += 1

    def held_count(self, sender: str, recipient: str) -> int:
        """Messages currently held on one channel (schedulers consult
        this: a channel with held traffic must not be deferred past it,
        or per-channel FIFO would break)."""
        queue = self._held.get((sender, recipient))
        return len(queue) if queue else 0

    def release_due(self, now: float) -> list["Message"]:
        """Matured messages, globally ordered by maturity, FIFO per channel."""
        released: list["Message"] = []
        while True:
            best_channel, best_at = None, None
            for channel, queue in self._held.items():
                if queue and queue[0][0] <= now:
                    if best_at is None or queue[0][0] < best_at:
                        best_channel, best_at = channel, queue[0][0]
            if best_channel is None:
                return released
            _, message = self._held[best_channel].popleft()
            if not self._held[best_channel]:
                del self._held[best_channel]
            self.counters["released"] += 1
            released.append(message)

    @property
    def pending(self) -> int:
        """Messages currently held in delay queues."""
        return sum(len(q) for q in self._held.values())
