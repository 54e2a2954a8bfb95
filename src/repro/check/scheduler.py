"""Pluggable delivery schedulers for systematic schedule exploration.

The simulated network delivers matured delayed messages in
``Network._pump`` — historically in a fixed order (globally by maturity
time, FIFO per channel).  A :class:`Scheduler` installed via
``Network.install_scheduler`` intercepts each matured batch and decides
the actual delivery order, which is exactly the degree of freedom a
real asynchronous network has and the fixed order hides:

* :class:`FifoScheduler` — returns the batch untouched.  Installing it
  is byte-for-byte identical to no scheduler at all (the determinism
  pin guards this), so the hook costs the legacy behaviour nothing.
* :class:`PCTScheduler` — PCT-style randomized priorities adapted to
  channels: every (sender, recipient) channel draws a random priority,
  matured batches deliver channel-by-channel in priority order, and
  channels are occasionally *deferred* wholesale (re-held a little
  longer) or re-prioritized, perturbing both delivery order and how
  deliveries interleave with fault windows.  Seeded and deterministic:
  one seed ⇒ one schedule, the property replay and shrinking rest on.
* :class:`DFSScheduler` — a replayable choice sequence over per-batch
  channel interleavings; :func:`explore` drives it through a bounded
  depth-first enumeration of the whole schedule tree for small
  scenarios (stateless search: each prefix re-runs the scenario).

All schedulers preserve per-channel FIFO order — the TCP guarantee the
fault plane maintains and the Δ-parity sequencing assumes.  A channel
with still-held (unmatured) traffic is never deferred, since its
deferred messages would otherwise re-queue *behind* later ones.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sim.messages import Message


class Scheduler:
    """Delivery-order policy for matured delayed messages."""

    name = "scheduler"

    def bind(self, network) -> None:
        """Called by ``Network.install_scheduler``."""
        self.network = network

    def schedule(self, due: list[Message], network) -> list[Message]:
        """Return the batch in delivery order (may re-hold messages on
        the fault plane and return fewer)."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-able spec that :func:`build_scheduler` round-trips."""
        return {"mode": self.name}


class FifoScheduler(Scheduler):
    """The legacy order, explicitly: maturity order, FIFO per channel."""

    name = "fifo"

    def schedule(self, due: list[Message], network) -> list[Message]:
        return due


def _by_channel(due: list[Message]) -> dict[tuple[str, str], list[Message]]:
    """Group a batch per channel, preserving order (insertion order of
    the dict is first-maturity order — deterministic)."""
    groups: dict[tuple[str, str], list[Message]] = {}
    for message in due:
        groups.setdefault((message.sender, message.recipient), []).append(
            message
        )
    return groups


class PCTScheduler(Scheduler):
    """Seeded random-priority (PCT-style) schedule perturbation."""

    name = "pct"

    def __init__(
        self,
        seed: int = 0,
        defer_probability: float = 0.15,
        defer_window: float = 3.0,
        reshuffle_probability: float = 0.1,
    ):
        if not 0.0 <= defer_probability < 1.0:
            raise ValueError("defer_probability must be in [0, 1)")
        self.seed = seed
        self.defer_probability = defer_probability
        self.defer_window = defer_window
        self.reshuffle_probability = reshuffle_probability
        # Keyed stream: independent of any other consumer of the seed.
        self.rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5C4ED])
        self._priorities: dict[tuple[str, str], float] = {}
        self.deferrals = 0
        self.reorderings = 0

    def describe(self) -> dict:
        return {
            "mode": "pct",
            "seed": self.seed,
            "defer_probability": self.defer_probability,
            "defer_window": self.defer_window,
            "reshuffle_probability": self.reshuffle_probability,
        }

    def schedule(self, due: list[Message], network) -> list[Message]:
        groups = _by_channel(due)
        plane = network.fault_plane
        tracer = network.tracer
        deliver: list[tuple[str, str]] = []
        for channel, messages in groups.items():
            # Defer a whole channel batch: re-held messages mature a
            # little later, landing in a different interleaving (and a
            # different fault-rule window).  Only when the channel has
            # no unmatured traffic — re-queuing behind it would break
            # per-channel FIFO.
            if (
                plane is not None
                and plane.held_count(*channel) == 0
                and float(self.rng.random()) < self.defer_probability
            ):
                delay = 1.0 + float(self.rng.random()) * self.defer_window
                for message in messages:
                    plane.requeue(message, network.now + delay)
                self.deferrals += 1
                if tracer is not None:
                    tracer.emit(
                        "sched.defer", channel[1], messages[0].kind,
                        len(messages),
                    )
                continue
            deliver.append(channel)
        for channel in deliver:
            if channel not in self._priorities:
                self._priorities[channel] = float(self.rng.random())
        if deliver and float(self.rng.random()) < self.reshuffle_probability:
            # A PCT "change point": one channel's priority is re-drawn,
            # moving it across the others for the rest of the run.
            victim = deliver[int(self.rng.integers(len(deliver)))]
            self._priorities[victim] = float(self.rng.random())
        ranked = sorted(
            deliver, key=lambda channel: (self._priorities[channel], channel)
        )
        out = [m for channel in ranked for m in groups[channel]]
        if ranked != deliver:  # deliver keeps the incoming channel order
            self.reorderings += 1
            if tracer is not None:
                tracer.emit("sched.reorder", len(out))
        return out


class DFSScheduler(Scheduler):
    """Replayable per-batch channel interleaving from a choice list.

    Each scheduling decision picks which live channel delivers next;
    the first ``len(choices)`` decisions follow ``choices``, the rest
    default to 0 (first channel).  ``decisions`` records every
    ``(chosen, alternatives)`` pair, which :func:`explore` expands into
    unexplored siblings.
    """

    name = "dfs"

    def __init__(self, choices=()):  # noqa: D401
        self.choices = list(choices)
        self.decisions: list[tuple[int, int]] = []
        self._cursor = 0

    def describe(self) -> dict:
        return {"mode": "dfs", "choices": [c for c, _ in self.decisions]}

    def schedule(self, due: list[Message], network) -> list[Message]:
        groups = {
            channel: deque(messages)
            for channel, messages in _by_channel(due).items()
        }
        channels = list(groups)
        out: list[Message] = []
        while True:
            live = [channel for channel in channels if groups[channel]]
            if not live:
                return out
            if len(live) == 1:
                out.append(groups[live[0]].popleft())
                continue
            if self._cursor < len(self.choices):
                pick = self.choices[self._cursor] % len(live)
            else:
                pick = 0
            self._cursor += 1
            self.decisions.append((pick, len(live)))
            out.append(groups[live[pick]].popleft())


class ExplorationResult:
    """Outcome of one bounded-DFS exploration."""

    def __init__(self, failure, runs: int, complete: bool,
                 schedule: list[int] | None = None):
        self.failure = failure  # the failing run's result (None = clean)
        self.runs = runs
        self.complete = complete  # True = the whole tree was enumerated
        self.schedule = schedule  # replayable choice list of the failure

    @property
    def ok(self) -> bool:
        return self.failure is None


def explore(run, max_runs: int = 256, max_decisions: int = 64) -> ExplorationResult:
    """Bounded depth-first enumeration of the schedule choice tree.

    ``run(scheduler)`` must execute the scenario fresh under the given
    :class:`DFSScheduler` and return an object with a truthy ``ok``
    (or a plain bool).  The search is stateless — every prefix replays
    the scenario from scratch, which the deterministic simulator makes
    exact.  Returns on the first failing schedule, or after the tree
    (bounded by ``max_runs`` runs and ``max_decisions`` decision depth)
    is exhausted.
    """
    stack: list[tuple[int, ...]] = [()]
    runs = 0
    complete = True
    while stack:
        if runs >= max_runs:
            complete = False
            break
        prefix = stack.pop()
        scheduler = DFSScheduler(prefix)
        result = run(scheduler)
        runs += 1
        ok = result.ok if hasattr(result, "ok") else bool(result)
        if not ok:
            schedule = [c for c, _ in scheduler.decisions]
            return ExplorationResult(
                result, runs, complete=False, schedule=schedule
            )
        decisions = scheduler.decisions
        if len(decisions) > max_decisions:
            complete = False
            decisions = decisions[:max_decisions]
        taken = [c for c, _ in decisions]
        # Expand alternatives beyond the forced prefix, deepest last so
        # the stack pops depth-first.
        for i in range(len(prefix), len(decisions)):
            chosen, alternatives = decisions[i]
            for alt in range(1, alternatives):
                stack.append(
                    tuple(taken[:i]) + ((chosen + alt) % alternatives,)
                )
    return ExplorationResult(None, runs, complete)


def build_scheduler(spec: dict | None) -> Scheduler | None:
    """Instantiate a scheduler from its JSON spec (None / mode "none"
    = no scheduler: the legacy pump order)."""
    if spec is None:
        return None
    mode = spec.get("mode", "none")
    if mode == "none":
        return None
    if mode == "fifo":
        return FifoScheduler()
    if mode == "pct":
        return PCTScheduler(
            seed=int(spec.get("seed", 0)),
            defer_probability=float(spec.get("defer_probability", 0.15)),
            defer_window=float(spec.get("defer_window", 3.0)),
            reshuffle_probability=float(
                spec.get("reshuffle_probability", 0.1)
            ),
        )
    if mode == "dfs":
        return DFSScheduler(spec.get("choices", ()))
    raise ValueError(f"unknown scheduler mode {spec.get('mode')!r}")
