"""Failure injection: deterministic crashes, availability sampling, schedules.

Three styles of unavailability drive the experiments:

* **Targeted crashes** — fail exactly these nodes now (recovery tests,
  experiments E7/E8).
* **Probabilistic sampling** — each node independently unavailable with
  probability ``1 - p`` (the paper's availability model, Monte-Carlo
  cross-check of experiment E5).
* **Schedules** — crash/restore windows and flaky nodes (exponential
  MTBF/MTTR), applied as the network's logical clock advances.  The
  injector registers itself as a clock listener; schedules fire between
  operation chains, never mid-delivery.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

import numpy as np

from repro.sim.network import Network
from repro.sim.rng import make_rng


class FailureInjector:
    """Applies and reverts failure scenarios on a :class:`Network`."""

    def __init__(self, network: Network, rng: np.random.Generator | None = None):
        self.network = network
        self.rng = rng or make_rng()
        self._injected: set[str] = set()
        #: min-heap of (at, seq, action, node_id); seq breaks ties stably
        self._schedule: list[tuple[float, int, str, str]] = []
        self._seq = 0
        #: node_id -> (mtbf, mttr) for flaky nodes
        self._flaky: dict[str, tuple[float, float]] = {}
        #: chronological (now, action, node_id) record of applied events
        self.event_log: list[tuple[float, str, str]] = []
        self._listening = False

    # ------------------------------------------------------------------
    # immediate failures
    # ------------------------------------------------------------------
    def crash(self, node_ids: Iterable[str]) -> list[str]:
        """Fail the given nodes; returns the list actually failed."""
        failed = []
        for node_id in node_ids:
            if self.network.is_available(node_id):
                self.network.fail(node_id)
                self._injected.add(node_id)
                failed.append(node_id)
        return failed

    def crash_sample(self, candidates: Sequence[str], count: int) -> list[str]:
        """Fail ``count`` distinct nodes drawn uniformly from candidates."""
        if count > len(candidates):
            raise ValueError("cannot fail more nodes than exist")
        chosen = self.rng.choice(len(candidates), size=count, replace=False)
        return self.crash(candidates[i] for i in chosen)

    def sample_availability(self, candidates: Sequence[str], p: float) -> list[str]:
        """Each candidate fails independently with probability ``1 - p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("availability p must be in [0, 1]")
        draws = self.rng.random(len(candidates))
        return self.crash(
            node for node, draw in zip(candidates, draws) if draw >= p
        )

    # ------------------------------------------------------------------
    def heal(self, node_ids: Iterable[str] | None = None) -> None:
        """Restore nodes (default: everything this injector failed).

        Healing a node this injector never failed is a scenario bug —
        it usually means a misspelled id silently "recovered" — and
        raises :class:`ValueError`.

        A heal routes the node through the rejoin handshake
        (``Network.restore`` fires its ``on_restored`` hook: local
        replay, fencing, delta catch-up).

        The no-argument form forgets injected ids that are no longer
        registered (a merge dissolved the bucket while it was down);
        explicit ids stay strict.
        """
        if node_ids is None:
            self._injected &= self.network.nodes.keys()
            node_ids = sorted(self._injected)
        for node_id in list(node_ids):
            if node_id not in self._injected:
                raise ValueError(
                    f"node {node_id!r} was not failed by this injector"
                )
            self.network.restore(node_id)
            self._injected.discard(node_id)

    @property
    def currently_failed(self) -> list[str]:
        """Nodes this injector failed and has not healed (sorted)."""
        return sorted(self._injected)

    # ------------------------------------------------------------------
    # schedules (driven by the network's logical clock)
    # ------------------------------------------------------------------
    def _ensure_listening(self) -> None:
        if not self._listening:
            self.network.add_clock_listener(self.on_tick)
            self._listening = True

    def _push(self, at: float, action: str, node_id: str) -> None:
        heapq.heappush(self._schedule, (at, self._seq, action, node_id))
        self._seq += 1

    def schedule_crash(self, node_id: str, at: float, duration: float | None = None) -> None:
        """Crash ``node_id`` at simulation time ``at``.

        With ``duration`` the node restores itself ``duration`` clock
        units later (a crash/restore window); without, it stays down
        until healed or rebuilt.
        """
        if at < self.network.now:
            raise ValueError("cannot schedule a crash in the past")
        if duration is not None and duration <= 0:
            raise ValueError("crash duration must be positive")
        self._ensure_listening()
        self._push(at, "crash", node_id)
        if duration is not None:
            self._push(at + duration, "restore", node_id)

    def make_flaky(self, node_ids: Iterable[str], mtbf: float, mttr: float) -> None:
        """Give nodes exponential failure/repair cycles (MTBF/MTTR).

        Each node runs for Exp(mtbf) clock units, crashes, stays down
        for Exp(mttr), restores, and repeats — the renewal process
        lifetime studies assume.  Draws come from the injector's seeded
        generator, so a given seed yields one reproducible lifetime.
        """
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        self._ensure_listening()
        for node_id in node_ids:
            self._flaky[node_id] = (mtbf, mttr)
            up_for = float(self.rng.exponential(mtbf))
            self._push(self.network.now + up_for, "crash", node_id)

    def on_tick(self, now: float) -> None:
        """Apply every scheduled event with ``at <= now`` (clock listener)."""
        while self._schedule and self._schedule[0][0] <= now:
            _, _, action, node_id = heapq.heappop(self._schedule)
            if action == "crash":
                if self.network.is_available(node_id):
                    self.network.fail(node_id)
                    self._injected.add(node_id)
                    self.event_log.append((now, "crash", node_id))
                if node_id in self._flaky:
                    _, mttr = self._flaky[node_id]
                    self._push(now + float(self.rng.exponential(mttr)), "restore", node_id)
            else:  # restore
                # The node may have been rebuilt onto a spare (and its id
                # unregistered) while down; a vanished id just means the
                # restore lost the race with recovery.
                if node_id in self.network.nodes:
                    if node_id in self.network.failed:
                        self.event_log.append((now, "restore", node_id))
                    self.network.restore(node_id)
                self._injected.discard(node_id)
                if node_id in self._flaky:
                    mtbf, _ = self._flaky[node_id]
                    self._push(now + float(self.rng.exponential(mtbf)), "crash", node_id)

    def stop_flaky(self, node_ids: Iterable[str] | None = None) -> None:
        """Stop scheduling new cycles for flaky nodes (pending events stay)."""
        targets = list(node_ids) if node_ids is not None else list(self._flaky)
        for node_id in targets:
            self._flaky.pop(node_id, None)

    @property
    def pending_events(self) -> int:
        """Scheduled crash/restore events not yet applied."""
        return len(self._schedule)
