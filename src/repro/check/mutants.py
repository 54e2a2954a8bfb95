"""Validation mutants: deliberately-broken variants behind a test flag.

A model checker that has never caught a bug proves nothing — the
classic trap of verification tooling that silently verifies vacuously.
This module is the antidote: three seeded bugs, each a *plausible*
LH*RS implementation error in a path the linearizability harness is
supposed to police, each off unless a test switches it on:

``stale_degraded_read``
    The coordinator's record-recovery path caches the first value it
    reconstructs per key and serves the cached copy forever after — a
    memoization "optimization" that returns stale data once the record
    is updated between two degraded reads.

``drop_parity_seq``
    The data bucket silently drops every second scalar ``update`` Δ
    *before it takes a sequence number*, so the parity channel never
    sees a gap (the self-reporting ``report.stale`` machinery
    stays blind).  Parity decodes to a stale value after the next
    bucket loss.

``double_apply_delete``
    The parity bucket folds a ``delete`` Δ twice.  GF(2) folding is
    self-inverse, so the second fold re-adds the deleted payload into
    the parity symbols — corrupting every later reconstruction of the
    record group's surviving members.

The product code knows none of this.  :func:`enable` installs a mutant
from this side by wrapping the one product method it breaks
(``RecoveryManager.recover_record``, ``RSDataServer._emit_one``,
``ParityServer._fold_run``) and :func:`disable` puts the original back,
so a production run executes unmodified ``repro.core`` code and the
dependency points downward only (``repro.lint``'s
``layering.upward-import`` rule keeps it so).
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from typing import Any

from repro.core.data_bucket import RSDataServer
from repro.core.parity_bucket import ParityServer
from repro.core.recovery import RecoveryManager


def _stale_degraded_read(original: Callable[..., Any]) -> Callable[..., Any]:
    def recover_record(self: Any, key: int) -> Any:
        # Memoize the first reconstruction per key and serve it forever.
        cache = self.__dict__.setdefault("_stale_read_cache", {})
        if key in cache:
            self.degraded_reads_served += 1
            return cache[key]
        cache[key] = original(self, key)
        return cache[key]

    return recover_record


def _drop_parity_seq(original: Callable[..., Any]) -> Callable[..., Any]:
    def _emit_one(
        self: Any, action: str, key: int, rank: int, delta: bytes, length: int
    ) -> None:
        if action == "update":
            self._mutant_update_deltas = (
                getattr(self, "_mutant_update_deltas", 0) + 1
            )
            if self._mutant_update_deltas % 2 == 0:
                # Drop the Δ before it takes a sequence number: the
                # channel never sees a gap.
                return
        original(self, action, key, rank, delta, length)

    return _emit_one


def _double_apply_delete(original: Callable[..., Any]) -> Callable[..., Any]:
    def _fold_run(
        self: Any, action: str, pos: int, seq0: Any, keys: Any, ranks: Any,
        deltas: Any, lengths: Any, wal: bool = True,
    ) -> tuple[int, bool]:
        applied, stale = original(
            self, action, pos, seq0, keys, ranks, deltas, lengths, wal
        )
        if action == "delete" and applied:
            # Fold the applied delete Δs once more into every record
            # group that still has members.
            for rank, delta in zip(ranks[-applied:], deltas[-applied:]):
                if rank in self.records:
                    self.field.scale_accumulate(
                        self._store.view(rank), self.row[pos], delta
                    )
        return applied, stale

    return _fold_run


#: mutant name -> (class, method it wraps, wrapper factory)
_SEAMS: dict[str, tuple[type, str, Callable[..., Any]]] = {
    "stale_degraded_read": (
        RecoveryManager, "recover_record", _stale_degraded_read
    ),
    "drop_parity_seq": (RSDataServer, "_emit_one", _drop_parity_seq),
    "double_apply_delete": (ParityServer, "_fold_run", _double_apply_delete),
}

#: The registered mutant names; enabling anything else is a test bug.
MUTANT_NAMES = frozenset(_SEAMS)

#: Currently-enabled mutants: name -> the original method each displaced.
ACTIVE: dict[str, Callable[..., Any]] = {}


def enable(name: str) -> None:
    """Switch one mutant on (until :func:`disable` / :func:`disable_all`)."""
    if name not in MUTANT_NAMES:
        raise ValueError(
            f"unknown mutant {name!r}; registered: {sorted(MUTANT_NAMES)}"
        )
    if name in ACTIVE:
        return
    owner, attr, wrap = _SEAMS[name]
    ACTIVE[name] = vars(owner)[attr]
    setattr(owner, attr, wrap(ACTIVE[name]))


def disable(name: str) -> None:
    """Switch one mutant off (no-op when it was off)."""
    original = ACTIVE.pop(name, None)
    if original is not None:
        owner, attr, _ = _SEAMS[name]
        setattr(owner, attr, original)


def disable_all() -> None:
    """Switch every mutant off (test teardown)."""
    for name in list(ACTIVE):
        disable(name)


def is_active(name: str) -> bool:
    return name in ACTIVE


@contextmanager
def enabled(name: str | None):
    """Scope one mutant to a ``with`` block (None = no mutant, so call
    sites can pass an optional name through unconditionally)."""
    if name is None:
        yield
        return
    enable(name)
    try:
        yield
    finally:
        disable(name)
