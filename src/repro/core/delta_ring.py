"""The ring of applied Δs a durable parity bucket keeps per channel.

A restarted data bucket asks its parity buckets which Δs it issued past
its durable prefix (``delta.tail``); each answers from the
:class:`DeltaRing` of that group position.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.durable import DELTA_LOG_CAPACITY

#: what a Δ may do to a record group's directory
ACTIONS = ("insert", "update", "delete")


class DeltaRing:
    """The last ``DELTA_LOG_CAPACITY`` Δs of one channel, oldest first.

    Iterates as ``(seq, action, key, rank)`` descriptors but is held as
    three integer columns — the action (as its index in
    :data:`ACTIONS`), the key, the rank; the rows of one array — and the
    sequence number of the oldest: a channel applies its Δs in sequence,
    so the numbers of a ring are consecutive (a run that does not follow
    on starts the ring afresh: what came before it can serve no tail).
    The live Δs are the window ``start:end``, which slides right as Δs
    arrive.  When it reaches the end, the live Δs move to the front of
    a fresh array — twice as long while the ring fills, then twice the
    ring, so a move is paid once per ``DELTA_LOG_CAPACITY`` Δs.  A
    checkpoint writes :meth:`columns` as they stand instead of
    transposing a thousand tuples.
    """

    __slots__ = ("cells", "start", "end", "_base", "_cell")

    def __init__(self, first: int = 1, columns: Sequence[Sequence[int]] = ((),) * 3):
        self.start, self.end = 0, len(columns[0])
        #: cell ``i`` holds the Δ of sequence number ``_base + i``
        self._base = first
        self._allocate(np.array(columns, dtype=np.int64), 0)

    def _allocate(self, live: np.ndarray, room: int) -> None:
        """A fresh array led by ``live`` with ``room`` cells to spare."""
        span = min(2 * DELTA_LOG_CAPACITY, max(16, 2 * (live.shape[1] + room)))
        self.cells = np.zeros((3, span), dtype=np.int64)
        self.cells[:, : live.shape[1]] = live
        self._cell = memoryview(self.cells.reshape(-1))

    @property
    def first(self) -> int:
        """Sequence number of the oldest Δ held (of the next, if none)."""
        return self._base + self.start

    def extend(
        self, seq0: int, action: str, keys: list[int], ranks: list[int]
    ) -> None:
        """Record one applied run: seqs ``seq0``, ``seq0 + 1``, ..."""
        capacity, end = DELTA_LOG_CAPACITY, self.end
        skip = len(keys) - capacity
        if skip > 0:  # a run longer than the ring displaces all of it
            seq0, keys, ranks = seq0 + skip, keys[skip:], ranks[skip:]
        if skip > 0 or seq0 != self._base + end:
            self.start, self._base = end, seq0 - end  # afresh from here
        if end + len(keys) > self.cells.shape[1]:
            live = self.cells[:, max(self.start, end - capacity) : end]
            self._base += end - live.shape[1]
            self.start, end = 0, live.shape[1]
            self._allocate(live, len(keys))
        cell, span, code = self._cell, self.cells.shape[1], ACTIONS.index(action)
        for key, rank in zip(keys, ranks):
            cell[end], cell[span + end], cell[2 * span + end] = code, key, rank
            end += 1
        self.end = end
        self.start = max(self.start, end - capacity)

    def columns(self) -> np.ndarray:
        """``(codes, keys, ranks)`` as views of the live window."""
        return self.cells[:, self.start : self.end]

    def __iter__(self) -> Iterator[tuple[int, str, int, int]]:
        codes, keys, ranks = self.columns().tolist()
        return zip(
            range(self.first, self.first + len(keys)),
            map(ACTIONS.__getitem__, codes), keys, ranks,
        )
