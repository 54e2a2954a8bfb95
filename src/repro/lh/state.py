"""The LH* file state (n, i) and its deterministic split sequence.

The file state lives at the coordinator (bucket 0's node in LH*RS) and is
deliberately *not* shared with clients — they work from possibly stale
images (`repro.lh.image`).  Splits follow the linear-hashing order
0; 0,1; 0..3; ... with the split pointer n cycling through each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lh import addressing


@dataclass
class FileState:
    """Mutable LH* file state.

    Attributes
    ----------
    n0:
        Initial number of buckets N (LH*RS uses the bucket-group size m
        here so bucket group 0 is complete from the start).
    n:
        Split pointer — the next bucket to split.
    i:
        File level.
    """

    n0: int = 1
    n: int = 0
    i: int = 0
    splits_done: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.n0 < 1:
            raise ValueError("initial bucket count must be >= 1")

    # ------------------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Current number of buckets M = n + 2^i N."""
        return self.n + (1 << self.i) * self.n0

    def address(self, key: int) -> int:
        """Correct bucket address for ``key`` (Algorithm A1)."""
        return addressing.lh_address(key, self.n, self.i, self.n0)

    def level_of(self, m: int) -> int:
        """Bucket level j_m under the current state."""
        return addressing.bucket_level(m, self.n, self.i, self.n0)

    def buckets(self) -> range:
        """All existing bucket numbers."""
        return range(self.bucket_count)

    # ------------------------------------------------------------------
    def next_split(self) -> tuple[int, int, int]:
        """Describe (without performing) the next split.

        Returns ``(splitting_bucket, new_bucket, new_level)``: bucket n
        splits into itself and ``n + 2^i N``, both ending at level
        ``i + 1``.
        """
        source = self.n
        target = self.n + (1 << self.i) * self.n0
        return source, target, self.i + 1

    def advance_split(self) -> tuple[int, int, int]:
        """Perform the bookkeeping of one split and return its description.

        Moves the split pointer; when the pointer wraps, the file level
        increments (one doubling round is complete).
        """
        description = self.next_split()
        self.n += 1
        if self.n >= (1 << self.i) * self.n0:
            self.n = 0
            self.i += 1
        self.splits_done += 1
        return description

    def retreat_merge(self) -> tuple[int, int, int]:
        """Perform the bookkeeping of one bucket *merge* (inverse split).

        The last bucket of the file is reabsorbed by the bucket whose
        split created it.  Returns ``(source, target, level)``: bucket
        ``target`` (the current last bucket) merges back into bucket
        ``source``, whose level returns to ``level``.  Exact inverse of
        :meth:`advance_split`.
        """
        if self.n == 0 and self.i == 0:
            raise ValueError("cannot shrink below the initial buckets")
        if self.n == 0:
            self.i -= 1
            self.n = (1 << self.i) * self.n0 - 1
        else:
            self.n -= 1
        source = self.n
        target = source + (1 << self.i) * self.n0
        self.splits_done -= 1
        return source, target, self.i

    def next_merge(self) -> tuple[int, int, int]:
        """Describe (without performing) the next merge."""
        return self.copy().retreat_merge()

    def copy(self) -> "FileState":
        return FileState(n0=self.n0, n=self.n, i=self.i, splits_done=self.splits_done)

    def as_tuple(self) -> tuple[int, int]:
        """The (n, i) pair as the papers write it."""
        return self.n, self.i
