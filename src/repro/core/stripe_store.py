"""Contiguous stripe storage for parity buckets.

A parity bucket holds one parity symbol array per record group (rank).
:class:`StripeStore` packs them all into one ``(rows x width)`` symbol
matrix with a rank→row map: each rank's parity lives in a row slice,
zero-padded to the store width (the paper's padding rule makes the
padding semantically free).  Dumps, signature scans and block folds then
run as single 2D passes instead of walking one array per record.

The matrix grows geometrically in both dimensions.  Growth reallocates
it, so a row view is only good until the next ``ensure`` /
``scatter_xor`` / ``bulk_load``: callers fetch a view (:meth:`view`),
use it and let it go — nothing caches one.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF


class StripeStore:
    """One contiguous (rows x width) symbol matrix, addressed by rank."""

    __slots__ = ("field", "matrix", "_row_of", "_length", "_free")

    def __init__(self, field: GF, rows: int = 0, width: int = 0):
        if field.width < 8:
            # Sub-byte symbols would make row slices non-byte-aligned in
            # row_bytes; the file configs only use GF(2^8)/GF(2^16).
            raise ValueError("StripeStore requires a whole-byte symbol field")
        self.field = field
        self.matrix = np.zeros((rows, width), dtype=field.symbol_dtype)
        self._row_of: dict[int, int] = {}
        self._length: dict[int, int] = {}
        self._free: list[int] = list(range(rows - 1, -1, -1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, rank: int) -> bool:
        return rank in self._row_of

    def ranks(self) -> list[int]:
        """Stored ranks in insertion-independent sorted order."""
        return sorted(self._row_of)

    def length_of(self, rank: int) -> int:
        """Logical symbol length of one rank's stripe."""
        return self._length[rank]

    @property
    def width(self) -> int:
        return int(self.matrix.shape[1])

    # ------------------------------------------------------------------
    def view(self, rank: int) -> np.ndarray:
        """Logical-length view of one rank's row (writes hit the store)."""
        return self.matrix[self._row_of[rank], : self._length[rank]]

    def _reserve(self, width: int, fresh: int) -> None:
        """Grow the matrix to ``width`` columns and ``fresh`` free rows."""
        if width > self.width:
            new_width = max(8, self.width)
            while new_width < width:
                new_width *= 2
            wider = np.zeros(
                (self.matrix.shape[0], new_width), dtype=self.field.symbol_dtype
            )
            wider[:, : self.width] = self.matrix
            self.matrix = wider
        if fresh > len(self._free):
            old_rows = self.matrix.shape[0]
            new_rows = max(8, 2 * old_rows)
            while new_rows - old_rows + len(self._free) < fresh:
                new_rows *= 2
            taller = np.zeros(
                (new_rows, self.width), dtype=self.field.symbol_dtype
            )
            taller[:old_rows] = self.matrix
            self.matrix = taller
            self._free.extend(range(new_rows - 1, old_rows - 1, -1))

    def ensure(self, rank: int, length: int) -> np.ndarray:
        """Make ``rank`` exist with at least ``length`` logical symbols;
        returns its :meth:`view`."""
        row = self._row_of.get(rank)
        if length > self.matrix.shape[1] or (row is None and not self._free):
            self._reserve(length, 1 if row is None else 0)
        if row is None:
            row = self._row_of[rank] = self._free.pop()
            self._length[rank] = length
        elif length > self._length[rank]:
            self._length[rank] = length
        else:
            length = self._length[rank]
        return self.matrix[row, :length]

    def scatter_xor(
        self, ranks: list[int], lengths: list[int], rows: np.ndarray
    ) -> None:
        """Fold one pre-scaled Δ row per rank in a single scatter.

        ``rows`` is a ``(len(ranks) x W)`` matrix whose row *i* is
        XOR-folded into ``ranks[i]``'s stripe; ``lengths[i]`` is that
        row's logical symbol length (rows are zero-padded beyond it, so
        folding the full width is semantically the same as folding the
        logical prefix).  Ranks must be distinct — duplicate ranks in a
        fancy-index scatter would silently drop all but one fold.

        Equivalent to ``ensure`` + ``view`` + per-row XOR, with at most
        one reallocation per dimension for the whole batch.
        """
        width = int(rows.shape[1])
        row_of, length_of = self._row_of, self._length
        fresh_ranks = [r for r in ranks if r not in row_of]
        if width > self.width or len(fresh_ranks) > len(self._free):
            self._reserve(width, len(fresh_ranks))
        for rank in fresh_ranks:
            row_of[rank] = self._free.pop()
            length_of[rank] = 0
        for rank, length in zip(ranks, lengths):
            if length > length_of[rank]:
                length_of[rank] = length
        targets = [row_of[rank] for rank in ranks]
        self.matrix[targets, :width] ^= rows

    def release(self, rank: int) -> None:
        """Drop a rank; its row is zeroed and recycled."""
        row = self._row_of.pop(rank)
        self._length.pop(rank)
        self.matrix[row] = 0
        self._free.append(row)

    # ------------------------------------------------------------------
    # bulk views (what dumps and signature scans ride on)
    # ------------------------------------------------------------------
    def stacked(self) -> tuple[list[int], np.ndarray]:
        """``(ranks, matrix)`` with one full-width row per stored rank.

        The matrix is a single fancy-index gather — one allocation for
        the whole bucket, in rank order.
        """
        ranks = self.ranks()
        rows = [self._row_of[rank] for rank in ranks]
        return ranks, self.matrix[rows, :]

    def row_bytes(self) -> dict[int, bytes]:
        """Per-rank parity payloads rendered from one contiguous pass.

        The whole store is converted to bytes once; each rank's payload
        is then a cheap slice of that blob, trimmed to its logical
        (symbol-aligned) length.
        """
        ranks, matrix = self.stacked()
        if not ranks:
            return {}
        blob = self.field.bytes_from_symbols(matrix.reshape(-1))
        stride = self.width * matrix.dtype.itemsize
        out: dict[int, bytes] = {}
        for i, rank in enumerate(ranks):
            nbytes = self._length[rank] * matrix.dtype.itemsize
            out[rank] = blob[i * stride : i * stride + nbytes]
        return out

    def bulk_load(self, items: list[tuple[int, bytes]]) -> None:
        """Replace the store content with ``(rank, payload)`` pairs.

        Packs every payload in one :meth:`GF.stack_payloads` pass —
        the fast path for ``parity.load`` (spare installation, snapshot
        restore).
        """
        lengths = [self.field.symbol_length_for_bytes(len(p)) for _, p in items]
        width = max(lengths, default=0)
        packed = self.field.stack_payloads([p for _, p in items], width)
        if not packed.flags.writeable:
            # stack_payloads may alias the (immutable) joined input
            # bytes; the store matrix is written in place by later folds.
            packed = packed.copy()
        self.matrix = packed
        self._row_of = {rank: i for i, (rank, _) in enumerate(items)}
        self._length = {
            rank: length for (rank, _), length in zip(items, lengths)
        }
        self._free = []

    def nbytes(self) -> int:
        """Logical payload bytes held (excludes padding and free rows)."""
        itemsize = self.matrix.dtype.itemsize
        return sum(self._length.values()) * itemsize

    def __repr__(self) -> str:
        return (
            f"StripeStore({len(self)} ranks, "
            f"{self.matrix.shape[0]}x{self.width} {self.matrix.dtype})"
        )
