"""Contiguous, columnar storage for a parity bucket's records.

A parity record is a fixed-shape row — rank *r*, the group's member keys
*c₁…c_m* with their payload lengths, one parity field.
:class:`StripeStore` holds all of a bucket's records as the rows of a few
arrays that grow and free together, with a rank→row map as the only
index: ``matrix`` (one zero-padded parity stripe per row; the paper's
padding rule makes the padding semantically free), ``dir_keys`` and
``dir_lengths`` (one cell per group position), ``rank_of`` and
``extents`` (one cell per row).  Signature scans and block folds run as
single 2D passes, and a checkpoint image *is* these columns
(:meth:`StripeStore.image`): nothing is transposed to write it.  A
``parity.dump`` ships a copy of the used rows in the same form
(:meth:`StripeStore.dump`), which recovery decodes as arrays and
``parity.load`` installs through :meth:`StripeStore.load_image`.

The arrays grow geometrically.  Growth reallocates them, so a row view
or a cell accessor is only good until the next ``ensure`` /
``scatter_xor`` / ``bulk_load``: callers fetch one, use it and let it go
— nothing caches one.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.gf.field import GF

#: ``dir_keys`` cell of a position whose key is not known (or that holds
#: no member); member keys are the signed 64-bit integers above it
NO_KEY, KEY_LIMIT = -(1 << 63), 1 << 63
#: ``dir_lengths`` cell of a position that holds no member
ABSENT = -1

_CELL = np.dtype(np.int64)


def _members(cells: list[int], blank: int) -> dict[int, int]:
    """``{position: value}`` over the occupied cells of a directory row."""
    if blank not in cells:
        return dict(enumerate(cells))
    return {pos: cell for pos, cell in enumerate(cells) if cell != blank}


def _fit(need: int, have: int) -> int:
    """``have`` if it holds ``need``, else the next power of two up."""
    return have if need <= have else max(8, 1 << (need - 1).bit_length())


class StripeStore:
    """A parity bucket's records as rows of contiguous columns.

    Iterates, sizes and tests membership over the stored ranks, in the
    order they arrived; :meth:`snapshot` is the one per-record form.
    ``slots`` is the number of group positions a row's directory covers
    (0: stripes only).  Scalar directory access goes
    through ``key_cells`` / ``length_cells``, flat accessors whose cell
    ``row * slots + pos`` is ``dir_keys[row, pos]`` /
    ``dir_lengths[row, pos]`` at the cost of a dict store.
    """

    __slots__ = (
        "field", "slots", "matrix", "rank_of", "extents", "dir_keys",
        "dir_lengths", "key_cells", "length_cells", "_extent", "_row_of",
        "_free", "_top",
    )

    def __init__(self, field: GF, slots: int = 0):
        if field.width < 8:
            # GF(2^4) has no byte payload form (GF.symbols_from_bytes)
            raise ValueError("StripeStore requires a whole-byte symbol field")
        self.field = field
        self.slots = slots
        self._adopt(np.zeros((0, 0), dtype=field.symbol_dtype), *self._blank(0))

    def _blank(self, rows: int) -> tuple[np.ndarray, ...]:
        """``(rank_of, extents, dir_keys, dir_lengths)`` of free rows."""
        return (
            np.full(rows, -1, dtype=_CELL),
            np.zeros(rows, dtype=_CELL),
            np.full((rows, self.slots), NO_KEY, dtype=_CELL),
            np.full((rows, self.slots), ABSENT, dtype=_CELL),
        )

    def _bind(self, matrix, rank_of, extents, dir_keys, dir_lengths) -> None:
        """Take (re)allocated columns and make their scalar accessors."""
        self.matrix, self.rank_of, self.extents = matrix, rank_of, extents
        self.dir_keys, self.dir_lengths = dir_keys, dir_lengths
        self._extent = memoryview(extents)
        self.key_cells = memoryview(dir_keys.reshape(-1))
        self.length_cells = memoryview(dir_lengths.reshape(-1))

    def _adopt(self, matrix, rank_of, *columns) -> None:
        """Replace the content: every row is in use but those whose
        ``rank_of`` is -1, which are free."""
        self._bind(matrix, rank_of, *columns)
        used = np.flatnonzero(rank_of >= 0)
        self._row_of: dict[int, int] = dict(
            zip(rank_of[used].tolist(), used.tolist())
        )
        #: released rows below ``_top``, the number of rows ever handed out
        self._free: list[int] = np.flatnonzero(rank_of < 0)[::-1].tolist()
        self._top = len(rank_of)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, rank: object) -> bool:
        return rank in self._row_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._row_of)

    @property
    def width(self) -> int:
        return int(self.matrix.shape[1])

    # ------------------------------------------------------------------
    def view(self, rank: int) -> np.ndarray:
        """Logical-length view of one rank's row (writes hit the store)."""
        row = self._row_of[rank]
        return self.matrix[row, : self._extent[row]]

    def _allot(self, fresh: list[int], width: int) -> None:
        """Give each rank of ``fresh`` a blank row, growing the columns
        to hold them and stripes of ``width`` symbols."""
        rows, old_width = self.matrix.shape
        need = len(self._row_of) + len(fresh)
        if need > rows or width > old_width:
            shape = _fit(need, rows), _fit(width, old_width)
            matrix = np.zeros(shape, dtype=self.matrix.dtype)
            matrix[:rows, :old_width] = self.matrix
            columns = self._blank(shape[0])
            for new, old in zip(columns, (
                self.rank_of, self.extents, self.dir_keys, self.dir_lengths
            )):
                new[:rows] = old
            self._bind(matrix, *columns)
        for rank in fresh:
            if rank < 0:  # -1 marks a free row
                raise ValueError("ranks are non-negative")
            if self._free:
                row = self._free.pop()
            else:
                row = self._top
                self._top += 1
            self._row_of[rank] = row
            self.rank_of[row] = rank

    def ensure(self, rank: int, length: int) -> np.ndarray:
        """Make ``rank`` exist with at least ``length`` logical symbols;
        returns its :meth:`view`."""
        row = self._row_of.get(rank)
        if row is None or length > self.matrix.shape[1]:
            self._allot([rank] if row is None else [], length)
            row = self._row_of[rank]
        if length > self._extent[row]:
            self._extent[row] = length
        else:
            length = self._extent[row]
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
        one reallocation for the whole batch.
        """
        width = int(rows.shape[1])
        row_of = self._row_of
        self._allot([rank for rank in ranks if rank not in row_of], width)
        extent = self._extent
        targets = [row_of[rank] for rank in ranks]
        for row, length in zip(targets, lengths):
            if length > extent[row]:
                extent[row] = length
        self.matrix[targets, :width] ^= rows

    def release(self, rank: int) -> None:
        """Drop a rank; its row is blanked in every column and recycled."""
        row = self._row_of.pop(rank)
        self.matrix[row] = 0
        self.rank_of[row], self.extents[row] = -1, 0
        self.dir_keys[row], self.dir_lengths[row] = NO_KEY, ABSENT
        self._free.append(row)

    # ------------------------------------------------------------------
    # bulk views (what dumps, signature scans and checkpoints ride on)
    # ------------------------------------------------------------------
    def stacked(self) -> tuple[list[int], np.ndarray]:
        """``(ranks, matrix)`` with one full-width row per stored rank.

        The matrix is a single fancy-index gather — one allocation for
        the whole bucket, in rank order.
        """
        ranks = sorted(self._row_of)
        rows = [self._row_of[rank] for rank in ranks]
        return ranks, self.matrix[rows, :]

    def snapshot(self, rank: int) -> dict:
        """One record read from its row: ``{rank, keys, lengths, parity}``,
        the directory as ``{position: value}`` over the occupied cells —
        what ``parity.rank`` replies with and a degraded read decodes."""
        row, slots = self._row_of[rank], self.slots
        cells = slice(row * slots, (row + 1) * slots)
        return {
            "rank": rank,
            "keys": _members(self.key_cells[cells].tolist(), NO_KEY),
            "lengths": _members(self.length_cells[cells].tolist(), ABSENT),
            "parity": self.field.bytes_from_symbols(self.view(rank)),
        }

    def keys_of(self, rank: int) -> list[int]:
        """``rank``'s key directory row, one cell per group position
        (``NO_KEY`` where none is known)."""
        first = self._row_of[rank] * self.slots
        return self.key_cells[first : first + self.slots].tolist()

    def locations(self) -> dict[int, tuple[int, int]]:
        """``{key: (rank, pos)}`` over every known member key."""
        rows, positions = np.nonzero(self.dir_keys != NO_KEY)
        return dict(zip(
            self.dir_keys[rows, positions].tolist(),
            zip(self.rank_of[rows].tolist(), positions.tolist()),
        ))

    def bulk_load(self, items: list[tuple[int, bytes]]) -> None:
        """Replace the store content with ``(rank, payload)`` pairs, one
        row each in the order given, their directory rows blank.

        Packs every payload in one :meth:`GF.stack_payloads` pass (what
        turns a pre-image backup's per-record parity into a store).
        """
        lengths = [self.field.symbol_length_for_bytes(len(p)) for _, p in items]
        width = max(lengths, default=0)
        packed = self.field.stack_payloads([p for _, p in items], width)
        if not packed.flags.writeable:
            # stack_payloads may alias the (immutable) joined input
            # bytes; the store matrix is written in place by later folds.
            packed = packed.copy()
        rank_of, extents, *directory = self._blank(len(items))
        rank_of[:] = [rank for rank, _ in items]
        extents[:] = lengths
        self._adopt(packed, rank_of, extents, *directory)

    def image(self) -> dict:
        """Every row handed out, free ones included, as it stands: what a
        checkpoint writes.  The arrays are views of the live store —
        encode them before the next mutation.  :meth:`load_image` is the
        inverse."""
        return self._image(slice(self._top), np.ndarray.view)

    def dump(self) -> dict:
        """A copy of :meth:`image`'s used rows, the integer columns as
        lists: the same form, as ``parity.dump`` ships it and a backup
        keeps it."""
        rows = (self.rank_of >= 0).nonzero()[0] if self._free else slice(self._top)
        return self._image(rows, np.ndarray.tolist)

    def _image(self, rows, column) -> dict:
        return {
            "slots": self.slots,
            "width": self.width,
            "rank_of": column(self.rank_of[rows]),
            "extents": column(self.extents[rows]),
            "matrix": self.field.bytes_from_symbols(self.matrix[rows].reshape(-1)),
            "dir_keys": column(self.dir_keys[rows].reshape(-1)),
            "dir_lengths": column(self.dir_lengths[rows].reshape(-1)),
        }

    def load_image(self, image: dict) -> None:
        """Replace the store content with an :meth:`image` or a
        :meth:`dump` (integer columns as arrays or lists); rows keep
        their numbers."""
        rank_of = np.array(image["rank_of"], dtype=_CELL)
        shape = len(rank_of), image["slots"]
        self.slots = image["slots"]
        matrix = self.field.symbols_from_bytes(image["matrix"])
        self._adopt(
            matrix.reshape(len(rank_of), image["width"]),
            rank_of,
            np.array(image["extents"], dtype=_CELL),
            np.array(image["dir_keys"], dtype=_CELL).reshape(shape),
            np.array(image["dir_lengths"], dtype=_CELL).reshape(shape),
        )

    def nbytes(self) -> int:
        """Logical payload bytes held (excludes padding and free rows)."""
        return int(self.extents.sum()) * self.matrix.dtype.itemsize
