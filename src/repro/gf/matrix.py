"""Dense matrices over GF(2^w).

The RS generator construction, the per-failure-pattern decode matrices,
and the MDS verification all live on top of this module.  Matrices are
small (m+k is at most a few dozen), so clarity wins over asymptotics:
multiplication and Gauss-Jordan inversion are written directly against the
field's scalar ops, with numpy holding the element grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.gf.field import GF


class GFMatrix:
    """An immutable-by-convention dense matrix over a :class:`GF`."""

    __slots__ = ("field", "data")

    def __init__(
        self, field: GF, data: "Sequence[Sequence[int]] | npt.NDArray[Any]"
    ) -> None:
        self.field = field
        array = np.array(data, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError("GFMatrix requires a 2-D element grid")
        if array.size and (array.min() < 0 or array.max() >= field.order):
            raise ValueError(f"matrix entries outside GF(2^{field.width})")
        self.data = array

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, field: GF, n: int) -> "GFMatrix":
        """The n x n identity matrix."""
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "GFMatrix":
        """The all-zero rows x cols matrix."""
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def vandermonde(cls, field: GF, rows: int, cols: int) -> "GFMatrix":
        """Vandermonde matrix V[i][j] = x_i^j with x_i = i.

        Any ``cols`` rows are linearly independent as long as the x_i are
        distinct, which holds for rows <= field order.
        """
        if rows > field.order:
            raise ValueError("not enough distinct field elements for rows")
        grid = [[field.pow(i, j) for j in range(cols)] for i in range(rows)]
        return cls(field, grid)

    @classmethod
    def cauchy(cls, field: GF, xs: Sequence[int], ys: Sequence[int]) -> "GFMatrix":
        """Cauchy matrix C[i][j] = 1 / (x_i + y_j).

        Requires the x_i distinct, the y_j distinct, and x_i != y_j for all
        pairs (in characteristic 2, x + y = 0 iff x = y).  Every square
        submatrix of a Cauchy matrix is nonsingular — the property LH*RS
        needs from its parity coefficients.
        """
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise ValueError("Cauchy points must be distinct within xs and ys")
        if set(xs) & set(ys):
            raise ValueError("Cauchy xs and ys must not intersect")
        grid = [[field.inv(field.add(x, y)) for y in ys] for x in xs]
        return cls(field, grid)

    # ------------------------------------------------------------------
    # shape and access
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def cols(self) -> int:
        return int(self.data.shape[1])

    def __getitem__(self, index: Any) -> "int | GFMatrix":
        value = self.data[index]
        if np.isscalar(value) or value.ndim == 0:
            return int(value)
        return GFMatrix(self.field, np.atleast_2d(value))

    def row(self, i: int) -> list[int]:
        """Row ``i`` as a list of ints."""
        return [int(v) for v in self.data[i]]

    def col(self, j: int) -> list[int]:
        """Column ``j`` as a list of ints."""
        return [int(v) for v in self.data[:, j]]

    def take_rows(self, indices: Sequence[int]) -> "GFMatrix":
        """New matrix made of the given rows, in the given order."""
        return GFMatrix(self.field, self.data[list(indices), :])

    def take_cols(self, indices: Sequence[int]) -> "GFMatrix":
        """New matrix made of the given columns, in the given order."""
        return GFMatrix(self.field, self.data[:, list(indices)])

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        """Concatenate columns: ``[self | other]``."""
        self._check_field(other)
        return GFMatrix(self.field, np.hstack([self.data, other.data]))

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.field, self.data.T)

    def copy(self) -> "GFMatrix":
        return GFMatrix(self.field, self.data.copy())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_field(self, other: "GFMatrix") -> None:
        if other.field != self.field:
            raise ValueError("matrices belong to different fields")

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_field(other)
        if self.data.shape != other.data.shape:
            raise ValueError("shape mismatch in GF matrix addition")
        return GFMatrix(self.field, self.data ^ other.data)

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ "
                f"({other.rows}x{other.cols})"
            )
        f = self.field
        out = np.zeros((self.rows, other.cols), dtype=np.int64)
        for i in range(self.rows):
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc ^= f.mul(int(self.data[i, t]), int(other.data[t, j]))
                out[i, j] = acc
        return GFMatrix(f, out)

    def mul_vector(self, vector: Sequence[int]) -> list[int]:
        """Matrix-vector product over the field."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        f = self.field
        out: list[int] = []
        for i in range(self.rows):
            acc = 0
            for t in range(self.cols):
                acc ^= f.mul(int(self.data[i, t]), int(vector[t]))
            out.append(acc)
        return out

    def scale_row(self, i: int, scalar: int) -> "GFMatrix":
        """New matrix with row i multiplied by a nonzero scalar."""
        if scalar == 0:
            raise ValueError("row scaling by zero destroys rank")
        grid = self.data.copy()
        f = self.field
        grid[i] = [f.mul(int(v), scalar) for v in grid[i]]
        return GFMatrix(f, grid)

    def scale_col(self, j: int, scalar: int) -> "GFMatrix":
        """New matrix with column j multiplied by a nonzero scalar."""
        if scalar == 0:
            raise ValueError("column scaling by zero destroys rank")
        grid = self.data.copy()
        f = self.field
        grid[:, j] = [f.mul(int(v), scalar) for v in grid[:, j]]
        return GFMatrix(f, grid)

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------
    def inverse(self) -> "GFMatrix":
        """Gauss-Jordan inverse; raises ``ValueError`` if singular."""
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        f = self.field
        n = self.rows
        a = self.data.copy()
        inv = np.eye(n, dtype=np.int64)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r, col]), None)
            if pivot is None:
                raise ValueError("matrix is singular over GF(2^w)")
            if pivot != col:
                a[[col, pivot]] = a[[pivot, col]]
                inv[[col, pivot]] = inv[[pivot, col]]
            scale = f.inv(int(a[col, col]))
            for j in range(n):
                a[col, j] = f.mul(int(a[col, j]), scale)
                inv[col, j] = f.mul(int(inv[col, j]), scale)
            for r in range(n):
                if r == col or not a[r, col]:
                    continue
                factor = int(a[r, col])
                for j in range(n):
                    a[r, j] ^= f.mul(factor, int(a[col, j]))
                    inv[r, j] ^= f.mul(factor, int(inv[col, j]))
        return GFMatrix(f, inv)

    def rank(self) -> int:
        """Rank over the field via row echelon reduction."""
        f = self.field
        a = self.data.copy()
        rank = 0
        for col in range(self.cols):
            pivot = next((r for r in range(rank, self.rows) if a[r, col]), None)
            if pivot is None:
                continue
            if pivot != rank:
                a[[rank, pivot]] = a[[pivot, rank]]
            scale = f.inv(int(a[rank, col]))
            a[rank] = [f.mul(int(v), scale) for v in a[rank]]
            for r in range(self.rows):
                if r == rank or not a[r, col]:
                    continue
                factor = int(a[r, col])
                for j in range(self.cols):
                    a[r, j] ^= f.mul(factor, int(a[rank, j]))
            rank += 1
            if rank == self.rows:
                break
        return rank

    def is_nonsingular(self) -> bool:
        """True iff square and full-rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def systematize(self) -> "GFMatrix":
        """Column-reduce so the top square block becomes the identity.

        For a tall ``(m+k) x m`` Vandermonde this yields a systematic MDS
        generator whose bottom ``k x m`` block is the parity submatrix.
        """
        if self.rows < self.cols:
            raise ValueError("systematize expects rows >= cols")
        f = self.field
        a = self.data.copy()
        n = self.cols
        for col in range(n):
            pivot = next((c for c in range(col, n) if a[col, c]), None)
            if pivot is None:
                raise ValueError("top block is singular; cannot systematize")
            if pivot != col:
                a[:, [col, pivot]] = a[:, [pivot, col]]
            scale = f.inv(int(a[col, col]))
            a[:, col] = [f.mul(int(v), scale) for v in a[:, col]]
            for c in range(n):
                if c == col or not a[col, c]:
                    continue
                factor = int(a[col, c])
                for r in range(self.rows):
                    a[r, c] ^= f.mul(factor, int(a[r, col]))
        return GFMatrix(f, a)

    # ------------------------------------------------------------------
    # MDS verification
    # ------------------------------------------------------------------
    def all_square_submatrices_nonsingular(self) -> bool:
        """Exhaustively verify every square submatrix is nonsingular.

        This is the defining property of an LH*RS parity matrix: it makes
        [I | P^T] MDS, i.e. any k losses recoverable.  Exponential in the
        matrix size — use on the small parity matrices only (tests do).
        """
        from itertools import combinations

        for size in range(1, min(self.rows, self.cols) + 1):
            for rsel in combinations(range(self.rows), size):
                for csel in combinations(range(self.cols), size):
                    if not self.take_rows(rsel).take_cols(csel).is_nonsingular():
                        return False
        return True

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GFMatrix)
            and other.field == self.field
            and other.data.shape == self.data.shape
            and bool((other.data == self.data).all())
        )

    def __hash__(self) -> int:  # pragma: no cover - matrices rarely hashed
        return hash((self.field, self.data.tobytes(), self.data.shape))

    def __repr__(self) -> str:
        return f"GFMatrix({self.field!r}, {self.data.tolist()!r})"
