"""The GF(2^w) field object: scalar and vectorized payload arithmetic.

Record payloads in LH*RS are byte strings.  The RS calculus views a payload
as a vector of field symbols: one byte per symbol for GF(2^8), two bytes
(little-endian) for GF(2^16).  GF(2^4) has arithmetic only: no payload
converts to nibble symbols, and its byte methods raise.  All
per-payload operations run in C, once per record, as in the paper's C
codec: at w = 8 a constant multiply is a 256-byte ``bytes.translate``
table, at w = 16 a gather through the zero-safe log/exp tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.gf.tables import PRIMITIVE_POLYNOMIALS, build_mul_tables, build_tables

#: Symbol arrays carry uint8 or uint16 elements depending on the field
#: width; the dtype is a per-instance property, so the static type stays
#: width-generic.
Symbols = npt.NDArray[Any]

_SYMBOL_DTYPES: dict[int, type[np.generic]] = {
    4: np.uint8, 8: np.uint8, 16: np.uint16,
}
#: a dtype object: ``np.frombuffer`` converts a scalar type on every call
_BYTE = np.dtype(np.uint8)


class GF:
    """Finite field GF(2^width) for width in {4, 8, 16}.

    Instances are cheap, stateless beyond cached tables, and safe to share.
    Elements are plain Python ints (or numpy integer arrays) in
    ``[0, 2^width)``.  Byte payloads convert only at width 8 and 16.
    """

    __slots__ = (
        "width", "order", "group_order", "_exp", "_log",
        "_exp_mul", "_log_mul", "_mul_rows", "_byte_rows",
    )

    def __init__(self, width: int = 8) -> None:
        if width not in PRIMITIVE_POLYNOMIALS:
            raise ValueError(
                f"unsupported field width {width!r}; supported: "
                f"{sorted(PRIMITIVE_POLYNOMIALS)}"
            )
        self.width = width
        self.order = 1 << width
        self.group_order = self.order - 1
        self._exp, self._log = build_tables(width)
        self._exp_mul, self._log_mul = build_mul_tables(width)
        # Per-scalar full multiplication rows (lazy), as arrays and as
        # bytes: only for small fields, where a row is 16 or 256 entries.
        self._mul_rows: dict[int, Symbols] = {}
        self._byte_rows: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # scalar arithmetic
    # ------------------------------------------------------------------
    def check(self, a: int) -> int:
        """Validate that ``a`` is a field element and return it."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.width})")
        return a

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR); identical to subtraction."""
        return self.check(a) ^ self.check(b)

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        self.check(a)
        self.check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises ``ZeroDivisionError`` on b=0."""
        self.check(a)
        self.check(b)
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^w)")
        if a == 0:
            return 0
        return int(self._exp[self._log[a] - self._log[b] + self.group_order])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ``ZeroDivisionError`` on a=0."""
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^w)")
        return int(self._exp[self.group_order - self._log[a]])

    def pow(self, a: int, e: int) -> int:
        """``a`` raised to integer power ``e`` (e may be negative)."""
        self.check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers in GF(2^w)")
            return 0 if e else 1
        return int(self._exp[(self._log[a] * e) % self.group_order])

    def exp(self, e: int) -> int:
        """``alpha^e`` for the field generator alpha."""
        return int(self._exp[e % self.group_order])

    def log(self, a: int) -> int:
        """Discrete log base alpha; raises on a=0."""
        self.check(a)
        if a == 0:
            raise ValueError("log(0) is undefined in GF(2^w)")
        return int(self._log[a])

    # ------------------------------------------------------------------
    # vectorized symbol arithmetic
    # ------------------------------------------------------------------
    @property
    def symbol_dtype(self) -> type[np.generic]:
        """numpy dtype used for symbol arrays of this field."""
        return _SYMBOL_DTYPES[self.width]

    def mul_row(self, scalar: int) -> Symbols:
        """Full product row ``[scalar * x for x in field]`` (w <= 8 only),
        cached per scalar: what the byte tables are built from.
        """
        self.check(scalar)
        if self.width > 8:
            raise ValueError("mul_row is only sensible for widths <= 8")
        row = self._mul_rows.get(scalar)
        if row is None:
            xs = np.arange(self.order, dtype=np.int64)
            row = self._mul_symbols_log(xs, scalar).astype(self.symbol_dtype)
            self._mul_rows[scalar] = row
        return row

    def byte_row(self, scalar: int) -> bytes:
        """:meth:`mul_row` as a ``bytes.translate`` table, cached per
        scalar: the GF(2^8) constant multiply."""
        row = self._byte_rows.get(scalar)
        if row is None:
            row = self._byte_rows[scalar] = self.mul_row(scalar).tobytes()
        return row

    def _mul_symbols_log(self, symbols: Symbols, scalar: int) -> Symbols:
        """Multiply a symbol array by a scalar via log tables (any width)."""
        if scalar == 0:
            return np.zeros_like(symbols)
        # log[0] is a huge sentinel; substitute 0 to keep indexing in
        # bounds, then mask products of zero inputs back to zero.
        safe = np.where(symbols == 0, 0, self._log[symbols])
        out = self._exp[safe + self._log[scalar]]
        return np.where(symbols == 0, 0, out)

    def mul_symbols(self, symbols: npt.ArrayLike, scalar: int) -> Symbols:
        """Return ``scalar * symbols`` as a new symbol-dtype array.

        Works on arrays of any shape; GF(2^8) translates the bytes through
        :meth:`byte_row`, wider fields use the zero-safe table layout from
        :func:`~repro.gf.tables.build_mul_tables`: a single
        ``exp_mul[log_mul[x] + log_mul[s]]`` gather, no masking passes.
        """
        self.check(scalar)
        symbols = np.asarray(symbols)
        if scalar == 0:
            return np.zeros(symbols.shape, dtype=self.symbol_dtype)
        if scalar == 1:
            return symbols.astype(self.symbol_dtype, copy=True)
        if self.width == 8:
            # a bytearray's translate keeps the result writable
            raw = bytearray(np.ascontiguousarray(symbols, dtype=_BYTE).data)
            out = np.frombuffer(raw.translate(self.byte_row(scalar)), _BYTE)
            return out.reshape(symbols.shape)
        if self.width < 8:
            return self.mul_row(scalar)[symbols]
        return self._exp_mul[self._log_mul[symbols] + self._log_mul[scalar]]

    def mul_matrix(self, symbols_2d: npt.ArrayLike, scalar: int) -> Symbols:
        """``scalar * symbols_2d`` for a stacked (rows x length) matrix.

        The batch counterpart of :meth:`mul_symbols`: one table gather
        covers every row, so the per-call dispatch cost is paid once per
        *matrix*, not once per record.
        """
        symbols_2d = np.asarray(symbols_2d)
        if symbols_2d.ndim != 2:
            raise ValueError("mul_matrix expects a 2-D (rows x length) matrix")
        return self.mul_symbols(symbols_2d, scalar)

    def mul_arrays(self, a: npt.ArrayLike, b: npt.ArrayLike) -> Symbols:
        """Elementwise field product of two symbol arrays (any shape).

        Enabled by the zero-safe table layout: one gather handles zeros
        in either operand.  Used by the vectorized signature scans.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        return self._exp_mul[self._log_mul[a] + self._log_mul[b]]

    def gf_matmul(self, coefficients: Any, stacked: npt.ArrayLike) -> Symbols:
        """Multiply a coefficient matrix against a stacked share tensor.

        ``coefficients`` is an (r x c) grid of field scalars (a nested
        list, numpy array, or a :class:`~repro.gf.matrix.GFMatrix`'s
        ``.data``); ``stacked`` is a (c, ...) symbol tensor whose leading
        axis indexes shares — typically ``(c, nranks, L)`` with one row
        per record group — or a list of the c equal-shape shares, which
        spares stacking them into one.  Returns the (r, ...) tensor

            ``out[i] = XOR_j coefficients[i][j] * stacked[j]``

        computed with one table gather + XOR per *coefficient* instead of
        per record: the 2D batch kernel every bulk encode/decode path
        rides on.  Zero coefficients are skipped and unit coefficients
        degrade to plain XOR, so the normalized generator's XOR row stays
        a pure-XOR pass.
        """
        coeff = np.asarray(
            getattr(coefficients, "data", coefficients), dtype=np.int64
        )
        if coeff.ndim != 2:
            raise ValueError("gf_matmul expects a 2-D coefficient matrix")
        if isinstance(stacked, list):
            stacked = [np.asarray(s, dtype=self.symbol_dtype) for s in stacked]
            shape = stacked[0].shape if stacked else ()
        else:
            stacked = np.asarray(stacked, dtype=self.symbol_dtype)
            shape = stacked.shape[1:]
        if len(stacked) != coeff.shape[1] or any(s.shape != shape for s in stacked):
            raise ValueError(
                f"{len(stacked)} shares of one shape expected: the coefficient "
                f"matrix has {coeff.shape[1]} columns"
            )
        out = np.zeros((coeff.shape[0],) + shape, dtype=self.symbol_dtype)
        # w = 16: np.take(..., mode="clip") skips the bounds check a
        # fancy index pays (log sums stay inside the extended exp table).
        for i in range(coeff.shape[0]):
            for j in range(coeff.shape[1]):
                a = int(coeff[i, j])
                if a == 0:
                    continue
                if a == 1:
                    out[i] ^= stacked[j]
                elif self.width <= 8:
                    out[i] ^= self.mul_symbols(stacked[j], a)
                else:
                    logs = np.take(self._log_mul, stacked[j], mode="clip")
                    out[i] ^= np.take(
                        self._exp_mul, logs + int(self._log_mul[a]),
                        mode="clip",
                    )
        return out

    # ------------------------------------------------------------------
    # byte payload arithmetic (whole-byte fields only)
    # ------------------------------------------------------------------
    def _byte_width(self) -> int:
        """Bytes per symbol; only whole-byte fields carry payloads."""
        if self.width == 8:
            return 1
        if self.width == 16:
            return 2
        raise ValueError(
            f"{self!r} has no byte payload form; use GF(2^8) or GF(2^16)"
        )

    def symbols_from_bytes(
        self, data: bytes, length: int | None = None, copy: bool = True
    ) -> Symbols:
        """View ``data`` as a symbol array, zero-padded to ``length`` symbols.

        GF(2^16) payloads of odd byte length are padded with a zero byte.
        The result is a fresh array unless ``copy`` is False, which
        returns a read-only view of ``data`` where the symbols allow one.
        """
        raw = np.frombuffer(data, dtype=np.uint8)
        if self._byte_width() == 1:
            symbols = raw
        else:
            if len(raw) % 2:
                raw = np.concatenate([raw, np.zeros(1, dtype=np.uint8)])
            symbols = raw.view("<u2")
        if length is not None:
            if length < len(symbols):
                raise ValueError("target length shorter than payload")
            padded = np.zeros(length, dtype=self.symbol_dtype)
            padded[: len(symbols)] = symbols
            return padded
        return symbols.astype(self.symbol_dtype, copy=copy)

    def bytes_from_symbols(self, symbols: npt.ArrayLike, byte_length: int | None = None) -> bytes:
        """Inverse of :meth:`symbols_from_bytes`, truncated to ``byte_length``."""
        symbols = np.ascontiguousarray(symbols, dtype=self.symbol_dtype)
        if self._byte_width() == 1:
            raw = symbols.view(np.uint8)
        else:
            raw = symbols.astype("<u2").view(np.uint8)
        data = raw.tobytes()
        if byte_length is not None:
            data = data[:byte_length]
        return data

    def symbol_length_for_bytes(self, nbytes: int) -> int:
        """Number of symbols needed to carry ``nbytes`` payload bytes."""
        size = self._byte_width()
        return (nbytes + size - 1) // size

    def stack_payloads(
        self, payloads: Sequence[bytes | None], length: int
    ) -> Symbols:
        """Pack byte payloads into one (n x length) zero-padded symbol matrix.

        ``None`` (or empty) entries become all-zero rows — the padding
        rule for unoccupied group slots.  This is the packing step in
        front of every 2D kernel: one contiguous allocation for the whole
        batch instead of one array per record.  The result may be
        read-only (it can alias the joined input bytes); the kernels only
        read their stacked operands.
        """
        bytes_per_row = length * self._byte_width()
        uniform = [
            p for p in payloads
            if p is not None and len(p) == bytes_per_row
        ]
        if payloads and len(uniform) == len(payloads):
            # Uniform full-width payloads (bulk encodes of fixed-size
            # records): one join + one memcpy instead of a per-row loop.
            raw = np.frombuffer(b"".join(uniform), dtype=np.uint8).reshape(
                len(payloads), bytes_per_row
            )
        else:
            raw = np.zeros((len(payloads), bytes_per_row), dtype=np.uint8)
            for row, payload in enumerate(payloads):
                if not payload:
                    continue
                if self.symbol_length_for_bytes(len(payload)) > length:
                    raise ValueError(
                        "payload longer than the stripe symbol length"
                    )
                raw[row, : len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        return raw if self.width == 8 else raw.view("<u2")

    def scale_accumulate(self, acc: Symbols, scalar: int, data: bytes) -> None:
        """In-place ``acc ^= scalar * symbols(data)`` (the Δ-record fold).

        ``acc`` must be a symbol array at least as long as the payload.
        This is the hot inner operation of parity maintenance: one call per
        (record, parity bucket) pair.  At w = 8 ``bytes.translate`` maps the
        payload through :meth:`byte_row`; ``acc`` XORs it from its buffer.
        """
        if scalar == 0 or not data:
            return
        if self.width == 8:
            if scalar != 1:
                data = data.translate(self.byte_row(scalar))
            symbols: Symbols = np.frombuffer(data, _BYTE)
        else:
            symbols = self.symbols_from_bytes(data)
            if scalar != 1:
                symbols = self.mul_symbols(symbols, scalar)
        n = len(symbols)
        if n > len(acc):
            raise ValueError(
                f"payload of {n} symbols exceeds accumulator of {len(acc)}"
            )
        if n < len(acc):
            acc = acc[:n]
        acc ^= symbols

    def __repr__(self) -> str:
        return f"GF(2^{self.width})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.width == self.width

    def __hash__(self) -> int:
        return hash(("GF", self.width))
