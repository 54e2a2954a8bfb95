"""High-level (m+k, m) erasure codec over byte payloads.

:class:`RSCodec` is the interface the LH*RS parity buckets and the
recovery orchestrator use, and the unit that experiment E9 benchmarks.
It hides symbol/byte conversions and padding: callers hand in byte
payloads of arbitrary (per-record) lengths and get byte payloads back.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.gf.field import GF
from repro.rs.decoder import (
    DecodeError, decode_bytes, decode_stripes, decode_symbols,
)
from repro.rs.encoder import delta_payload, encode_stripes, encode_symbols, fold_delta
from repro.rs.generator import parity_matrix


class RSCodec:
    """Systematic Reed-Solomon erasure codec with m data and k parity slots.

    Parameters
    ----------
    m:
        Number of data positions per record group (the bucket-group size).
    k:
        Number of parity positions (the availability level).
    field:
        The GF(2^w) to compute over; defaults to GF(2^8).
    kind:
        Parity matrix construction, ``"cauchy"`` (normalized, default) or
        ``"vandermonde"`` (ablation).
    """

    def __init__(self, m: int, k: int, field: GF | None = None, kind: str = "cauchy"):
        if m < 1:
            raise ValueError("m must be at least 1")
        if k < 0:
            raise ValueError("k cannot be negative")
        self.field = field or GF(8)
        self.m = m
        self.k = k
        self.kind = kind
        self.parity = parity_matrix(self.field, m, k, kind) if k else None

    # ------------------------------------------------------------------
    def coefficient(self, parity_index: int, data_index: int) -> int:
        """P[parity_index][data_index]; the Δ-fold multiplier."""
        if not 0 <= parity_index < self.k:
            raise IndexError(f"parity index {parity_index} out of range 0..{self.k - 1}")
        if not 0 <= data_index < self.m:
            raise IndexError(f"data index {data_index} out of range 0..{self.m - 1}")
        assert self.parity is not None
        return self.parity[parity_index, data_index]

    def stripe_symbol_length(self, payloads: Sequence[bytes | None]) -> int:
        """Symbols needed to carry the longest payload in the group."""
        longest = max((len(p) for p in payloads if p), default=0)
        return self.field.symbol_length_for_bytes(longest)

    # ------------------------------------------------------------------
    # whole-stripe paths
    # ------------------------------------------------------------------
    def encode(self, payloads: Sequence[bytes | None]) -> list[bytes]:
        """All k parity payloads for a group of data payloads.

        ``payloads[j]`` sits at group position j; ``None`` marks an empty
        slot (groups fill up gradually as records arrive).  Parity
        payloads all have the length of the longest data payload.
        """
        if self.k == 0:
            return []
        assert self.parity is not None
        length = self.stripe_symbol_length(payloads)
        arrays = encode_symbols(self.field, self.parity, payloads, length)
        # Parity payloads are symbol-aligned: truncating to the longest
        # data byte length would drop the tail bits of the last symbol
        # for multi-byte-symbol fields (GF(2^16)).
        return [self.field.bytes_from_symbols(a) for a in arrays]

    def recover(
        self,
        shares: dict[int, bytes],
        lost: list[int] | None = None,
        payload_lengths: dict[int, int] | None = None,
    ) -> dict[int, bytes]:
        """Rebuild lost positions from surviving byte payloads.

        Positions 0..m-1 are data, m..m+k-1 parity.  ``payload_lengths``
        optionally gives the original byte length of each lost position so
        zero-padding can be stripped (LH*RS parity records track member
        record structure for exactly this purpose).  Without one, a
        position comes back symbol-aligned to the longest share (it may
        carry the stripe's zero padding).  GF(2^8) decodes on the bytes
        (:func:`decode_bytes`), GF(2^16) on symbol arrays.
        """
        if not shares:
            raise DecodeError("no surviving shares")
        field = self.field
        if field.width == 8:
            out = decode_bytes(field, self.m, self.k, shares, lost, self.kind)
        else:
            length = field.symbol_length_for_bytes(
                max(len(p) for p in shares.values())
            )
            decoded = decode_symbols(self.field, self.m, self.k, {
                pos: field.symbols_from_bytes(data, length)
                for pos, data in shares.items()
            }, lost, self.kind)
            out = {
                pos: field.bytes_from_symbols(symbols)
                for pos, symbols in decoded.items()
            }
        if payload_lengths:
            for pos in out.keys() & payload_lengths.keys():
                out[pos] = out[pos][: payload_lengths[pos]]
        return out

    # ------------------------------------------------------------------
    # stacked-stripe batch paths (the 2D kernels)
    # ------------------------------------------------------------------
    def pack_stripes(
        self,
        groups: Sequence[Sequence[bytes | None]],
        length: int | None = None,
    ) -> np.ndarray:
        """Pack many record groups into one (m x ngroups x L) tensor.

        ``groups[r]`` is the payload sequence of the r-th record group
        (up to m entries; ``None`` marks an empty slot).  ``length``
        defaults to the longest payload's symbol length across *all*
        groups — every stripe is zero-padded to it, which the paper's
        padding rule makes exact.
        """
        if length is None:
            length = max(
                (self.stripe_symbol_length(g) for g in groups), default=0
            )
        columns = [
            self.field.stack_payloads(
                [g[j] if j < len(g) else None for g in groups], length
            )
            for j in range(self.m)
        ]
        return np.stack(columns) if columns else np.zeros(
            (0, len(groups), length), dtype=self.field.symbol_dtype
        )

    def encode_stripes(self, stacked: np.ndarray) -> np.ndarray:
        """Parity tensor (k x ngroups x L) for a packed stripe tensor."""
        if self.k == 0:
            return np.zeros(
                (0,) + np.asarray(stacked).shape[1:], dtype=self.field.symbol_dtype
            )
        assert self.parity is not None
        return encode_stripes(self.field, self.parity, stacked)

    def encode_batch(
        self, groups: Sequence[Sequence[bytes | None]]
    ) -> list[list[bytes]]:
        """All parity payloads for many groups in one kernel pass.

        Bit-exact with calling :meth:`encode` per group (each group's
        parity is trimmed back to its own stripe length), but the GF
        work is dispatched once per generator coefficient instead of
        once per record.
        """
        if self.k == 0 or not groups:
            return [[] for _ in groups]
        field = self.field
        stripes = [self.stripe_symbol_length(g) for g in groups]
        stacked = self.pack_stripes(groups, max(stripes))
        parity = self.encode_stripes(stacked)
        # Render each parity plane as one blob and slice per group
        # (symbols are whole bytes, so prefix trims are byte-aligned).
        itemsize = np.dtype(field.symbol_dtype).itemsize
        stride = parity.shape[2] * itemsize
        blobs = [
            field.bytes_from_symbols(parity[i].reshape(-1))
            for i in range(self.k)
        ]
        return [
            [
                blobs[i][r * stride : r * stride + stripes[r] * itemsize]
                for i in range(self.k)
            ]
            for r in range(len(groups))
        ]

    def recover_stripes(
        self,
        shares: dict[int, np.ndarray],
        lost: list[int] | None = None,
    ) -> dict[int, np.ndarray]:
        """Rebuild lost positions for many groups in one kernel pass.

        ``shares`` maps surviving codeword positions to stacked
        ``(ngroups, L)`` symbol matrices (see :func:`decode_stripes`);
        the result maps each lost position to its rebuilt matrix.
        """
        return decode_stripes(self.field, self.m, self.k, shares, lost, self.kind)

    # ------------------------------------------------------------------
    # incremental path (the steady-state insert/update/delete protocol)
    # ------------------------------------------------------------------
    @staticmethod
    def delta(old: bytes, new: bytes) -> bytes:
        """Δ-record payload for a change at one data position."""
        return delta_payload(old, new)

    def new_parity_accumulator(self, symbol_length: int = 0) -> np.ndarray:
        """Fresh all-zero parity symbol array (an empty group's parity)."""
        return np.zeros(symbol_length, dtype=self.field.symbol_dtype)

    def fold(
        self, acc: np.ndarray, parity_index: int, data_index: int, delta: bytes
    ) -> np.ndarray:
        """Fold a Δ-record into parity ``parity_index``'s accumulator.

        Returns the (possibly grown) accumulator.  Cost model note: the
        coefficient is 1 — pure XOR — whenever ``parity_index == 0`` or
        ``data_index == 0``, thanks to the normalized generator.
        """
        coeff = self.coefficient(parity_index, data_index)
        return fold_delta(self.field, acc, coeff, delta)

    def parity_bytes(self, acc: np.ndarray, byte_length: int) -> bytes:
        """Render a parity accumulator as a byte payload of given length."""
        needed = self.field.symbol_length_for_bytes(byte_length)
        if needed > len(acc):
            grown = np.zeros(needed, dtype=self.field.symbol_dtype)
            grown[: len(acc)] = acc
            acc = grown
        return self.field.bytes_from_symbols(acc, byte_length)

    def __repr__(self) -> str:
        return (
            f"RSCodec(m={self.m}, k={self.k}, field={self.field!r}, "
            f"kind={self.kind!r})"
        )
