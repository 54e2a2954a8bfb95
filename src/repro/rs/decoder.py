"""Erasure decoding: rebuild lost record-group members.

Codeword positions are numbered 0..m-1 for the data slots and m..m+k-1
for the parity slots.  Given any m surviving positions, decoding builds
the m x m matrix of the corresponding generator rows, inverts it once per
failure pattern (cached), and reconstructs the data symbol-wise; lost
parity positions are then re-encoded from the recovered data.

The single-data-loss fast path — XOR the surviving data with parity 0 —
falls out naturally because the normalized Cauchy parity row 0 is all
ones; it is implemented explicitly so the cost difference is measurable
(experiment E7).  The Vandermonde ablation has no such row and always
takes the inverse.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.gf.field import GF
from repro.gf.matrix import GFMatrix
from repro.rs.generator import generator_matrix, parity_matrix


class DecodeError(ValueError):
    """Raised when the surviving positions cannot determine the data."""


@lru_cache(maxsize=4096)
def _decode_matrix(
    width: int, m: int, k: int, kind: str, rows: tuple[int, ...]
) -> GFMatrix:
    """Inverse of the m x m generator-row submatrix for chosen positions."""
    field = GF(width)
    gen = generator_matrix(field, m, k, kind)
    return gen.take_rows(rows).inverse()


def select_rows(available: set[int], m: int) -> tuple[int, ...]:
    """Pick m positions to decode from, preferring data positions.

    Data rows of the generator are unit vectors, so favoring them keeps
    the decode matrix close to the identity and the symbol work minimal.
    Every data position sorts below every parity one, so the first m
    in order are the data positions, then parity by index.
    """
    chosen = sorted(available)[:m]
    if len(chosen) < m:
        raise DecodeError(
            f"only {len(chosen)} of the required {m} positions survive"
        )
    return tuple(chosen)


def _wanted(m: int, k: int, available: set[int], lost: list[int] | None) -> list[int]:
    """The positions a decode rebuilds: ``lost``, or every position not
    ``available``; positions outside the codeword or both lost and
    available are refused."""
    all_positions = set(range(m + k))
    if not available <= all_positions:
        raise ValueError(f"share positions {available - all_positions} out of range")
    if lost is None:
        return sorted(all_positions - available)
    if set(lost) & available:
        raise ValueError("a position cannot be both lost and available")
    return lost


def decode_symbols(
    field: GF,
    m: int,
    k: int,
    shares: dict[int, np.ndarray],
    lost: list[int] | None = None,
    kind: str = "cauchy",
) -> dict[int, np.ndarray]:
    """Reconstruct lost codeword positions from surviving symbol arrays.

    ``shares`` maps surviving positions to equal-length symbol arrays;
    ``lost`` lists the positions to rebuild (default: all missing ones).
    Returns ``{position: symbols}`` for each requested lost position.
    Raises :class:`DecodeError` when fewer than m positions survive.
    """
    available = set(shares)
    lost = _wanted(m, k, available, lost)
    if not lost:
        return {}

    lengths = {len(v) for v in shares.values()}
    if len(lengths) != 1:
        raise ValueError("all shares must have the same symbol length")
    (length,) = lengths

    lost_data = [p for p in lost if p < m]
    lost_parity = [p for p in lost if p >= m]

    # Fast path: exactly one data position lost and parity 0 available —
    # plain XOR, no matrix inversion (the normalized Cauchy parity row 0
    # is all ones; the Vandermonde one is not).
    data_present = [p for p in sorted(available) if p < m]
    if (
        kind == "cauchy"
        and len(lost_data) == 1
        and m in available
        and len(data_present) == m - 1
    ):
        acc = shares[m].astype(field.symbol_dtype, copy=True)
        for p in data_present:
            acc ^= shares[p].astype(field.symbol_dtype, copy=False)
        recovered = {lost_data[0]: acc}
    elif lost_data:
        rows = select_rows(available, m)
        inverse = _decode_matrix(field.width, m, k, kind, rows)
        data = _solve(field, inverse, [shares[r] for r in rows], lost_data, length)
        recovered = data
    else:
        recovered = {}

    if lost_parity:
        # Re-encoding parity needs the full data vector; decode any data
        # positions that are neither available nor already recovered.
        missing = [j for j in range(m) if j not in shares and j not in recovered]
        if missing:
            rows = select_rows(available, m)
            inverse = _decode_matrix(field.width, m, k, kind, rows)
            recovered.update(
                _solve(field, inverse, [shares[r] for r in rows], missing, length)
            )
        full_data = [shares.get(j, recovered.get(j)) for j in range(m)]
        p_matrix = parity_matrix(field, m, k, kind)
        for p in lost_parity:
            acc = np.zeros(length, dtype=field.symbol_dtype)
            for j in range(m):
                coeff = p_matrix[p - m, j]
                if coeff == 1:
                    acc ^= full_data[j].astype(field.symbol_dtype, copy=False)
                elif coeff:
                    acc ^= field.mul_symbols(full_data[j], coeff)
            recovered[p] = acc

    return {p: recovered[p] for p in lost}


def decode_bytes(
    field: GF,
    m: int,
    k: int,
    shares: dict[int, bytes],
    lost: list[int] | None = None,
    kind: str = "cauchy",
) -> dict[int, bytes]:
    """:func:`decode_symbols` for one record group of GF(2^8) byte shares.

    Each wanted row of the cached inverse applies as one
    ``bytes.translate`` through :meth:`GF.byte_row` per nonzero
    coefficient (none where it is 1), summed by XOR as Python ints;
    lost parity positions are re-encoded from the data the same way.
    Shares may differ in length: a shorter one reads as zero-padded,
    and every result is as long as the longest share.
    """
    available = set(shares)
    lost = _wanted(m, k, available, lost)
    if not lost:
        return {}

    length = max(map(len, shares.values()))
    if (
        kind == "cauchy" and len(lost) == 1 and lost[0] < m
        and len(shares) == m and max(shares) == m
    ):
        # one data position lost, the others and parity 0 (position m,
        # the highest share) survive: the XOR fast path (the Cauchy
        # parity row 0 is all ones)
        return {lost[0]: _combine(field, [1] * m, [*shares.values()], length)}
    rows = select_rows(available, m)
    lost_parity = [p for p in lost if p >= m]
    # data positions to solve: the lost ones, and for a parity re-encode
    # every one that is not a share
    solve = [p for p in lost if p < m]
    if lost_parity:
        solve += [j for j in range(m) if j not in available and j not in solve]
    out: dict[int, bytes] = {}
    if solve:
        inverse = _decode_matrix(field.width, m, k, kind, rows).data
        columns = [shares[r] for r in rows]
        for w in solve:
            out[w] = _combine(field, inverse[w].tolist(), columns, length)
    if lost_parity:
        data = [out[j] if j in out else shares[j] for j in range(m)]
        generator = parity_matrix(field, m, k, kind).data
        for p in lost_parity:
            out[p] = _combine(field, generator[p - m].tolist(), data, length)
    return {p: out[p] for p in lost}


def _combine(
    field: GF, coefficients: list[int], columns: list[bytes], length: int
) -> bytes:
    """``XOR_j coefficients[j] * columns[j]`` as ``length`` bytes (w = 8)."""
    acc = 0
    for c, column in zip(coefficients, columns):
        if c:
            if c != 1:
                column = column.translate(field.byte_row(c))
            acc ^= int.from_bytes(column, "little")
    return acc.to_bytes(length, "little")


def decode_stripes(
    field: GF,
    m: int,
    k: int,
    shares: dict[int, np.ndarray],
    lost: list[int] | None = None,
    kind: str = "cauchy",
) -> dict[int, np.ndarray]:
    """Reconstruct lost positions for *many* record groups at once.

    The batch counterpart of :func:`decode_symbols` (which remains the
    scalar oracle).  ``shares`` maps each surviving codeword position to
    a stacked ``(nranks, L)`` matrix — row r is that position's symbols
    for the r-th record group, zero-padded to the common stripe length L.
    Returns ``{position: (nranks, L) matrix}`` for each requested lost
    position.  The whole rebuild costs O(matrix coefficients) kernel
    dispatches instead of O(ranks): the decode matrix is inverted once
    per failure pattern (cached) and applied with :meth:`GF.gf_matmul`,
    which reads the shares where they lie (no stacked copy); the
    single-data-loss XOR fast path folds them into one accumulator.
    """
    available = set(shares)
    lost = _wanted(m, k, available, lost)
    if not lost:
        return {}

    shares = {
        pos: np.asarray(matrix, dtype=field.symbol_dtype)
        for pos, matrix in shares.items()
    }
    shapes = {matrix.shape for matrix in shares.values()}
    if len(shapes) != 1:
        raise ValueError("all stacked shares must have the same shape")
    (shape,) = shapes
    if len(shape) != 2:
        raise ValueError("decode_stripes expects (nranks, L) share matrices")

    lost_data = [p for p in lost if p < m]
    lost_parity = [p for p in lost if p >= m]

    # Fast path: exactly one data position lost and parity 0 available —
    # one XOR-reduce over the stacked survivors, no matrix inversion
    # (Cauchy only, as in :func:`decode_symbols`).
    data_present = [p for p in sorted(available) if p < m]
    if (
        kind == "cauchy"
        and len(lost_data) == 1
        and m in available
        and len(data_present) == m - 1
    ):
        acc = shares[m].copy()
        for p in data_present:
            np.bitwise_xor(acc, shares[p], out=acc)
        recovered = {lost_data[0]: acc}
    elif lost_data:
        rows = select_rows(available, m)
        inverse = _decode_matrix(field.width, m, k, kind, rows)
        rhs = [shares[r] for r in rows]
        solved = field.gf_matmul(inverse.data[lost_data, :], rhs)
        recovered = dict(zip(lost_data, solved))
    else:
        recovered = {}

    if lost_parity:
        missing = [j for j in range(m) if j not in shares and j not in recovered]
        if missing:
            rows = select_rows(available, m)
            inverse = _decode_matrix(field.width, m, k, kind, rows)
            rhs = [shares[r] for r in rows]
            solved = field.gf_matmul(inverse.data[missing, :], rhs)
            recovered.update(dict(zip(missing, solved)))
        full_data = [shares.get(j, recovered.get(j)) for j in range(m)]
        p_matrix = parity_matrix(field, m, k, kind)
        wanted_rows = [p - m for p in lost_parity]
        solved = field.gf_matmul(p_matrix.data[wanted_rows, :], full_data)
        recovered.update(dict(zip(lost_parity, solved)))

    return {p: recovered[p] for p in lost}


def _solve(
    field: GF,
    inverse: GFMatrix,
    rhs: list[np.ndarray],
    wanted: list[int],
    length: int,
) -> dict[int, np.ndarray]:
    """Compute ``data[w] = sum_j inverse[w][j] * rhs[j]`` for wanted rows."""
    out: dict[int, np.ndarray] = {}
    for w in wanted:
        acc = np.zeros(length, dtype=field.symbol_dtype)
        for j in range(inverse.cols):
            coeff = inverse[w, j]
            if coeff == 1:
                acc ^= rhs[j].astype(field.symbol_dtype, copy=False)
            elif coeff:
                acc ^= field.mul_symbols(rhs[j], coeff)
        out[w] = acc
    return out
